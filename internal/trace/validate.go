package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// ChromeStats summarises a validated Chrome trace-event file.
type ChromeStats struct {
	Events  int            // non-metadata events
	Spans   int            // ph "X" events
	Faults  int            // events in the "fault" category
	Streams int            // events in the "stream" category
	Cats    map[string]int // events per category (layer)
}

// Layers returns the categories present, sorted.
func (s *ChromeStats) Layers() []string {
	out := make([]string, 0, len(s.Cats))
	for c := range s.Cats {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// rawChromeEvent mirrors the subset of trace-event fields the validator
// checks.
type rawChromeEvent struct {
	Name *string  `json:"name"`
	Cat  string   `json:"cat"`
	Ph   string   `json:"ph"`
	Ts   *float64 `json:"ts"`
	Dur  float64  `json:"dur"`
	Pid  *int     `json:"pid"`
	Tid  *int     `json:"tid"`
}

// ValidateChrome checks that data is a well-formed Chrome trace-event JSON
// object as emitted by WriteChrome: a traceEvents array whose entries carry
// name/ph/pid/tid, a known phase, non-negative timestamps and durations, and
// — per (pid, tid) track — monotonically non-decreasing timestamps. Events
// in the "fault" category must additionally use the FaultKinds vocabulary as
// the first token of their name (the fault/retry schema extension), and
// events in the "stream" category the StreamKinds vocabulary (the
// streaming-workload schema extension). It
// returns per-category statistics on success. This is the schema gate CI
// runs against sage bench -trace output.
func ValidateChrome(data []byte) (*ChromeStats, error) {
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("trace: not a JSON trace object: %w", err)
	}
	if doc.TraceEvents == nil {
		return nil, fmt.Errorf("trace: missing traceEvents array")
	}
	known := map[string]bool{"X": true, "i": true, "C": true, "M": true, "B": true, "E": true}
	lastTs := map[[2]int]float64{}
	stats := &ChromeStats{Cats: map[string]int{}}
	for i, raw := range doc.TraceEvents {
		var ev rawChromeEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, fmt.Errorf("trace: event %d: %w", i, err)
		}
		if ev.Name == nil || *ev.Name == "" {
			return nil, fmt.Errorf("trace: event %d has no name", i)
		}
		if !known[ev.Ph] {
			return nil, fmt.Errorf("trace: event %d (%s) has unknown phase %q", i, *ev.Name, ev.Ph)
		}
		if ev.Cat == string(LayerFault) {
			kind := *ev.Name
			if j := strings.IndexByte(kind, ' '); j > 0 {
				kind = kind[:j]
			}
			if !FaultKinds[kind] {
				return nil, fmt.Errorf("trace: event %d (%s) uses unknown fault kind %q", i, *ev.Name, kind)
			}
		}
		if ev.Cat == string(LayerStream) {
			kind := *ev.Name
			if j := strings.IndexByte(kind, ' '); j > 0 {
				kind = kind[:j]
			}
			if !StreamKinds[kind] {
				return nil, fmt.Errorf("trace: event %d (%s) uses unknown stream kind %q", i, *ev.Name, kind)
			}
		}
		if ev.Pid == nil || ev.Tid == nil {
			return nil, fmt.Errorf("trace: event %d (%s) lacks pid/tid", i, *ev.Name)
		}
		if ev.Ph == "M" {
			continue // metadata carries no timestamp
		}
		if ev.Ts == nil || *ev.Ts < 0 {
			return nil, fmt.Errorf("trace: event %d (%s) has missing or negative ts", i, *ev.Name)
		}
		if ev.Dur < 0 {
			return nil, fmt.Errorf("trace: event %d (%s) has negative dur %v", i, *ev.Name, ev.Dur)
		}
		track := [2]int{*ev.Pid, *ev.Tid}
		if last, ok := lastTs[track]; ok && *ev.Ts < last {
			return nil, fmt.Errorf("trace: event %d (%s) breaks per-track monotonicity: ts %v after %v on pid=%d tid=%d",
				i, *ev.Name, *ev.Ts, last, *ev.Pid, *ev.Tid)
		}
		lastTs[track] = *ev.Ts
		stats.Events++
		if ev.Ph == "X" {
			stats.Spans++
		}
		if ev.Cat == string(LayerFault) {
			stats.Faults++
		}
		if ev.Cat == string(LayerStream) {
			stats.Streams++
		}
		stats.Cats[ev.Cat]++
	}
	if stats.Events == 0 {
		return nil, fmt.Errorf("trace: traceEvents contains no timed events")
	}
	return stats, nil
}

package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
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

// rawChromeEvent mirrors the trace-event fields the validator checks, plus
// the args ReadChrome decodes.
type rawChromeEvent struct {
	Name *string         `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	Ts   *float64        `json:"ts"`
	Dur  float64         `json:"dur"`
	Pid  *int            `json:"pid"`
	Tid  *int            `json:"tid"`
	Args json.RawMessage `json:"args"`
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
	stats := &ChromeStats{Cats: map[string]int{}}
	err := decodeChrome(data, func(_ int, ev *rawChromeEvent) error {
		if ev.Ph == "M" {
			return nil
		}
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
		return nil
	})
	if err != nil {
		return nil, err
	}
	if stats.Events == 0 {
		return nil, fmt.Errorf("trace: traceEvents contains no timed events")
	}
	return stats, nil
}

// decodeChrome decodes data and runs ValidateChrome's per-event checks,
// handing each event that passes them to each, in file order.
func decodeChrome(data []byte, each func(i int, ev *rawChromeEvent) error) error {
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("trace: not a JSON trace object: %w", err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("trace: missing traceEvents array")
	}
	known := map[string]bool{"X": true, "i": true, "C": true, "M": true, "B": true, "E": true}
	lastTs := map[[2]int]float64{}
	for i, raw := range doc.TraceEvents {
		var ev rawChromeEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			return fmt.Errorf("trace: event %d: %w", i, err)
		}
		if ev.Name == nil || *ev.Name == "" {
			return fmt.Errorf("trace: event %d has no name", i)
		}
		if !known[ev.Ph] {
			return fmt.Errorf("trace: event %d (%s) has unknown phase %q", i, *ev.Name, ev.Ph)
		}
		if ev.Cat == string(LayerFault) && !FaultKinds[eventKind(*ev.Name)] {
			return fmt.Errorf("trace: event %d (%s) uses unknown fault kind %q", i, *ev.Name, eventKind(*ev.Name))
		}
		if ev.Cat == string(LayerStream) && !StreamKinds[eventKind(*ev.Name)] {
			return fmt.Errorf("trace: event %d (%s) uses unknown stream kind %q", i, *ev.Name, eventKind(*ev.Name))
		}
		if ev.Pid == nil || ev.Tid == nil {
			return fmt.Errorf("trace: event %d (%s) lacks pid/tid", i, *ev.Name)
		}
		if ev.Ph != "M" { // metadata carries no timestamp
			if ev.Ts == nil || *ev.Ts < 0 {
				return fmt.Errorf("trace: event %d (%s) has missing or negative ts", i, *ev.Name)
			}
			if ev.Dur < 0 {
				return fmt.Errorf("trace: event %d (%s) has negative dur %v", i, *ev.Name, ev.Dur)
			}
			track := [2]int{*ev.Pid, *ev.Tid}
			if last, ok := lastTs[track]; ok && *ev.Ts < last {
				return fmt.Errorf("trace: event %d (%s) breaks per-track monotonicity: ts %v after %v on pid=%d tid=%d",
					i, *ev.Name, *ev.Ts, last, *ev.Pid, *ev.Tid)
			}
			lastTs[track] = *ev.Ts
		}
		if err := each(i, &ev); err != nil {
			return err
		}
	}
	return nil
}

// ReadChrome is WriteChrome's reader: it decodes and checks data as
// ValidateChrome does and rebuilds the runs' spans, instants and gauges,
// so that WriteChrome writes data again byte for byte. Each process_name
// gives a process's run label and node; a run ends where the label changes
// or the node numbers stop rising, as they rise within one run. Timestamps
// come back in exact nanoseconds: WriteChrome writes ts and dur as
// shortest-form microsecond floats. The end-of-run counters (node, link,
// wait totals) are not in the file and stay empty.
func ReadChrome(data []byte) (*Trace, error) {
	type proc struct {
		c    *Collector
		node int
	}
	t := NewTrace()
	procs := map[int]proc{}
	tracks := map[[2]int]string{}
	var run *Collector
	runNode := 0
	err := decodeChrome(data, func(i int, ev *rawChromeEvent) error {
		// An absent optional span field stays -1, as the collector records it.
		args := struct {
			Name       string `json:"name"`
			Bytes      int64  `json:"bytes"`
			Iter       int    `json:"iter"`
			QueueDepth int    `json:"queue_depth"`
			Value      int    `json:"value"`
		}{Bytes: -1, Iter: -1, QueueDepth: -1}
		if len(ev.Args) > 0 {
			if err := json.Unmarshal(ev.Args, &args); err != nil {
				return fmt.Errorf("trace: event %d (%s): %w", i, *ev.Name, err)
			}
		}
		pid, track := *ev.Pid, [2]int{*ev.Pid, *ev.Tid}
		if ev.Ph == "M" {
			if *ev.Name == "thread_name" {
				tracks[track] = args.Name
			}
			if *ev.Name != "process_name" {
				return nil
			}
			label, node, ok := parseProcessName(args.Name)
			if !ok {
				return fmt.Errorf("trace: event %d: process name %q is not \"label · node N\" or \"label · kernel\"", i, args.Name)
			}
			if run == nil || label != run.Label || node <= runNode {
				run = New(label)
				t.Add(run)
			}
			runNode, procs[pid] = node, proc{run, node}
			return nil
		}
		p, ok := procs[pid]
		name, named := tracks[track]
		if !ok || !named {
			return fmt.Errorf("trace: event %d (%s) is on pid=%d tid=%d, which no metadata names", i, *ev.Name, *ev.Pid, *ev.Tid)
		}
		if *ev.Ts*1e3 >= 1<<62 || ev.Dur*1e3 >= 1<<62 {
			return fmt.Errorf("trace: event %d (%s) lies beyond the virtual clock", i, *ev.Name)
		}
		at := sim.Time(math.Round(*ev.Ts * 1e3))
		switch ev.Ph {
		case "X":
			p.c.spans.add(Span{Layer: Layer(ev.Cat), Node: p.node, Track: name, Name: *ev.Name,
				Start: at, End: at.Add(sim.Duration(math.Round(ev.Dur * 1e3))),
				Bytes: args.Bytes, Iter: args.Iter, Depth: args.QueueDepth})
		case "i":
			p.c.instants.add(Instant{Layer: Layer(ev.Cat), Node: p.node, Track: name,
				Name: *ev.Name, At: at, Value: args.Value})
		case "C":
			p.c.gauges.add(Gauge{Layer: Layer(ev.Cat), Node: p.node, Track: name,
				Name: *ev.Name, At: at, Value: args.Value})
		default:
			return fmt.Errorf("trace: event %d (%s) has phase %q, which WriteChrome never writes", i, *ev.Name, ev.Ph)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// parseProcessName inverts processName.
func parseProcessName(s string) (label string, node int, ok bool) {
	i := strings.LastIndex(s, " · ")
	if i < 0 {
		return "", 0, false
	}
	label, rest := s[:i], s[i+len(" · "):]
	if rest == "kernel" {
		return label, NodeKernel, true
	}
	num, isNode := strings.CutPrefix(rest, "node ")
	n, err := strconv.Atoi(num)
	return label, n, isNode && err == nil
}

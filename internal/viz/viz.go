// Package viz reproduces the SAGE Visualizer (§1.1): "a configurable
// instrumentation package that enables the designer to visualize the
// execution of the application through a variety of graphical displays that
// are fed by probes placed within the generated code. The Visualizer allows
// the designer to configure the instrumentation probes to measure
// application performance, and search for problems in the system, such as
// bottlenecks or violated latency thresholds."
//
// The probes are the SAGE runtime's recv/compute/send phase spans, which a
// run records into its trace.Collector (sagert.Options.Collector) for every
// function thread; FromRun reads them out of a live collector or out of one
// run of a Chrome trace file read back with trace.ReadChrome. This package
// renders them as text and graphical displays: an ASCII Gantt timeline per
// function thread, per-function phase breakdowns, a bottleneck ranking,
// latency threshold checks and an SVG timeline.
package viz

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Event is one phase of one function thread's iteration.
type Event struct {
	FnName string
	Thread int
	Node   int
	Iter   int
	Phase  string // "recv", "compute", "send"
	Start  sim.Time
	End    sim.Time
	// pid is the thread's simulated process. The runtime spawns threads in
	// function-table order, so pid order is the timeline's row order.
	pid int
}

// Trace is the Visualizer's view of one run: its phase events, ordered by
// thread, iteration and phase.
type Trace struct {
	Events []Event
}

// phaseRank orders a thread's phases within an iteration; 0 is not a phase.
var phaseRank = map[string]int{"recv": 1, "compute": 2, "send": 3}

// FromRun collects the sagert phase spans of one run. Each span's track is
// the thread's process track, trace.ProcTrack("App.fn[i]", pid), which
// names the function (between the first '.' and the last '['), the thread
// index and the process id.
func FromRun(c *trace.Collector) (*Trace, error) {
	t := &Trace{}
	for _, s := range c.Spans() {
		if s.Layer != trace.LayerSage || phaseRank[s.Name] == 0 {
			continue
		}
		e := Event{Node: s.Node, Iter: s.Iter, Phase: s.Name, Start: s.Start, End: s.End}
		var ok bool
		if e.FnName, e.Thread, e.pid, ok = parseTrack(s.Track); !ok {
			return nil, fmt.Errorf("viz: %s span on track %q, not a function thread's", s.Name, s.Track)
		}
		t.Events = append(t.Events, e)
	}
	slices.SortStableFunc(t.Events, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.pid, b.pid), cmp.Compare(a.Iter, b.Iter),
			cmp.Compare(phaseRank[a.Phase], phaseRank[b.Phase]))
	})
	return t, nil
}

// parseTrack splits a "App.fn[i] #pid" process track.
func parseTrack(track string) (fn string, thread, pid int, ok bool) {
	proc, pidText, found := strings.Cut(track, " #")
	dot, open := strings.IndexByte(proc, '.'), strings.LastIndexByte(proc, '[')
	if !found || dot < 0 || open < dot || !strings.HasSuffix(proc, "]") {
		return "", 0, 0, false
	}
	var err1, err2 error
	thread, err1 = strconv.Atoi(proc[open+1 : len(proc)-1])
	pid, err2 = strconv.Atoi(pidText)
	return proc[dot+1 : open], thread, pid, err1 == nil && err2 == nil
}

// rows splits the events into timeline lanes, one per function thread, in
// pid order.
func (t *Trace) rows() [][]Event {
	var out [][]Event
	start := 0
	for i := range t.Events {
		if i+1 == len(t.Events) || t.Events[i+1].pid != t.Events[i].pid {
			out = append(out, t.Events[start:i+1])
			start = i + 1
		}
	}
	return out
}

// Span reports the earliest start and latest end across all events.
func (t *Trace) Span() (sim.Time, sim.Time) {
	if len(t.Events) == 0 {
		return 0, 0
	}
	lo, hi := t.Events[0].Start, t.Events[0].End
	for _, e := range t.Events[1:] {
		if e.Start < lo {
			lo = e.Start
		}
		if e.End > hi {
			hi = e.End
		}
	}
	return lo, hi
}

// PhaseBreakdown sums event durations per function and phase.
type PhaseBreakdown struct {
	Fn      string
	Compute sim.Duration
	Recv    sim.Duration
	Send    sim.Duration
}

// Total is the function's summed instrumented time.
func (p PhaseBreakdown) Total() sim.Duration { return p.Compute + p.Recv + p.Send }

// Breakdown aggregates the trace per function, sorted by function name.
func (t *Trace) Breakdown() []PhaseBreakdown {
	agg := map[string]*PhaseBreakdown{}
	for _, e := range t.Events {
		b, ok := agg[e.FnName]
		if !ok {
			b = &PhaseBreakdown{Fn: e.FnName}
			agg[e.FnName] = b
		}
		d := e.End.Sub(e.Start)
		switch e.Phase {
		case "compute":
			b.Compute += d
		case "recv":
			b.Recv += d
		case "send":
			b.Send += d
		}
	}
	out := make([]PhaseBreakdown, 0, len(agg))
	for _, b := range agg {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fn < out[j].Fn })
	return out
}

// Bottleneck is a diagnosis for one function.
type Bottleneck struct {
	Fn string
	// Share is the function's fraction of total instrumented compute time.
	Share float64
	// WaitShare is recv (blocked/assembly) time relative to the function's
	// own total, indicating starvation by upstream stages.
	WaitShare float64
	// Diagnosis is a one-line classification.
	Diagnosis string
}

// Bottlenecks ranks functions by compute share and classifies each: the
// "search for problems in the system" display.
func (t *Trace) Bottlenecks() []Bottleneck {
	bd := t.Breakdown()
	var totalCompute sim.Duration
	for _, b := range bd {
		totalCompute += b.Compute
	}
	var out []Bottleneck
	for _, b := range bd {
		bn := Bottleneck{Fn: b.Fn}
		if totalCompute > 0 {
			bn.Share = float64(b.Compute) / float64(totalCompute)
		}
		if b.Total() > 0 {
			bn.WaitShare = float64(b.Recv) / float64(b.Total())
		}
		switch {
		case bn.Share > 0.5:
			bn.Diagnosis = "compute bottleneck: dominates total processing time"
		case bn.WaitShare > 0.6:
			bn.Diagnosis = "starved: mostly waiting on upstream data"
		case float64(b.Send) > 0.5*float64(b.Total()):
			bn.Diagnosis = "send-bound: output path saturated"
		default:
			bn.Diagnosis = "balanced"
		}
		out = append(out, bn)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Fn < out[j].Fn
	})
	return out
}

// Violation is a data set whose latency exceeded the threshold.
type Violation struct {
	Iteration int
	Latency   sim.Duration
	Threshold sim.Duration
}

// CheckLatencies flags iterations whose latency exceeds the threshold (the
// Visualizer's "violated latency thresholds" display).
func CheckLatencies(latencies []sim.Duration, threshold sim.Duration) []Violation {
	var out []Violation
	for i, l := range latencies {
		if l > threshold {
			out = append(out, Violation{Iteration: i, Latency: l, Threshold: threshold})
		}
	}
	return out
}

// Gantt renders an ASCII timeline, one row per (function, thread), with
// phase characters: '.' idle, 'r' receiving/assembling, 'C' computing,
// 's' sending. width is the number of time columns.
func (t *Trace) Gantt(w io.Writer, width int) error {
	if width < 10 {
		width = 10
	}
	if len(t.Events) == 0 {
		_, err := fmt.Fprintln(w, "(no probe events)")
		return err
	}
	lo, hi := t.Span()
	span := hi.Sub(lo)
	if span <= 0 {
		span = 1
	}
	col := func(ts sim.Time) int {
		c := int(float64(ts.Sub(lo)) / float64(span) * float64(width))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}
	phaseChar := map[string]byte{"recv": 'r', "compute": 'C', "send": 's'}
	fmt.Fprintf(w, "timeline %v .. %v (%v)\n", lo, hi, span)
	for _, r := range t.rows() {
		line := make([]byte, width)
		for i := range line {
			line[i] = '.'
		}
		for _, e := range r {
			c0, c1 := col(e.Start), col(e.End)
			ch := phaseChar[e.Phase]
			if ch == 0 {
				ch = '?'
			}
			for c := c0; c <= c1; c++ {
				// Compute wins over send wins over recv when events share
				// a column at this resolution.
				if line[c] == '.' || line[c] == 'r' || (line[c] == 's' && ch == 'C') {
					line[c] = ch
				}
			}
		}
		fmt.Fprintf(w, "%-24s |%s|\n", fmt.Sprintf("%s[%d] n%d", r[0].FnName, r[0].Thread, r[0].Node), line)
	}
	return nil
}

// Report writes the full Visualizer text report: breakdown, bottlenecks and
// Gantt chart.
func (t *Trace) Report(w io.Writer, width int) error {
	fmt.Fprintln(w, "== SAGE Visualizer report ==")
	fmt.Fprintln(w, "\n-- per-function phase totals --")
	for _, b := range t.Breakdown() {
		fmt.Fprintf(w, "%-16s compute=%-14v recv=%-14v send=%-14v\n", b.Fn, b.Compute, b.Recv, b.Send)
	}
	fmt.Fprintln(w, "\n-- bottleneck analysis --")
	for _, bn := range t.Bottlenecks() {
		fmt.Fprintf(w, "%-16s compute-share=%5.1f%% wait-share=%5.1f%%  %s\n",
			bn.Fn, 100*bn.Share, 100*bn.WaitShare, bn.Diagnosis)
	}
	fmt.Fprintln(w, "\n-- timeline --")
	return t.Gantt(w, width)
}

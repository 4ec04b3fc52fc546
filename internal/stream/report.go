package stream

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// ReportSchema versions the report JSON; bump on incompatible change.
const ReportSchema = "sage-stream/1"

// Report is the SLO-centric summary of a streaming run: per-class latency
// percentiles, throughput and goodput, the Jain fairness index across
// classes, backpressure high-water marks, and the remapping events. Every
// field is derived from virtual time, so report bytes are identical for a
// given scenario on every host at any experiment parallelism.
type Report struct {
	Schema  string `json:"schema"`
	Seed    int64  `json:"seed"`
	Offered int    `json:"offered"`
	// Admitted + Shed = Offered; Completed <= Admitted; Late <= Completed.
	Admitted  int `json:"admitted"`
	Shed      int `json:"shed"`
	Completed int `json:"completed"`
	Late      int `json:"late"`
	// Jain is the fairness index over per-class goodput (1 = perfectly
	// fair, 1/k = one class takes all).
	Jain    float64       `json:"jain"`
	Classes []ClassReport `json:"classes"`
	// ThroughputFPS is completed frames per second of virtual time, over the
	// window ending at the last completion (the controller's final idle tick
	// extends Elapsed, so Elapsed is not the throughput denominator).
	ThroughputFPS float64 `json:"throughput_fps"`
	// MaxBacklog is the admission queue's high-water mark; CreditStallNs the
	// total time threads spent blocked on pipelining credits.
	MaxBacklog    int           `json:"max_backlog"`
	CreditStallNs int64         `json:"credit_stall_ns"`
	Remaps        []RemapReport `json:"remaps,omitempty"`
	ElapsedNs     int64         `json:"elapsed_ns"`
	LastDoneNs    int64         `json:"last_done_ns"`
}

// ClassReport is one client class's service summary.
type ClassReport struct {
	Name      string `json:"name"`
	Offered   int    `json:"offered"`
	Admitted  int    `json:"admitted"`
	Shed      int    `json:"shed"`
	Completed int    `json:"completed"`
	Late      int    `json:"late"`
	// Latency percentiles over completed frames (arrival to sink, queueing
	// included), streaming P² estimates fed in completion order.
	P50Ns int64 `json:"p50_ns"`
	P95Ns int64 `json:"p95_ns"`
	P99Ns int64 `json:"p99_ns"`
	// MeanNs / MaxNs over the same population.
	MeanNs int64 `json:"mean_ns"`
	MaxNs  int64 `json:"max_ns"`
	// ThroughputFPS is the class's completed frames per second (global
	// window); Goodput its on-time completions as a fraction of offered
	// frames — the number the Jain index is computed over.
	ThroughputFPS float64 `json:"throughput_fps"`
	Goodput       float64 `json:"goodput"`
}

// RemapReport is one remap event in report form.
type RemapReport struct {
	AtNs     int64   `json:"at_ns"`
	StallNs  int64   `json:"stall_ns"`
	Trigger  int     `json:"trigger"`
	Migrated int     `json:"migrated"`
	Assign   [][]int `json:"assign"`
}

// BuildReport aggregates a run's frame stats into the report.
func BuildReport(classes []Class, seed int64, res *Result) *Report {
	rep := &Report{
		Schema: ReportSchema, Seed: seed,
		Offered:       len(res.Frames),
		MaxBacklog:    res.MaxBacklog,
		CreditStallNs: int64(res.CreditStall),
		ElapsedNs:     int64(res.Elapsed),
		LastDoneNs:    int64(res.LastDone),
	}
	type acc struct {
		cr            ClassReport
		p50, p95, p99 *stats.Quantile
		mean          stats.Welford
		max           sim.Duration
		onTime        int
	}
	accs := make([]*acc, len(classes))
	for i, c := range classes {
		accs[i] = &acc{cr: ClassReport{Name: c.Name},
			p50: stats.NewQuantile(0.50), p95: stats.NewQuantile(0.95), p99: stats.NewQuantile(0.99)}
	}
	for i := range res.Frames {
		f := &res.Frames[i]
		a := accs[f.Class]
		a.cr.Offered++
		if f.Shed {
			a.cr.Shed++
			rep.Shed++
			continue
		}
		a.cr.Admitted++
		rep.Admitted++
		if f.Done == 0 {
			continue // canceled runs can leave admitted frames unfinished
		}
		a.cr.Completed++
		rep.Completed++
		lat := float64(f.Latency())
		a.p50.Add(lat)
		a.p95.Add(lat)
		a.p99.Add(lat)
		a.mean.Add(lat)
		if f.Latency() > a.max {
			a.max = f.Latency()
		}
		if f.Late {
			a.cr.Late++
			rep.Late++
		} else {
			a.onTime++
		}
	}
	seconds := float64(res.LastDone) / 1e9
	goodputs := make([]float64, len(classes))
	for i, a := range accs {
		a.cr.MeanNs = int64(a.mean.Mean())
		a.cr.MaxNs = int64(a.max)
		// The three P² estimators run independently, so on a small
		// population a lower quantile's estimate can pass a higher one's
		// (or the observed maximum); the report states them monotone.
		a.cr.P50Ns = min(int64(a.p50.Value()), a.cr.MaxNs)
		a.cr.P95Ns = min(max(int64(a.p95.Value()), a.cr.P50Ns), a.cr.MaxNs)
		a.cr.P99Ns = min(max(int64(a.p99.Value()), a.cr.P95Ns), a.cr.MaxNs)
		if seconds > 0 {
			a.cr.ThroughputFPS = float64(a.cr.Completed) / seconds
		}
		if a.cr.Offered > 0 {
			a.cr.Goodput = float64(a.onTime) / float64(a.cr.Offered)
		}
		goodputs[i] = a.cr.Goodput
		rep.Classes = append(rep.Classes, a.cr)
	}
	rep.Jain = stats.Jain(goodputs)
	if seconds > 0 {
		rep.ThroughputFPS = float64(rep.Completed) / seconds
	}
	for _, ev := range res.Remaps {
		rep.Remaps = append(rep.Remaps, RemapReport{
			AtNs: int64(ev.At), StallNs: int64(ev.Stall),
			Trigger: ev.Trigger, Migrated: ev.Migrated, Assign: ev.Assign,
		})
	}
	return rep
}

// Validate checks a report's internal consistency — the schema gate CI runs
// on sage-stream output.
func (r *Report) Validate() error {
	if r.Schema != ReportSchema {
		return fmt.Errorf("stream: report schema %q, want %q", r.Schema, ReportSchema)
	}
	if r.Admitted+r.Shed != r.Offered {
		return fmt.Errorf("stream: admitted %d + shed %d != offered %d", r.Admitted, r.Shed, r.Offered)
	}
	if r.Completed > r.Admitted {
		return fmt.Errorf("stream: completed %d > admitted %d", r.Completed, r.Admitted)
	}
	if r.Late > r.Completed {
		return fmt.Errorf("stream: late %d > completed %d", r.Late, r.Completed)
	}
	if r.Jain < 0 || r.Jain > 1+1e-9 {
		return fmt.Errorf("stream: Jain index %v outside [0,1]", r.Jain)
	}
	var offered, admitted, shed, completed, late int
	for i := range r.Classes {
		c := &r.Classes[i]
		if c.Admitted+c.Shed != c.Offered {
			return fmt.Errorf("stream: class %q: admitted %d + shed %d != offered %d", c.Name, c.Admitted, c.Shed, c.Offered)
		}
		if c.P50Ns > c.P95Ns || c.P95Ns > c.P99Ns {
			return fmt.Errorf("stream: class %q: percentiles not ordered (p50 %d, p95 %d, p99 %d)", c.Name, c.P50Ns, c.P95Ns, c.P99Ns)
		}
		if c.P99Ns > c.MaxNs {
			return fmt.Errorf("stream: class %q: p99 %d exceeds max %d", c.Name, c.P99Ns, c.MaxNs)
		}
		if c.Goodput < 0 || c.Goodput > 1 {
			return fmt.Errorf("stream: class %q: goodput %v outside [0,1]", c.Name, c.Goodput)
		}
		offered += c.Offered
		admitted += c.Admitted
		shed += c.Shed
		completed += c.Completed
		late += c.Late
	}
	if offered != r.Offered || admitted != r.Admitted || shed != r.Shed || completed != r.Completed || late != r.Late {
		return fmt.Errorf("stream: class totals disagree with run totals")
	}
	for i := range r.Remaps {
		if r.Remaps[i].StallNs < 0 {
			return fmt.Errorf("stream: remap %d has negative stall", i)
		}
	}
	return nil
}

// WriteJSON emits the report as indented JSON (stable field order —
// byte-identical for a given run).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Format renders the report as a human-readable table.
func (r *Report) Format(w io.Writer) {
	fmt.Fprintf(w, "streaming run: %d offered, %d admitted, %d shed, %d completed, %d late\n",
		r.Offered, r.Admitted, r.Shed, r.Completed, r.Late)
	fmt.Fprintf(w, "throughput %.1f frames/s over %v; Jain fairness %.4f\n",
		r.ThroughputFPS, time.Duration(r.LastDoneNs), r.Jain)
	fmt.Fprintf(w, "backpressure: max backlog %d frames, credit stall %v\n",
		r.MaxBacklog, time.Duration(r.CreditStallNs))
	fmt.Fprintf(w, "%-14s %7s %7s %6s %6s %12s %12s %12s %9s %8s\n",
		"class", "offered", "compl", "shed", "late", "p50", "p95", "p99", "fps", "goodput")
	for i := range r.Classes {
		c := &r.Classes[i]
		fmt.Fprintf(w, "%-14s %7d %7d %6d %6d %12v %12v %12v %9.1f %7.1f%%\n",
			c.Name, c.Offered, c.Completed, c.Shed, c.Late,
			time.Duration(c.P50Ns), time.Duration(c.P95Ns), time.Duration(c.P99Ns),
			c.ThroughputFPS, 100*c.Goodput)
	}
	for i := range r.Remaps {
		ev := &r.Remaps[i]
		fmt.Fprintf(w, "remap %d: node %d degraded at %v; %d threads migrated, admission stalled %v\n",
			i, ev.Trigger, time.Duration(ev.AtNs), ev.Migrated, time.Duration(ev.StallNs))
	}
}

package fault

import (
	"fmt"
	"maps"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Outcome is the injector's verdict on one transfer attempt.
type Outcome struct {
	// Down means the link has zero effective bandwidth right now: the
	// attempt is refused before occupying the wire (the sender pays software
	// overhead only) and must be retried.
	Down bool
	// Drop means the message is lost on the wire: the sender pays the full
	// send cost but the payload never arrives.
	Drop bool
	// BWFactor scales the link's bandwidth for this attempt (1 when
	// undegraded; always > 0 when Down is false).
	BWFactor float64
	// ExtraLatency is added to the link's delivery latency.
	ExtraLatency sim.Duration
}

// Injector instantiates a Plan for one simulation kernel. Like everything
// attached to a kernel it belongs to a single goroutine and needs no
// locking; create one fresh Injector per run (per kernel) — never share one
// across concurrent simulations. A nil *Injector is the disabled injector:
// every method is a no-op reporting "no fault".
//
// Every random decision is a counter-keyed hash of (plan seed, link id,
// virtual time, per-link attempt index). All inputs are virtual-machine
// state, so a faulted run is bit-reproducible at any host parallelism and
// with tracing on or off.
type Injector struct {
	plan *Plan
	seed uint64
	tr   *trace.Collector
	// attempts counts transfer attempts per directed link, so two attempts
	// at the same virtual instant draw differently.
	attempts map[[2]int]uint64
	// stallNoted remembers which (node, window start) stalls have already
	// been traced, so one window is one span no matter how many processes
	// hit it.
	stallNoted map[stallKey]bool
	counts     map[string]int
}

// stallKey names one node's stall window by its start.
type stallKey struct {
	node int
	from sim.Time
}

// NewInjector builds the per-kernel injector for the plan. A nil or empty
// plan yields a nil injector (the disabled injector).
func (p *Plan) NewInjector() *Injector {
	if p.Empty() {
		return nil
	}
	return &Injector{plan: p, seed: uint64(p.Seed),
		attempts: map[[2]int]uint64{}, stallNoted: map[stallKey]bool{}, counts: map[string]int{}}
}

// SetTrace attaches the run's trace collector so injected faults appear in
// the Chrome trace. Tracing only observes: no injection decision ever
// depends on the collector.
func (in *Injector) SetTrace(c *trace.Collector) {
	if in != nil {
		in.tr = c
	}
}

// Enabled reports whether any faults can be injected.
func (in *Injector) Enabled() bool { return in != nil }

// Counts reports how many faults of each kind ("drop", "down", "stall")
// have been injected so far, as a copy the caller may keep.
func (in *Injector) Counts() map[string]int {
	if in == nil {
		return nil
	}
	return maps.Clone(in.counts)
}

// splitmix64 finaliser: a bijective avalanche mix.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns a deterministic uniform value in [0, 1) for one attempt.
func (in *Injector) draw(src, dst int, now sim.Time, attempt uint64) float64 {
	h := mix64(in.seed ^ mix64(uint64(src)<<32|uint64(uint32(dst))))
	h = mix64(h ^ uint64(now))
	h = mix64(h ^ attempt)
	return float64(h>>11) / (1 << 53)
}

// LinkAttempt decides the fate of one transfer attempt on the directed link
// src->dst at virtual time now. Degradations compose: bandwidth factors
// multiply and extra latencies add across all matching active rules; any
// factor reaching zero takes the link down. Drops are evaluated per rule
// with independent seeded draws.
func (in *Injector) LinkAttempt(src, dst int, now sim.Time) Outcome {
	out := Outcome{BWFactor: 1}
	if in == nil {
		return out
	}
	link := [2]int{src, dst}
	attempt := in.attempts[link]
	in.attempts[link] = attempt + 1

	for i := range in.plan.Degrades {
		r := &in.plan.Degrades[i]
		if !r.Link.Matches(src, dst) || !r.Win.Contains(now) {
			continue
		}
		out.BWFactor *= r.BWFactor
		out.ExtraLatency += r.ExtraLatency
	}
	// Zero-bandwidth guard: no division by zero downstream, the attempt is
	// refused instead of serialising forever.
	if out.BWFactor <= 0 {
		out.Down = true
		out.BWFactor = 0
		in.note("down", src, fmt.Sprintf("down link %d->%d", src, dst), now)
		return out
	}
	drawn := false
	var v float64
	for i := range in.plan.Drops {
		r := &in.plan.Drops[i]
		if !r.Link.Matches(src, dst) || !r.Win.Contains(now) || r.Rate <= 0 {
			continue
		}
		if !drawn {
			// One draw per attempt; rules compose as independent drop
			// chances via the complement product.
			v = in.draw(src, dst, now, attempt)
			drawn = true
		}
		keep := 1 - r.Rate
		if v >= keep {
			out.Drop = true
			in.note("drop", src, fmt.Sprintf("drop link %d->%d", src, dst), now)
			return out
		}
		// Rescale the draw so subsequent rules see an independent uniform.
		v /= keep
	}
	return out
}

// StalledUntil reports whether node is inside a stall window at virtual time
// now and, if so, when its CPU comes back. Overlapping windows chain: the
// returned restart time is past every window containing it.
func (in *Injector) StalledUntil(node int, now sim.Time) (sim.Time, bool) {
	if in == nil {
		return 0, false
	}
	end := now
	stalled := false
	for changed := true; changed; {
		changed = false
		for i := range in.plan.Stalls {
			r := &in.plan.Stalls[i]
			if r.Node != AllNodes && r.Node != node {
				continue
			}
			if r.Win.Contains(end) && r.Win.To > end {
				in.noteStall(node, r.Win)
				end = r.Win.To
				stalled = true
				changed = true
			}
		}
	}
	if !stalled {
		return 0, false
	}
	return end, true
}

// NodeStalled reports whether node is inside a stall window at time now
// (used by the runtime's degraded-mode re-sequencing; emits no events).
func (in *Injector) NodeStalled(node int, now sim.Time) bool {
	if in == nil {
		return false
	}
	for i := range in.plan.Stalls {
		r := &in.plan.Stalls[i]
		if (r.Node == AllNodes || r.Node == node) && r.Win.Contains(now) {
			return true
		}
	}
	return false
}

// note counts one injected fault and traces it as an instant event.
func (in *Injector) note(kind string, node int, name string, at sim.Time) {
	in.counts[kind]++
	if in.tr.Enabled() {
		in.tr.FaultPoint(node, name, at)
	}
}

// noteStall counts and traces one stall window as a span, once per
// (node, window).
func (in *Injector) noteStall(node int, w Window) {
	key := stallKey{node, w.From}
	if in.stallNoted[key] {
		return
	}
	in.stallNoted[key] = true
	in.counts["stall"]++
	if in.tr.Enabled() {
		in.tr.FaultSpan(node, fmt.Sprintf("stall node %d", node), w.From, w.To)
	}
}

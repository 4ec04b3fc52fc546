// Package fault is the deterministic fault-injection subsystem of the
// reproduction. The paper's target machines — embedded multicomputers for
// avionics and signal processing — exist to keep working under degraded
// conditions, yet the paper only evaluates SAGE glue code on a perfect
// fabric. This package lets the reproduction ask the paper's question under
// stress: does auto-generated glue code degrade as gracefully as hand-coded
// MPI when links drop messages, lose bandwidth, or nodes stall?
//
// A Plan is a composable, declarative set of fault rules parsed from a small
// text format (see ParsePlan): per-message drops, transient link degradation
// (bandwidth factor and extra latency over a virtual-time window, including
// full outages at bandwidth factor 0), and node stall windows (crash-restart:
// the CPU is unavailable, in-progress work resumes at restart). An Injector
// instantiates a Plan for one simulation kernel and makes every per-message
// decision with a counter-keyed PRNG derived from the plan seed, the link id
// and the virtual time of the attempt — never from host state — so a faulted
// run is bit-reproducible at any host parallelism and with tracing on or off.
//
// Progress is guaranteed by construction: the retry policy's attempt cap
// forces delivery through a maintenance path after MaxAttempts failures, and
// stall windows are validated finite, so no injected fault can deadlock a
// simulation (see RetryPolicy).
package fault

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
)

// AllLinks / AllNodes are the wildcard selector values (any source, any
// destination, any node).
const (
	AllLinks = -1
	AllNodes = -1
)

// Forever marks a window with no upper bound.
const Forever = sim.Time(1<<63 - 1)

// Window is a half-open virtual-time interval [From, To).
type Window struct {
	From sim.Time
	To   sim.Time // Forever when unbounded
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t sim.Time) bool { return t >= w.From && t < w.To }

// Bounded reports whether the window has a finite end.
func (w Window) Bounded() bool { return w.To != Forever }

// LinkSel selects directed links; AllLinks in either field is a wildcard.
type LinkSel struct {
	Src, Dst int
}

// Matches reports whether the selector covers the directed link src->dst.
func (s LinkSel) Matches(src, dst int) bool {
	return (s.Src == AllLinks || s.Src == src) && (s.Dst == AllLinks || s.Dst == dst)
}

// DropRule drops each message crossing a matching link during the window
// with probability Rate (an independent seeded draw per attempt).
type DropRule struct {
	Link LinkSel
	Rate float64 // [0, 1]
	Win  Window
}

// DegradeRule scales a matching link's bandwidth by BWFactor and adds
// ExtraLatency during the window. BWFactor 0 takes the link down entirely:
// transfer attempts fail without occupying the wire, and senders must retry
// (the zero-bandwidth guard — no division by zero, no infinite
// serialisation).
type DegradeRule struct {
	Link         LinkSel
	BWFactor     float64 // [0, 1]; 0 = link down
	ExtraLatency sim.Duration
	Win          Window
}

// StallRule makes a node's CPU unavailable for the window (crash-restart:
// processes resume where they were once the node comes back). Stall windows
// must be finite or the simulation could not terminate.
type StallRule struct {
	Node int // node id, or AllNodes
	Win  Window
}

// Plan is a validated, immutable set of fault rules plus the seed every
// injected decision derives from. Build plans with ParsePlan or construct
// them directly and call Validate.
type Plan struct {
	Seed     int64
	Drops    []DropRule
	Degrades []DegradeRule
	Stalls   []StallRule
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Drops) == 0 && len(p.Degrades) == 0 && len(p.Stalls) == 0)
}

// HasStalls reports whether any stall rule exists (the degraded-mode
// re-sequencing in the SAGE runtime only engages when it does).
func (p *Plan) HasStalls() bool { return p != nil && len(p.Stalls) > 0 }

// Validate checks rule parameters: probabilities in [0,1], bandwidth factors
// in [0,1], non-negative latencies, coherent windows, and finite stall
// windows (an unbounded stall would make termination impossible).
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	var errs []error
	checkWin := func(what string, w Window) {
		if w.From < 0 {
			errs = append(errs, fmt.Errorf("%s: window start %v < 0", what, w.From))
		}
		if w.To <= w.From {
			errs = append(errs, fmt.Errorf("%s: empty window [%v, %v)", what, w.From, w.To))
		}
	}
	checkLink := func(what string, l LinkSel) {
		if l.Src < AllLinks || l.Dst < AllLinks {
			errs = append(errs, fmt.Errorf("%s: negative link endpoint %d->%d", what, l.Src, l.Dst))
		}
	}
	for i, r := range p.Drops {
		what := fmt.Sprintf("drop rule %d", i)
		if r.Rate < 0 || r.Rate > 1 {
			errs = append(errs, fmt.Errorf("%s: rate %v outside [0, 1]", what, r.Rate))
		}
		checkLink(what, r.Link)
		checkWin(what, r.Win)
	}
	for i, r := range p.Degrades {
		what := fmt.Sprintf("degrade rule %d", i)
		if r.BWFactor < 0 || r.BWFactor > 1 {
			errs = append(errs, fmt.Errorf("%s: bandwidth factor %v outside [0, 1]", what, r.BWFactor))
		}
		if r.ExtraLatency < 0 {
			errs = append(errs, fmt.Errorf("%s: negative extra latency %v", what, r.ExtraLatency))
		}
		checkLink(what, r.Link)
		checkWin(what, r.Win)
	}
	for i, r := range p.Stalls {
		what := fmt.Sprintf("stall rule %d", i)
		if r.Node < AllNodes {
			errs = append(errs, fmt.Errorf("%s: negative node %d", what, r.Node))
		}
		checkWin(what, r.Win)
		if !r.Win.Bounded() {
			errs = append(errs, fmt.Errorf("%s: stall window must be finite (an unbounded stall cannot terminate)", what))
		}
	}
	return errors.Join(errs...)
}

// CheckNodes verifies that every concrete node / link endpoint referenced by
// the plan exists on a machine with n nodes (wildcards always pass). Used by
// sage check fault and by runtimes before installing a plan.
func (p *Plan) CheckNodes(n int) error {
	if p == nil {
		return nil
	}
	var errs []error
	checkID := func(what string, id int) {
		if id != AllLinks && id >= n {
			errs = append(errs, fmt.Errorf("%s references node %d, machine has %d node(s)", what, id, n))
		}
	}
	for i, r := range p.Drops {
		what := fmt.Sprintf("drop rule %d", i)
		checkID(what, r.Link.Src)
		checkID(what, r.Link.Dst)
	}
	for i, r := range p.Degrades {
		what := fmt.Sprintf("degrade rule %d", i)
		checkID(what, r.Link.Src)
		checkID(what, r.Link.Dst)
	}
	for i, r := range p.Stalls {
		checkID(fmt.Sprintf("stall rule %d", i), r.Node)
	}
	return errors.Join(errs...)
}

// DropAll builds the canonical sweep plan: drop every message on every link
// with the given rate for the whole run. Used by the experiment fault sweep.
func DropAll(seed int64, rate float64) *Plan {
	if rate <= 0 {
		return &Plan{Seed: seed}
	}
	return &Plan{
		Seed:  seed,
		Drops: []DropRule{{Link: LinkSel{AllLinks, AllLinks}, Rate: rate, Win: Window{0, Forever}}},
	}
}

// RetryPolicy bounds the link-level retry loop the MPI substrate runs when a
// transfer attempt is dropped or the link is down. Backoff grows
// geometrically from Backoff by Multiplier per failed attempt, capped at
// MaxBackoff. After MaxAttempts failures the message is forced through the
// maintenance path (delivered at base link cost), which is what guarantees
// that no fault plan can deadlock a run — only slow it down.
type RetryPolicy struct {
	MaxAttempts int
	Backoff     sim.Duration
	Multiplier  float64
	MaxBackoff  sim.Duration
}

// DefaultRetry is the policy both the SAGE runtime and the hand-coded
// baselines install, so the comparison under faults stays fair.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 24,
		Backoff:     50 * time.Microsecond,
		Multiplier:  2,
		MaxBackoff:  5 * time.Millisecond,
	}
}

// BackoffFor returns the sleep before retry attempt n (n = 1 after the first
// failure).
func (rp RetryPolicy) BackoffFor(n int) sim.Duration {
	d := float64(rp.Backoff)
	for i := 1; i < n; i++ {
		d *= rp.Multiplier
		if d >= float64(rp.MaxBackoff) {
			return rp.MaxBackoff
		}
	}
	if d > float64(rp.MaxBackoff) {
		d = float64(rp.MaxBackoff)
	}
	return sim.Duration(d)
}

// WithDefaults fills zero fields.
func (rp RetryPolicy) WithDefaults() RetryPolicy {
	def := DefaultRetry()
	if rp.MaxAttempts <= 0 {
		rp.MaxAttempts = def.MaxAttempts
	}
	if rp.Backoff <= 0 {
		rp.Backoff = def.Backoff
	}
	if rp.Multiplier < 1 {
		rp.Multiplier = def.Multiplier
	}
	if rp.MaxBackoff <= 0 {
		rp.MaxBackoff = def.MaxBackoff
	}
	return rp
}

// Resilience tunes the SAGE runtime's degraded-operation mode (the
// hand-coded baselines only get the link-level RetryPolicy; everything here
// is runtime-level behaviour layered above it).
type Resilience struct {
	// RecvTimeout re-arms a striped-transfer receive after this long,
	// emitting a recovery span so stalls are visible in traces. Zero selects
	// the default.
	RecvTimeout sim.Duration
	// CreditTimeout bounds one wait for a pipelining credit before the
	// runtime considers emergency overcommit. Zero selects the default.
	CreditTimeout sim.Duration
	// MaxCreditOvercommit is how many emergency buffer slots a transfer may
	// consume beyond BufferSlots while its consumer is unresponsive; the
	// producer keeps working through a consumer stall instead of convoying
	// behind it. Zero selects the default (2).
	MaxCreditOvercommit int
	// Degraded enables re-sequencing of striped transfers around stalled
	// nodes: each iteration, receives and sends whose peer node is inside a
	// stall window are moved to the back of the port's transfer list, so
	// work overlaps the stall instead of blocking at its head.
	Degraded bool
}

// WithDefaults fills zero fields.
func (r Resilience) WithDefaults() Resilience {
	if r.RecvTimeout <= 0 {
		r.RecvTimeout = 2 * time.Millisecond
	}
	if r.CreditTimeout <= 0 {
		r.CreditTimeout = 2 * time.Millisecond
	}
	if r.MaxCreditOvercommit <= 0 {
		r.MaxCreditOvercommit = 2
	}
	return r
}

package sim

import "fmt"

// A hold is how the machine model charges a process for work that occupies
// resources over virtual time while the process itself does nothing: a CPU
// burst time-shared with co-located threads, or one side of a message — pack
// copy, send overhead and the wire on the way out; the arrival, receive
// overhead and unpack copy on the way in. Written as calls in the process,
// each of those is a park of its own, and every slice boundary, grant and
// stall end resumes the process only so that it can schedule the next event.
// Proc.Hold runs a Chain of phases with the process parked once: it schedules
// exactly the events those calls schedule, at the same instants and in the
// same order, but only the last one is a process wake; the others are kernel
// step events (event.step) that run the chain's next step inline in whoever
// is executing the event loop, as a callback would. Chan.RecvHold puts a
// mailbox receive in front of the chain. DESIGN.md §7 has the step table.

// Staller tells a sliced hold when its resource cannot be used at all — the
// machine model binds a node's CPU to the fault injector's stall windows
// with it. It is consulted before every slice, in process context for a
// hold's first slice and in callback context afterwards, so it must keep to
// what callbacks may do: read and update the caller's own state, never block.
type Staller interface {
	// StalledUntil reports whether the resource is unusable at virtual time
	// now and, if so, when it comes back.
	StalledUntil(now Time) (until Time, stalled bool)
}

// Chain is the work of one hold, its phases in order:
//
//   - up to two CPU bursts: Burst[i] of one unit of CPU in slices of at most
//     Quantum, the unit released and re-queued FIFO at every slice boundary,
//     any stall Stall (nil: none) reports waited out before every slice;
//   - the wire, when Egress is set: a unit of Fabric (when set), then one of
//     Egress, each FIFO-queued, both held for Wire.
//
// A burst <= 0 is skipped without an event. Held by Proc.Hold, a chain is
// event-for-event the calls
//
//	for _, d := range c.Burst { c.CPU.HoldSliced(p, d, c.Quantum, c.Stall) }
//	if c.Egress != nil {
//		if c.Fabric != nil { c.Fabric.Acquire(p, 1) }
//		c.Egress.Acquire(p, 1)
//		p.Sleep(c.Wire)
//		c.Egress.Release(1)
//		if c.Fabric != nil { c.Fabric.Release(1) }
//	}
type Chain struct {
	CPU     *Resource
	Quantum Duration
	Stall   Staller
	Burst   [2]Duration
	Fabric  *Resource
	Egress  *Resource
	Wire    Duration
}

// busy reports whether holding c schedules any event at all.
func (c *Chain) busy() bool { return c.Burst[0] > 0 || c.Burst[1] > 0 || c.Egress != nil }

// Chain stages: 0 and 1 are the bursts, then the wire's two acquires and the
// wire itself.
const (
	stageFabric uint8 = 2 + iota
	stageEgress
	stageWire
)

type holdState uint8

const (
	// holdIdle: no step event pending — outside a hold, or in its last
	// phase, whose end is the process's wake.
	holdIdle    holdState = iota
	holdGated             // in a Chan's waiters (RecvHold); a delivery posts the step
	holdStalled           // waiting for the stall-end step event
	holdQueued            // in the stage's resource queue; wakeHead's grant is a step event
	holdSlice             // holding the CPU; the slice's end is a step event
)

// holding is a process's hold state, embedded in Proc: a process is inside
// at most one hold at a time.
type holding struct {
	Chain
	stage uint8
	state holdState
	left  Duration // still to charge of the current burst once the running slice has ended
	gate  gate     // the mailbox a gated hold waits on,
	stash any      // and where its value goes: a *T for that mailbox's T
}

// HoldSliced holds one unit of r for virtual duration d in slices of at most
// quantum, releasing the unit and re-queueing FIFO at every slice boundary;
// before each slice it waits out any stall that stall (nil: none) reports.
// It is the one-burst Chain — event-for-event the loop
//
//	for d > 0 { wait out a stall; q := min(d, quantum); r.Use(p, 1, q); d -= q }
//
// with the process parked once. d <= 0 returns at once without an event.
func (r *Resource) HoldSliced(p *Proc, d, quantum Duration, stall Staller) {
	p.Hold(&Chain{CPU: r, Quantum: quantum, Stall: stall, Burst: [2]Duration{d}})
}

// Hold runs c with p parked once. The process resumes when the last phase
// ends — the last CPU slice, or the wire — and performs that phase's
// releases itself, so whatever it schedules next is numbered after the grants
// those releases hand to waiters, as it would be after the calls c replaces.
// A chain with nothing to do returns at once without an event.
func (p *Proc) Hold(c *Chain) {
	if p.HoldBegin(c) {
		p.Suspend()
		p.HoldResume()
	}
}

// HoldBegin is Hold's first half: it begins c's first phase with work and
// reports whether p parked (false: the chain had nothing to do).
func (p *Proc) HoldBegin(c *Chain) bool {
	p.holdInit(c)
	return p.holdPhase()
}

// holdInit loads c into p's hold state.
func (p *Proc) holdInit(c *Chain) {
	if c.CPU != nil && c.Quantum <= 0 {
		panic(fmt.Sprintf("sim: sliced hold of resource %q with quantum %v", c.CPU.Name(), c.Quantum))
	}
	p.hold.Chain, p.hold.stage = *c, 0
}

// holdPhase begins the first phase at or after the current stage that has
// work, and reports false if none is left.
func (p *Proc) holdPhase() bool {
	h := &p.hold
	for ; h.stage < stageFabric; h.stage++ {
		if d := h.Burst[h.stage]; d > 0 {
			h.left = d
			p.holdNext()
			return true
		}
	}
	if h.Egress == nil {
		return false
	}
	r := h.Fabric
	if r == nil {
		h.stage, r = stageEgress, h.Egress
	}
	p.holdAcquire(r)
	return true
}

// holdNext begins the current burst's next slice: the stall check, then the
// acquire.
func (p *Proc) holdNext() {
	h := &p.hold
	if h.Stall != nil {
		k := h.CPU.k
		if until, ok := h.Stall.StalledUntil(k.now); ok {
			if until < k.now {
				until = k.now
			}
			h.state = holdStalled
			k.wakeAs(p, until, true)
			return
		}
	}
	p.holdAcquire(h.CPU)
}

// res is the resource the current stage acquires — what a queued hold waits for.
func (h *holding) res() *Resource {
	switch h.stage {
	case stageFabric:
		return h.Fabric
	case stageEgress:
		return h.Egress
	}
	return h.CPU
}

// holdAcquire takes a unit of r, the stage's resource, if one is free and
// nobody is queued (FIFO fairness, as in Acquire), and queues otherwise —
// which is where a deadlock report will find the process.
func (p *Proc) holdAcquire(r *Resource) {
	h := &p.hold
	if r.inUse+1 > r.capacity || len(r.waiters) > 0 {
		p.since, p.depth = r.k.now, len(r.waiters)
		w := &p.rw
		w.p, w.n, w.woken, w.step = p, 1, false, true
		r.waiters = append(r.waiters, w)
		h.state = holdQueued
		p.blockedVerb, p.blockedOn = "acquire", r
		return
	}
	p.holdTake(r)
}

// holdTake takes the unit and moves on: a fabric unit to the egress acquire,
// an egress unit onto the wire — whose end is the process's one wake — and a
// CPU unit into a slice, whose end is a step event if more of the chain
// remains and the process's wake if not.
func (p *Proc) holdTake(r *Resource) {
	h := &p.hold
	r.take(1)
	k := r.k
	if h.stage < stageFabric {
		q := min(h.left, h.Quantum)
		h.left -= q
		more := h.left > 0 || h.stage == 0 && h.Burst[1] > 0 || h.Egress != nil
		h.state = holdIdle
		if more {
			h.state = holdSlice
		}
		k.wakeAs(p, k.now.Add(q), more)
		return
	}
	if h.stage == stageFabric {
		h.stage = stageEgress
		p.holdAcquire(h.Egress)
		return
	}
	h.stage, h.state = stageWire, holdIdle
	k.wake(p, k.now.Add(max(h.Wire, 0)))
}

// holdStep runs when one of the hold's step events fires, in whoever is
// executing the event loop.
func (p *Proc) holdStep() {
	h := &p.hold
	switch h.state {
	case holdSlice:
		h.CPU.Release(1)
		if h.left > 0 {
			p.holdNext()
			return
		}
		h.stage++
		p.holdPhase()
	case holdGated:
		h.gate.gateStep(p)
	case holdStalled:
		// The stall is over; the check is not repeated before this slice.
		p.holdAcquire(h.CPU)
	case holdQueued:
		r := h.res()
		if !r.granted(&p.rw) {
			return
		}
		if tr := r.k.tracer; tr != nil && r.k.now > p.since {
			tr.Wait(p.pid, p.Name(), "acquire", r.Name(), p.since, r.k.now, p.depth)
		}
		p.holdTake(r)
	default:
		panic(fmt.Sprintf("sim: sliced-hold step for process %q in state %d", p.Name(), h.state))
	}
}

// HoldResume is Hold's half after its wake, which is always the chain's
// last event — the process's side of it: it releases what the last phase
// held, egress then fabric after the wire, the CPU after a burst.
func (p *Proc) HoldResume() {
	h := &p.hold
	if h.stage == stageWire {
		h.Egress.Release(1)
		if h.Fabric != nil {
			h.Fabric.Release(1)
		}
		return
	}
	h.CPU.Release(1)
}

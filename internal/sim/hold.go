package sim

import "fmt"

// A sliced hold is how a time-shared processor is modelled: a process holds
// one unit of a Resource for a duration d in slices of at most quantum,
// giving the unit up at every slice boundary and re-queueing FIFO behind
// whoever waits, so co-located holds round-robin. Written as a loop in the
// process — for d > 0 { stall check; Use(p, 1, min(d, quantum)) } — every
// slice boundary, every grant and every stall end resumes the process just
// so it can schedule the next event. HoldSliced schedules exactly the events
// that loop schedules, at the same instants and in the same order, but only
// the last one is a process wake: the others are kernel step events
// (event.step) that run the hold's next step inline in whoever is executing
// the event loop, as a callback would. DESIGN.md §7 has the step table.

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

type holdState uint8

const (
	// holdIdle: no step event pending — outside a hold, or in its last
	// slice, whose end is the process's wake.
	holdIdle    holdState = iota
	holdStalled           // waiting for the stall-end step event
	holdQueued            // in r.waiters; wakeHead's grant is a step event
	holdSlice             // holding the unit; the slice's end is a step event
)

// slicedHold is a process's sliced-hold state, embedded in Proc.
type slicedHold struct {
	r       *Resource
	stall   Staller  // nil: never stalled
	left    Duration // still to charge once the running slice has ended
	quantum Duration
	start   Time // when the current wait in r's queue began,
	depth   int  // and how many were queued ahead (for the Wait hook)
	state   holdState
}

// HoldSliced holds one unit of r for virtual duration d in slices of at most
// quantum, releasing the unit and re-queueing FIFO at every slice boundary;
// before each slice it waits out any stall that stall (nil: none) reports.
// It is event-for-event the loop
//
//	for d > 0 { wait out a stall; q := min(d, quantum); r.Use(p, 1, q); d -= q }
//
// with the process parked once: it resumes when the last slice ends and
// performs that slice's Release itself, so whatever it schedules next is
// numbered after the grant the release hands a waiter. d <= 0 returns at
// once without an event.
func (r *Resource) HoldSliced(p *Proc, d, quantum Duration, stall Staller) {
	if quantum <= 0 {
		panic(fmt.Sprintf("sim: sliced hold of resource %q with quantum %v", r.name, quantum))
	}
	if d <= 0 {
		return
	}
	p.hold = slicedHold{r: r, stall: stall, left: d, quantum: quantum}
	p.holdNext()
	// Only the queued state can outlive the event queue (every other state
	// has an event pending), so this is what a deadlock report should say
	// for the whole hold.
	p.yield("acquire", r)
	r.Release(1)
}

// holdNext begins the hold's next slice: the stall check, then the acquire.
func (p *Proc) holdNext() {
	h := &p.hold
	if h.stall != nil {
		s := h.r.sh
		if until, ok := h.stall.StalledUntil(s.now); ok {
			if until < s.now {
				until = s.now
			}
			h.state = holdStalled
			s.wakeAs(p, until, true)
			return
		}
	}
	p.holdAcquire()
}

// holdAcquire takes the unit if it is free and nobody is queued (FIFO
// fairness, as in Acquire), and queues otherwise.
func (p *Proc) holdAcquire() {
	h := &p.hold
	r := h.r
	if r.inUse+1 > r.capacity || len(r.waiters) > 0 {
		h.start, h.depth = r.sh.now, len(r.waiters)
		w := &p.rw
		w.p, w.n, w.woken, w.step = p, 1, false, true
		r.waiters = append(r.waiters, w)
		h.state = holdQueued
		return
	}
	p.holdTake()
}

// holdTake takes the unit and schedules the end of the slice: a step event
// if more of the hold remains, the process's one wake if not.
func (p *Proc) holdTake() {
	h := &p.hold
	h.r.take(1)
	q := min(h.left, h.quantum)
	h.left -= q
	more := h.left > 0
	h.state = holdIdle
	if more {
		h.state = holdSlice
	}
	s := h.r.sh
	s.wakeAs(p, s.now.Add(q), more)
}

// holdStep runs when one of the hold's step events fires, in whoever is
// executing the event loop.
func (p *Proc) holdStep() {
	h := &p.hold
	r := h.r
	switch h.state {
	case holdStalled:
		// The stall is over; the check is not repeated before this slice.
		p.holdAcquire()
	case holdQueued:
		if !r.granted(&p.rw) {
			return
		}
		if tr := r.sh.tracer; tr != nil && r.sh.now > h.start {
			tr.Wait(p.pid, p.name, "acquire", r.name, h.start, r.sh.now, h.depth)
		}
		p.holdTake()
	case holdSlice:
		r.Release(1)
		p.holdNext()
	default:
		panic(fmt.Sprintf("sim: sliced-hold step for process %q in state %d", p.name, h.state))
	}
}

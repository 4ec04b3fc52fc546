package sim

import "fmt"

// Chan is an unbounded, timestamped mailbox connecting simulated processes.
//
// Values may be delivered immediately (Send) or at a future virtual time
// (SendAt), which is how the fabric models in-flight messages: the sender
// computes an arrival time and the value only becomes visible to receivers
// once the clock reaches it. Receivers block in virtual time until a value is
// available. Delivery order is (arrival time, send sequence), so simultaneous
// arrivals are received in the order they were sent.
type Chan[T any] struct {
	k       *Kernel
	name    string
	namer   func() string // overrides name when set (SetNamer)
	ready   []T           // values whose arrival time has passed
	waiters []*Proc       // receivers blocked on an empty mailbox, FIFO
}

// NewChan creates a mailbox owned by kernel k. The name appears in deadlock
// reports.
func NewChan[T any](k *Kernel, name string) *Chan[T] {
	return &Chan[T]{k: k, name: name}
}

// Len reports the number of values currently available to receivers.
func (c *Chan[T]) Len() int { return len(c.ready) }

// Name returns the mailbox name (used by deadlock reports and trace
// collectors): the one given at creation, or whatever SetNamer's function
// returns.
func (c *Chan[T]) Name() string {
	if c.namer != nil {
		return c.namer()
	}
	return c.name
}

// SetNamer makes the mailbox ask f for its name. Only the deadlock report
// and an installed tracer ever read a name, so owners that pool channels
// across waits (mpi's receive engine) format the per-wait name in f, when
// asked, instead of on every wait.
func (c *Chan[T]) SetNamer(f func() string) { c.namer = f }

// Send delivers v at the current virtual time without blocking the sender.
// A receiver parked in RecvHold takes it and runs its hold in the same park.
func (c *Chan[T]) Send(v T) { c.deliver(v, true) }

// Interrupt delivers v like Send, but a receiver parked in RecvHold wakes
// with it and returns without holding anything: the sender has told it the
// wait is over (mpi: the receive timed out) and knows it did.
func (c *Chan[T]) Interrupt(v T) { c.deliver(v, false) }

// SendAt schedules v to arrive at virtual time at (clamped to now). The
// sender does not block; use Resource to model the sender holding a link.
func (c *Chan[T]) SendAt(at Time, v T) {
	if at <= c.k.now {
		c.Send(v)
		return
	}
	c.k.schedule(at, func() { c.Send(v) })
}

// SendAfter schedules v to arrive after virtual duration d.
func (c *Chan[T]) SendAfter(d Duration, v T) { c.SendAt(c.k.now.Add(d), v) }

// deliver appends v and wakes the head receiver; open says whether a gated
// receiver's wake is its hold's step (Send) or a plain wake (Interrupt).
func (c *Chan[T]) deliver(v T, open bool) {
	c.ready = append(c.ready, v)
	if tr := c.k.tracer; tr != nil {
		tr.ChanOp("send", c.Name(), len(c.ready), c.k.now)
	}
	if len(c.waiters) > 0 {
		p := c.waiters[0]
		// Shift rather than reslice so the backing array's capacity is
		// reused by later waits.
		copy(c.waiters, c.waiters[1:])
		c.waiters = c.waiters[:len(c.waiters)-1]
		// Wake at the current instant; the receiver will take the value
		// when dispatched. A gated receiver with a chain to hold takes it in
		// its hold's step instead.
		h := &p.hold
		c.k.wakeAs(p, c.k.now, open && h.state == holdGated && h.busy())
	}
}

// Recv blocks the calling process until a value is available and returns it.
func (c *Chan[T]) Recv(p *Proc) T {
	if v, parked := c.RecvBegin(p); !parked {
		return v
	}
	for {
		p.Suspend()
		if v, ok := c.RecvResume(p); ok {
			return v
		}
	}
}

// RecvBegin is Recv's first half: it takes a value if one is available,
// and otherwise queues p as a receiver and reports that it parked.
func (c *Chan[T]) RecvBegin(p *Proc) (v T, parked bool) {
	p.since = c.k.now
	if len(c.ready) > 0 {
		return c.receive(p, p.since), false
	}
	c.wait(p)
	return v, true
}

// RecvResume is Recv's half after a wake: it takes the value, or — the
// wake was spurious, another receiver took it first — queues p again and
// reports false.
func (c *Chan[T]) RecvResume(p *Proc) (v T, ok bool) {
	if len(c.ready) == 0 {
		c.wait(p)
		return v, false
	}
	return c.receive(p, p.since), true
}

// wait queues p as a receiver, which is where a deadlock report finds it.
func (c *Chan[T]) wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.blockedVerb, p.blockedOn = "recv", c
}

// receive hands the head value to p, which has waited for it since start,
// with the hooks a blocked Recv fires when it resumes.
func (c *Chan[T]) receive(p *Proc, start Time) T {
	if tr := c.k.tracer; tr != nil && c.k.now > start {
		tr.Wait(p.pid, p.Name(), "recv", c.Name(), start, c.k.now, 0)
	}
	v := c.ready[0]
	// Shift rather than reslice forever to keep memory bounded.
	copy(c.ready, c.ready[1:])
	c.ready = c.ready[:len(c.ready)-1]
	if tr := c.k.tracer; tr != nil {
		tr.ChanOp("recv", c.Name(), len(c.ready), c.k.now)
	}
	return v
}

// gate is a mailbox as a gated hold sees it: the step a delivery posts for
// a receiver parked in RecvHold runs gateStep.
type gate interface{ gateStep(p *Proc) }

// RecvHold receives a value into *dst and then holds then (Proc.Hold), with
// p parked once for both: it is event-for-event
//
//	*dst = c.Recv(p); p.Hold(then)
//
// When p has to wait, the delivery (Send) posts a kernel step instead of
// waking it, and that step runs the receive's tail — the Wait and ChanOp
// hooks, the value into *dst — and the chain's first phase inline; only the
// chain's last event wakes p. A value delivered by Interrupt, or any value
// when then has nothing to hold, wakes p plainly instead: it takes the value
// and returns without holding anything. dst must stay valid until RecvHold
// returns.
func (c *Chan[T]) RecvHold(p *Proc, dst *T, then *Chain) {
	if !c.RecvHoldBegin(p, dst, then) {
		return
	}
	for {
		p.Suspend()
		if c.RecvHoldResume(p, dst) {
			return
		}
	}
}

// RecvHoldBegin is RecvHold's first half. With a value ready it takes it
// and begins the hold (Proc.HoldBegin); otherwise p waits at the gate. It
// reports whether p parked.
func (c *Chan[T]) RecvHoldBegin(p *Proc, dst *T, then *Chain) bool {
	if len(c.ready) > 0 {
		*dst = c.receive(p, c.k.now)
		return p.HoldBegin(then)
	}
	p.holdInit(then)
	h := &p.hold
	h.state, h.gate, h.stash, p.since = holdGated, c, dst, c.k.now
	c.wait(p)
	return true
}

// RecvHoldResume is RecvHold's half after a wake, and reports whether the
// receive is over. The wake is the chain's last event if the delivery's step
// ran it (or the value was there at once): release what the last phase
// held. Otherwise the wake was plain — take the value, holding nothing — or
// spurious, and p waits on at the gate.
func (c *Chan[T]) RecvHoldResume(p *Proc, dst *T) bool {
	h := &p.hold
	if h.state != holdGated {
		p.HoldResume()
		return true
	}
	if len(c.ready) == 0 {
		c.wait(p)
		return false
	}
	h.state = holdIdle
	*dst = c.receive(p, p.since)
	return true
}

// gateStep is a gated receiver's delivery step: the receive's tail, then
// the chain. If the value is gone — another receiver took it first — the
// wake was spurious and p waits on.
func (c *Chan[T]) gateStep(p *Proc) {
	if len(c.ready) == 0 {
		c.wait(p)
		return
	}
	h := &p.hold
	h.state = holdIdle
	*h.stash.(*T) = c.receive(p, p.since)
	p.holdPhase()
}

// TryRecv returns a value without blocking if one is available.
func (c *Chan[T]) TryRecv() (T, bool) {
	var zero T
	if len(c.ready) == 0 {
		return zero, false
	}
	v := c.ready[0]
	copy(c.ready, c.ready[1:])
	c.ready = c.ready[:len(c.ready)-1]
	return v, true
}

// Resource models a counted resource (a link, a bus, a DMA engine) that
// processes hold for spans of virtual time. Waiters are served FIFO, which
// models fair arbitration and keeps runs deterministic.
type Resource struct {
	k        *Kernel
	name     string
	namer    Namer // asked for name on first use when set (Init)
	capacity int
	inUse    int
	waiters  []*resWaiter
}

// resWaiter is a resource-queue entry. Each Proc embeds one (a process
// waits on at most one Resource at a time), so queuing allocates nothing.
type resWaiter struct {
	p *Proc
	n int
	// woken guards against double-wakes: two releases at the same instant
	// must not schedule two resumes for the same head waiter (the second
	// would yank the process out of a later, unrelated block).
	woken bool
	// step marks a sliced hold's entry (HoldSliced): its grant is a kernel
	// step event, not a process wake. Both kinds share the one FIFO queue.
	step bool
}

// NewResource creates a resource with the given capacity (must be >= 1),
// owned by kernel k.
func NewResource(k *Kernel, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{k: k, name: name, capacity: capacity}
}

// Init makes r — storage its owner allocates, such as one field of an
// element of a per-machine slab — a resource of kernel k with the given
// capacity, named by namer the first time a tracer or a deadlock report
// reads its name: a resource that nobody names costs no string.
func (r *Resource) Init(k *Kernel, capacity int, namer Namer) {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	*r = Resource{k: k, namer: namer, capacity: capacity}
}

// Capacity returns the total capacity.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the currently held units.
func (r *Resource) InUse() int { return r.inUse }

// Name returns the resource name given at creation, or the one its namer
// gives (asked once).
func (r *Resource) Name() string {
	if r.name == "" && r.namer != nil {
		r.name = r.namer.Name()
	}
	return r.name
}

// QueueDepth reports the number of processes waiting to acquire.
func (r *Resource) QueueDepth() int { return len(r.waiters) }

// Acquire blocks the process until n units are available, then takes them.
func (r *Resource) Acquire(p *Proc, n int) {
	if !r.AcquireBegin(p, n) {
		return
	}
	for {
		p.Suspend()
		if r.AcquireResume(p) {
			return
		}
	}
}

// AcquireBegin is Acquire's first half: it takes the units if they are
// free and nobody is queued, and otherwise queues p and reports that it
// parked.
func (r *Resource) AcquireBegin(p *Proc, n int) bool {
	if n < 1 || n > r.capacity {
		panic(fmt.Sprintf("sim: acquire %d of resource %q with capacity %d", n, r.Name(), r.capacity))
	}
	// FIFO fairness: if others are already queued, go behind them even if
	// capacity is momentarily available.
	if r.inUse+n > r.capacity || len(r.waiters) > 0 {
		p.depth, p.since = len(r.waiters), r.k.now
		w := &p.rw
		w.p, w.n, w.woken, w.step = p, n, false, false
		r.waiters = append(r.waiters, w)
		p.blockedVerb, p.blockedOn = "acquire", r
		return true
	}
	r.take(n)
	return false
}

// AcquireResume is Acquire's half after a wake: it takes the units if the
// wake was the grant, and otherwise — a spurious wake — p waits on.
func (r *Resource) AcquireResume(p *Proc) bool {
	if !r.granted(&p.rw) {
		p.blockedVerb, p.blockedOn = "acquire", r
		return false
	}
	if tr := r.k.tracer; tr != nil && r.k.now > p.since {
		tr.Wait(p.pid, p.Name(), "acquire", r.Name(), p.since, r.k.now, p.depth)
	}
	r.take(p.rw.n)
	return true
}

// granted is what queued waiter w asks when it is woken: may it take its
// units now — it heads the queue and they are free? If so it leaves the
// queue; if not the wake was spurious, and a future release may wake it
// again.
func (r *Resource) granted(w *resWaiter) bool {
	if len(r.waiters) == 0 || r.waiters[0] != w || r.inUse+w.n > r.capacity {
		w.woken = false
		return false
	}
	copy(r.waiters, r.waiters[1:])
	r.waiters = r.waiters[:len(r.waiters)-1]
	return true
}

// take marks n units held and lets leftover capacity reach the next waiter.
func (r *Resource) take(n int) {
	r.inUse += n
	if tr := r.k.tracer; tr != nil {
		tr.ResourceOp("acquire", r.Name(), r.inUse, r.capacity, len(r.waiters), r.k.now)
	}
	r.wakeHead()
}

// Release returns n units and wakes the head waiter if it can now proceed.
func (r *Resource) Release(n int) {
	r.inUse -= n
	if r.inUse < 0 {
		panic(fmt.Sprintf("sim: resource %q over-released", r.Name()))
	}
	if tr := r.k.tracer; tr != nil {
		tr.ResourceOp("release", r.Name(), r.inUse, r.capacity, len(r.waiters), r.k.now)
	}
	r.wakeHead()
}

func (r *Resource) wakeHead() {
	if len(r.waiters) == 0 {
		return
	}
	if w := r.waiters[0]; !w.woken && r.inUse+w.n <= r.capacity {
		w.woken = true
		r.k.wakeAs(w.p, r.k.now, w.step)
	}
}

// Use acquires n units, holds them for virtual duration d, then releases.
// This is the standard idiom for modelling occupancy of a link or bus.
func (r *Resource) Use(p *Proc, n int, d Duration) {
	r.Acquire(p, n)
	p.Sleep(d)
	r.Release(n)
}

// Barrier synchronises a fixed set of processes: each process calls Wait and
// blocks until all n have arrived, at which point every process resumes at
// the same virtual instant. The barrier is reusable (generation counted).
type Barrier struct {
	k       *Kernel
	name    string
	n       int
	arrived int
	gen     int
	waiting []*Proc
}

// NewBarrier creates a barrier for n participants.
func NewBarrier(k *Kernel, name string, n int) *Barrier {
	if n < 1 {
		panic("sim: barrier size must be >= 1")
	}
	return &Barrier{k: k, name: name, n: n}
}

// Name returns the barrier name given at creation.
func (b *Barrier) Name() string { return b.name }

// Wait blocks until all participants of the current generation have arrived.
func (b *Barrier) Wait(p *Proc) {
	if !b.WaitBegin(p) {
		return
	}
	for {
		p.Suspend()
		if b.WaitResume(p) {
			return
		}
	}
}

// WaitBegin is Wait's first half: p arrives, and the last arrival releases
// everyone and goes on; any other parks and WaitBegin reports true.
func (b *Barrier) WaitBegin(p *Proc) bool {
	k := b.k
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		for _, w := range b.waiting {
			k.wake(w, k.now)
		}
		b.waiting = b.waiting[:0]
		return false
	}
	p.gen, p.depth, p.since = b.gen, len(b.waiting), k.now
	b.waiting = append(b.waiting, p)
	p.blockedVerb, p.blockedOn = "barrier", b
	return true
}

// WaitResume is Wait's half after a wake: it reports whether the generation
// p waited out is over, and otherwise p waits on.
func (b *Barrier) WaitResume(p *Proc) bool {
	k := b.k
	if b.gen == p.gen {
		p.blockedVerb, p.blockedOn = "barrier", b
		return false
	}
	if tr := k.tracer; tr != nil && k.now > p.since {
		tr.Wait(p.pid, p.Name(), "barrier", b.name, p.since, k.now, p.depth)
	}
	return true
}

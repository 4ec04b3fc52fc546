// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock and executes logical processes, each of
// which runs as a coroutine (iter.Pull, Spawn) or as a stackless state
// machine (SpawnStep), so that exactly one process executes at a time. All
// timing reported by the SAGE reproduction
// (experiments, benchmarks, the visualizer timeline) is virtual time produced
// by this kernel, which makes every experiment bit-reproducible on any host.
//
// Processes interact with the kernel through the Proc handle passed to their
// body: they sleep for virtual durations, exchange values over Chan mailboxes,
// and contend for Resource capacity. Events that tie at the same virtual time
// are ordered by scheduling sequence number, so runs are fully deterministic.
//
// # Fast path
//
// The hot path is allocation- and switch-free wherever the event order
// allows (see DESIGN.md §7 for the full story):
//
//   - Event nodes are pooled on an intrusive free list; steady-state
//     scheduling performs no heap allocation.
//   - Events due at the current instant ride a FIFO lane; future events sit
//     in a monotone radix queue, filed by the highest bit in which their
//     time differs from the clock — no comparison on a push, and the queue
//     hands the lane a whole instant, in seq order, when the lane empties.
//   - A process switch is a coroutine switch, never a trip through the Go
//     scheduler: the process that blocks runs the event loop itself, names
//     the next process and yields to the kernel's driver, which resumes it.
//     A process woken at the instant it blocked continues without any switch
//     at all. Dispatch order is identical to a central loop's because every
//     caller of the loop pops the same queue.
//   - A CPU burst parks its process once. Resource.HoldSliced time-slices a
//     hold in the kernel: every slice boundary, round-robin grant and stall
//     end is a step event that runs inline in whoever executes the loop, as
//     a callback does; only the end of the last slice wakes the process.
//   - A message side parks once. Proc.Hold runs a Chain — up to two CPU
//     bursts, then the wire's fabric and egress units held for the
//     serialisation time — and Chan.RecvHold puts a receive in front of one:
//     the delivery, every phase boundary and every grant are step events;
//     only the chain's last event wakes the process (HoldSliced is the
//     one-burst chain). Kernel.Switches counts the process switches a run
//     still paid.
//   - A process need not be a coroutine at all. Every blocking operation is
//     two halves — Begin schedules what the call schedules before it parks
//     and reports whether it parked, Resume does what the call does after
//     its wake and reports whether it is done — and its blocking form is
//     the wrapper "if Begin { for { Suspend; if Resume { break } } }". A
//     stackless process (SpawnStep) is a step function over those halves:
//     its start and wakes run the step inline, like a hold step, so its
//     events are never switches, and it owns no goroutine. The SAGE runtime
//     runs every function thread so.
//
// Event callbacks and hold steps run in callback context: on the stack of
// whatever is executing the loop, with the clock frozen. They may schedule
// events, send on channels, release resources and call Stop; they may not
// block (Sleep, Recv, Acquire, Use, Hold, HoldSliced, RecvHold,
// Barrier.Wait), having no process to park. A panic in callback context stops the kernel and becomes
// Run's *PanicError with Callback set — never the host program's crash, and
// never blamed on the process whose stack it happened to unwind.
//
// # Trace hook contract
//
// A Tracer installed with Kernel.SetTracer observes the kernel without
// perturbing it. The contract its implementations can rely on — and must
// honour — is:
//
//   - Hooks are invoked synchronously from whatever is executing the
//     simulation (the kernel's driver or the process coroutine it resumed;
//     never both at once — possibly on behalf of another process, when the
//     event is a sliced-hold step or a stackless process's step), so
//     implementations need no locking as long as each Tracer serves a
//     single kernel.
//   - Virtual time is frozen for the duration of a hook; the timestamps
//     passed in equal Kernel.Now() at the instant of the call, and hooks may
//     call the kernel's read-only accessors (Now, Pending, LiveProcs,
//     Dispatched, Switches) freely. Instrumentation must use these accessors rather
//     than reach into kernel internals.
//   - Hooks must not call back into scheduling operations: no Spawn, After,
//     Stop, Shutdown, channel or resource operations. Tracing observes; it
//     never advances the simulation, so enabling it cannot change any
//     simulated result.
//   - Waits are reported when the wait ends, with both endpoints of the
//     blocked interval: for a blocked process that is its resume; for a
//     sliced hold it is the grant event, which resumes nobody — the hook
//     then fires in callback context, at the same dispatch and with the
//     same arguments as if the process had woken to take the unit. Sleeps
//     are not reported: they are scheduled work, not contention.
package sim

import (
	"fmt"
	"iter"
	"sort"
	"time"
)

// Time is an absolute virtual timestamp in nanoseconds since simulation start.
type Time int64

// Duration is a virtual time span. It aliases time.Duration so the standard
// unit constants (time.Microsecond etc.) can be used when building models.
type Duration = time.Duration

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the timestamp using time.Duration notation.
func (t Time) String() string { return Duration(t).String() }

// Tracer receives kernel-level trace callbacks. See the package
// documentation ("Trace hook contract") for the rules hooks run under.
// internal/trace.Collector is the standard implementation.
type Tracer interface {
	// ProcStart fires when a process's body is about to begin executing.
	ProcStart(pid int, name string, at Time)
	// ProcEnd fires when a process finishes (or is torn down by Shutdown).
	ProcEnd(pid int, name string, at Time)
	// Wait fires when a process resumes after blocking for a non-zero
	// virtual duration. kind is "recv" (channel), "acquire" (resource) or
	// "barrier"; object is the blocking primitive's name; queueDepth is the
	// number of parties already queued when the wait began (0 where not
	// applicable).
	Wait(pid int, proc, kind, object string, from, to Time, queueDepth int)
	// ChanOp fires on every mailbox delivery ("send") and receipt ("recv")
	// with the post-operation queue length. High frequency; collectors
	// typically ignore it unless verbose.
	ChanOp(op, name string, qlen int, at Time)
	// ResourceOp fires on every resource "acquire" and "release" with the
	// post-operation units in use and waiter-queue depth. High frequency;
	// collectors typically ignore it unless verbose.
	ResourceOp(op, name string, inUse, capacity, queued int, at Time)
}

// event is a scheduled entry in the kernel's queue: a callback (fn), a
// process wake/start (proc), or — proc with step set — a kernel step of that
// process's sliced hold, which runs inline like a callback (hold.go). Nodes
// are recycled through the kernel's intrusive free list; next links both the
// free list and the queue's lane and buckets.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	proc *Proc
	next *event
	step bool
}

// Kernel is a deterministic discrete-event simulator: one event queue, one
// free list of event nodes, one clock and one event loop (advance, drive).
//
// A kernel and everything attached to it (processes, channels, resources)
// belong to one goroutine: the one that calls Run. Distinct kernels share no
// state, so independent simulations may run concurrently, one kernel per
// goroutine — this is what the parallel experiment engine does.
//
// Internally the kernel's state is mutated only by its driver (drive) or by
// the one process coroutine the driver has resumed; control moves between
// them by coroutine switch, so all accesses are ordered.
//
// The zero value is not usable; create kernels with NewKernel.
type Kernel struct {
	now   Time
	queue eventQueue // its last is now: it advances only as events pop
	free  *event     // recycled event nodes, linked through next
	seq   uint64     // the last sequence number assigned

	handoff    *Proc // process advance chose to run next; drive resumes it
	stopped    bool
	dead       bool // set by Shutdown: kernel will never dispatch again
	dispatched uint64
	switches   uint64 // dispatches that resumed a process other than the loop's runner
	// inCallback and stepOf mark callback context for panic attribution:
	// inCallback is set while an event callback runs, stepOf names the
	// hold's owner while a sliced-hold step runs. inBody names the stackless
	// process whose body — its step function — is running, which is process
	// context, not callback context. A panic skips the clearing store, so
	// whichever recover catches it (Proc.main's when a process runs the loop,
	// drive's otherwise) can tell the callback or the stackless body from the
	// bystander.
	inCallback bool
	stepOf     *Proc
	inBody     *Proc

	failure error   // first process-body panic, reported by Run
	procs   []*Proc // live processes in spawn (= PID) order
	nextPID int
	tracef  func(format string, args ...any)
	tracer  Tracer
	// Cancellation poll (SetCancel): every cancelEvery dispatched events the
	// loop polls cancelCh; a closed channel stops the kernel like Stop.
	cancelCh    <-chan struct{}
	cancelEvery uint64
	cancelLeft  uint64
	canceled    bool
}

// NewKernel returns an empty kernel with the clock at zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// SetTrace installs a debug trace function (nil disables tracing).
func (k *Kernel) SetTrace(f func(format string, args ...any)) { k.tracef = f }

// SetTracer installs a structured trace hook (nil disables structured
// tracing). See the package documentation for the hook contract. Install the
// tracer before Run; one tracer serves one kernel.
func (k *Kernel) SetTracer(tr Tracer) { k.tracer = tr }

// Dispatched reports the number of events the kernel has executed. It is one
// of the read-only accessors trace hooks may call (see the trace hook
// contract).
func (k *Kernel) Dispatched() uint64 { return k.dispatched }

// Scheduled reports how many events the kernel has scheduled: the last
// sequence number it assigned. Two runs that schedule the same events in the
// same order end at the same number.
func (k *Kernel) Scheduled() uint64 { return k.seq }

// Switches reports how many dispatched events resumed a process other than
// the one executing the event loop — the coroutine round trips the run paid,
// as opposed to the events it executed inline (callbacks, sliced-hold steps,
// a process's own wake, every start and wake of a stackless process). It is
// a host-side diagnostic: a run of stackless processes alone pays none.
func (k *Kernel) Switches() uint64 { return k.switches }

func (k *Kernel) trace(format string, args ...any) {
	if k.tracef != nil {
		k.tracef(format, args...)
	}
}

// alloc takes an event node off the free list (or allocates one) and stamps
// it with the next sequence number.
func (k *Kernel) alloc(at Time) *event {
	ev := k.free
	if ev != nil {
		k.free = ev.next
		ev.next = nil
	} else {
		ev = &event{}
	}
	k.seq++
	ev.seq = k.seq
	ev.at = at
	return ev
}

// release returns a fired event node to the free list. Callers must have
// copied fn/proc out first.
func (k *Kernel) release(ev *event) {
	ev.fn = nil
	ev.proc = nil
	ev.step = false
	ev.next = k.free
	k.free = ev
}

// schedule enqueues fn to run at time at. It panics if at precedes the clock,
// since the kernel can never travel backwards.
func (k *Kernel) schedule(at Time, fn func()) {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, k.now))
	}
	ev := k.alloc(at)
	ev.fn = fn
	k.queue.push(ev)
}

// After schedules fn to run after virtual duration d. It may be called from
// process context or from event callbacks.
func (k *Kernel) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	k.schedule(k.now.Add(d), fn)
}

// Proc is the handle through which a logical process interacts with the
// kernel. A Proc is only valid inside the body function it was created with.
type Proc struct {
	k    *Kernel
	pid  int
	name string
	// namer names a stackless process the first time Name is asked
	// (SpawnStep).
	namer Namer
	body  func(p *Proc)
	// next/stop are the process's coroutine handle, nil until its start
	// event fires: next resumes it until it parks or ends, stop makes its
	// park return false. coPark is the coroutine's way back to whoever
	// resumed it.
	next   func() (struct{}, bool)
	stop   func()
	coPark func(struct{}) bool
	// run is a stackless process's body (SpawnStep), nil for a coroutine:
	// called inline at the process's start event and at every wake; false
	// ends the process. started records that the start event fired.
	run     func(p *Proc) bool
	started bool
	done    bool
	// blockedVerb/blockedOn describe what the process is waiting for ("recv"
	// + the channel, "acquire" + the resource, ...); blocking never formats
	// or even fetches a name. Only the deadlock report produced by Run
	// renders them.
	blockedVerb string
	blockedOn   Namer
	// since, depth and gen carry a wait from its Begin to its Resume: when it
	// began, how many were queued ahead (for the Wait hook) and, at a
	// barrier, the generation it waits out. A process waits on one thing at
	// a time, holds included.
	since Time
	depth int
	gen   int
	// rw is the process's reusable resource-wait queue entry; a process
	// waits on at most one Resource at a time, so one embedded node
	// replaces a per-wait allocation.
	rw resWaiter
	// hold is the process's hold state (Proc.Hold, Chan.RecvHold), embedded
	// for the same reason: a process is inside at most one hold at a time.
	hold holding
}

// Namer is anything with a name: a blocking primitive (Chan, Resource,
// Barrier) as the deadlock report sees it, or what names a resource or a
// stackless process on demand (Resource.Init, Kernel.SpawnStep).
type Namer interface{ Name() string }

// killSentinel is the panic value that unwinds a process Shutdown stopped
// from its yield point through the user body; Proc.main recovers it.
type killSentinel struct{}

// Name returns the process name given at Spawn time, or the one its namer
// gives (asked once).
func (p *Proc) Name() string {
	if p.name == "" && p.namer != nil {
		p.name = p.namer.Name()
	}
	return p.name
}

// PID returns the unique process id.
func (p *Proc) PID() int { return p.pid }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now reports current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// blockedReason renders the deadlock-report description of what the process
// is waiting on.
func (p *Proc) blockedReason() string {
	if p.blockedOn != nil {
		if name := p.blockedOn.Name(); name != "" {
			return p.blockedVerb + " " + name
		}
	}
	return p.blockedVerb
}

// Spawn creates a process executing body, scheduled to start at the current
// virtual time. Spawn may be called before Run or from inside a running
// process or event callback.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{k: k, pid: k.nextPID, name: name, body: body}
	k.nextPID++
	k.procs = append(k.procs, p)
	ev := k.alloc(k.now)
	ev.proc = p
	k.queue.push(ev)
	return p
}

// SpawnStep creates a stackless process, scheduled to start at the current
// virtual time, like Spawn. Its body is step, a state machine rather than a
// coroutine: the start event and every wake call step inline, in whoever
// executes the event loop, and step runs until the process would block.
// There it calls the blocking operation's Begin half and returns true if
// that parked; the wake calls step again, which calls the Resume half and
// goes on. False ends the process at that dispatch, as a body's return
// does. No event of a stackless process is a switch, and it owns no
// goroutine. step may call only halves (and non-blocking operations): a
// blocking form would have to park a stack it does not have, and panics. A
// panic in step is the process's body panic, not a callback's. namer names
// the process the first time a tracer, a deadlock report or a panic reads
// its name (Name): a process nobody names costs no string.
func (k *Kernel) SpawnStep(namer Namer, step func(p *Proc) bool) *Proc {
	p := k.Spawn("", nil)
	p.run, p.namer = step, namer
	return p
}

// main is the coroutine body of a spawned process (the iter.Seq given to
// iter.Pull): it runs the user body and returns to whoever resumed it — the
// kernel's driver on a normal end, Shutdown on its sentinel. Any other panic
// stops the kernel and becomes Run's error instead of reaching the caller of
// next, so one bad process body cannot take the host program down. The panic
// may not be the body's own: a callback the process executed while running
// the event loop unwinds through here too, and is reported as the callback's.
func (p *Proc) main(park func(struct{}) bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); !ok {
				p.k.fail(p.k.panicError(p, r))
			}
		}
		p.end()
	}()
	p.coPark = park
	body := p.body
	p.body = nil
	body(p)
}

// end retires a finished process: off the books, then the ProcEnd hook.
func (p *Proc) end() {
	p.done = true
	k := p.k
	k.removeProc(p)
	if k.tracer != nil {
		k.tracer.ProcEnd(p.pid, p.Name(), k.now)
	}
}

// PanicError is the error Run returns when a process body, an event callback
// or a sliced-hold step panicked.
type PanicError struct {
	// Proc and PID name the process whose body panicked or, with Callback
	// set, the owner of the sliced hold whose step panicked ("" and -1 for a
	// plain event callback, which belongs to no process).
	Proc string
	PID  int
	// Callback reports that the panic happened in callback context — an
	// event callback or a kernel step — not in Proc's body. The process that
	// happened to be executing the event loop is never the one named.
	Callback bool
	Value    any // what it panicked with
}

func (e *PanicError) Error() string {
	switch {
	case !e.Callback:
		return fmt.Sprintf("sim: process %q (pid %d) panicked: %v", e.Proc, e.PID, e.Value)
	case e.PID < 0:
		return fmt.Sprintf("sim: event callback panicked: %v", e.Value)
	default:
		return fmt.Sprintf("sim: sliced-hold step of process %q (pid %d) panicked: %v", e.Proc, e.PID, e.Value)
	}
}

// panicError attributes a recovered panic value: to the callback or hold
// step that was executing if the kernel is in callback context, to the
// stackless process whose step was running — which ends there, as a
// coroutine's body ends in main — otherwise to running, the process whose
// body it unwound.
func (k *Kernel) panicError(running *Proc, v any) *PanicError {
	if o := k.stepOf; o != nil {
		k.stepOf = nil
		return &PanicError{Proc: o.Name(), PID: o.pid, Callback: true, Value: v}
	}
	if k.inCallback {
		k.inCallback = false
		return &PanicError{PID: -1, Callback: true, Value: v}
	}
	if b := k.inBody; b != nil {
		k.inBody = nil
		b.end()
		running = b
	}
	return &PanicError{Proc: running.Name(), PID: running.pid, Value: v}
}

// fail records the first failure and stops the kernel.
func (k *Kernel) fail(err error) {
	if k.failure == nil {
		k.failure = err
	}
	k.Stop()
}

// removeProc drops p from the live-process slice (spawn order preserved).
func (k *Kernel) removeProc(p *Proc) {
	for i, q := range k.procs {
		if q == p {
			k.procs = append(k.procs[:i], k.procs[i+1:]...)
			break
		}
	}
}

// advResult reports why a call to advance returned.
type advResult int

const (
	// advDrained: the queue emptied or Stop was called; nothing is left for
	// the driver to resume.
	advDrained advResult = iota
	// advHanded: another process's wake or start event fired; it is in
	// k.handoff for the driver to resume.
	advHanded
	// advSelf: the calling process's own wake event fired; it simply
	// continues executing.
	advSelf
)

// advance runs the event loop on behalf of whoever is executing the kernel
// (self, or nil for the driver). Callback events and sliced-hold steps
// execute inline; a wake or start event for another process ends the loop
// with that process in k.handoff. Dispatch order is identical to a central
// loop's because every caller pops the same (time, seq)-ordered queue.
func (k *Kernel) advance(self *Proc) advResult {
	for !k.stopped {
		ev := k.queue.pop()
		if ev == nil {
			return advDrained
		}
		if ev.at < k.now {
			panic("sim: event queue returned time in the past")
		}
		k.now = ev.at
		k.dispatched++
		if k.cancelCh != nil {
			if k.cancelLeft--; k.cancelLeft == 0 {
				k.cancelLeft = k.cancelEvery
				select {
				case <-k.cancelCh:
					k.canceled = true
					k.stopped = true
				default:
				}
			}
		}
		p, fn, step := ev.proc, ev.fn, ev.step
		k.release(ev)
		if p == nil {
			k.inCallback = true
			fn()
			k.inCallback = false
			continue
		}
		if step {
			// Like a stale wake, a step of a process Shutdown tore down is
			// dropped.
			if !p.done {
				k.stepOf = p
				p.holdStep()
				k.stepOf = nil
			}
			continue
		}
		if p.run != nil {
			// A stackless process: its start or wake runs its body inline.
			if !p.started {
				p.started = true
				if k.tracer != nil {
					k.tracer.ProcStart(p.pid, p.Name(), k.now)
				}
			} else if p.done {
				continue
			}
			p.blockedVerb, p.blockedOn = "", nil
			k.inBody = p
			more := p.run(p)
			k.inBody = nil
			if !more {
				p.end()
			}
			continue
		}
		if p.next == nil {
			p.next, p.stop = iter.Pull(p.main)
			if k.tracer != nil {
				k.tracer.ProcStart(p.pid, p.Name(), k.now)
			}
		} else if p.done {
			// A stale wake for a process that has since completed (or that
			// Shutdown tore down) is dropped: there is nothing to resume.
			continue
		}
		p.blockedVerb, p.blockedOn = "", nil
		if p == self {
			return advSelf
		}
		k.switches++
		k.handoff = p
		return advHanded
	}
	return advDrained
}

// drive executes the kernel from the driver's side (Run): it runs the event
// loop and resumes whichever process the loop — its own or the one a
// blocking process ran — handed off, until the queue drains or the kernel
// stops. A process that ends leaves no handoff, so the driver picks the loop
// up again.
//
// A callback, hold step or stackless body that panics while the driver runs
// the loop becomes Run's error here (once per drive, not per event), as
// Proc.main does for the ones a process runs. Anything else that reaches
// this recover is the kernel's own invariant failing, and stays a panic.
func (k *Kernel) drive() {
	defer func() {
		if r := recover(); r != nil {
			if !k.inCallback && k.stepOf == nil && k.inBody == nil {
				panic(r)
			}
			k.fail(k.panicError(nil, r))
		}
	}()
	for k.advance(nil) == advHanded {
		for p := k.handoff; p != nil; p = k.handoff {
			k.handoff = nil
			p.next()
		}
	}
}

// Suspend parks a coroutine process between a Begin half that reported it
// parked and the Resume half its wake calls. Every blocking form is that
// wrapper over its halves:
//
//	if x.Begin(p) { for { p.Suspend(); if x.Resume(p) { break } } }
//
// The Begin half has recorded what the process waits on for the deadlock
// report (a hold records it phase by phase, as the wait moves from a channel
// to a queue). The process first runs the event loop itself: if its own
// wake fires at the current instant it returns without any switch;
// otherwise it parks, and the driver resumes the process the loop handed off
// (none when the queue drained). When Shutdown stops the parked coroutine,
// the sentinel panic unwinds the body into main. A stackless process has no
// stack to park — its step returns instead — so a blocking form called from
// a step panics here.
func (p *Proc) Suspend() {
	if p.run != nil {
		panic(fmt.Sprintf("sim: stackless process %q called a blocking operation; a step may call only Begin/Resume halves", p.Name()))
	}
	if p.k.advance(p) == advSelf {
		return
	}
	if !p.coPark(struct{}{}) {
		panic(killSentinel{})
	}
}

// wake schedules p to resume at time at.
func (k *Kernel) wake(p *Proc, at Time) { k.wakeAs(p, at, false) }

// wakeAs schedules a process event for p at time at: a resume or, with step
// set, a kernel step of p's sliced hold.
func (k *Kernel) wakeAs(p *Proc, at Time, step bool) {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, k.now))
	}
	ev := k.alloc(at)
	ev.proc, ev.step = p, step
	k.queue.push(ev)
}

// Sleep suspends the process for virtual duration d. Negative durations are
// treated as zero (the process still yields, preserving scheduling order).
func (p *Proc) Sleep(d Duration) {
	p.SleepBegin(d)
	p.Suspend()
}

// SleepBegin is Sleep's first half: it schedules p's wake d from now. A
// sleep always parks, and its wake is its end: it has no Resume half.
func (p *Proc) SleepBegin(d Duration) {
	if d < 0 {
		d = 0
	}
	p.k.wake(p, p.k.now.Add(d))
	p.blockedVerb, p.blockedOn = "sleep", nil
}

// SleepUntil suspends the process until virtual time t (no-op if t is in the
// past, though the process still yields).
func (p *Proc) SleepUntil(t Time) {
	p.SleepUntilBegin(t)
	p.Suspend()
}

// SleepUntilBegin is SleepUntil's first half, as SleepBegin is Sleep's.
func (p *Proc) SleepUntilBegin(t Time) {
	if t < p.k.now {
		t = p.k.now
	}
	p.k.wake(p, t)
	p.blockedVerb, p.blockedOn = "sleep-until", nil
}

// DeadlockError is returned by Run when processes remain blocked but no
// events are pending, i.e. virtual time can no longer advance.
type DeadlockError struct {
	At      Time
	Blocked []string // "name(pid): reason" for each blocked process
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v with %d blocked process(es): %v", e.At, len(e.Blocked), e.Blocked)
}

// deadlockError builds the report. Called single-threaded after the run.
func (k *Kernel) deadlockError(at Time) *DeadlockError {
	blocked := make([]string, 0, len(k.procs))
	for _, p := range k.procs {
		blocked = append(blocked, fmt.Sprintf("%s(%d): %s", p.Name(), p.pid, p.blockedReason()))
	}
	sort.Strings(blocked)
	return &DeadlockError{At: at, Blocked: blocked}
}

// Run executes events until the queue drains or Stop is called. It returns a
// *DeadlockError if live processes remain blocked when the queue empties, and
// nil otherwise. Run must not be called re-entrantly, and not after Shutdown.
func (k *Kernel) Run() error {
	if k.dead {
		return fmt.Errorf("sim: Run on a kernel that has been shut down")
	}
	k.stopped = false
	k.drive()
	if k.failure != nil {
		return k.failure
	}
	if len(k.procs) > 0 && !k.stopped {
		return k.deadlockError(k.now)
	}
	return nil
}

// Stop halts Run after the current event completes. Processes keep their
// state; Run may not be resumed after Stop (create a fresh kernel instead).
func (k *Kernel) Stop() { k.stopped = true }

// DefaultCancelEvery is the dispatch-count poll interval SetCancel uses when
// given a non-positive interval: frequent enough that a runaway simulation
// reacts to cancellation within microseconds of wall time, sparse enough
// that the per-event cost is a predictable branch.
const DefaultCancelEvery = 8192

// SetCancel installs a cancellation source: every `every` dispatched events
// the kernel polls ch, and if it is closed (or carries a value) the kernel
// halts exactly as if Stop had been called — the current event completes,
// processes keep their state, and Run returns. Canceled reports whether the
// poll fired. Cancellation is observed only between events, so it never
// changes any result a completed run reports: no extra events are
// scheduled, the clock is untouched, and Dispatched counts only real work.
// Combine with Shutdown to release the parked processes of an aborted run —
// the mid-run-abort contract long-lived servers rely on.
//
// Call before Run; every <= 0 selects DefaultCancelEvery; a nil ch disables
// polling.
func (k *Kernel) SetCancel(ch <-chan struct{}, every int) {
	k.cancelCh = ch
	if every <= 0 {
		every = DefaultCancelEvery
	}
	k.cancelEvery = uint64(every)
	k.cancelLeft = k.cancelEvery
}

// Canceled reports whether a SetCancel poll halted the kernel.
func (k *Kernel) Canceled() bool { return k.canceled }

// Shutdown releases every process coroutine still parked in the kernel and
// marks the kernel dead. Run leaves blocked processes parked when it returns
// an error or is halted by Stop; without Shutdown each of those processes
// is a leaked coroutine (a parked goroutine, to the Go runtime), which
// matters when thousands of kernels are created over a program's lifetime
// (the experiment engine runs one per simulation). Shutdown stops each live
// process — its yield point raises a sentinel panic that unwinds the body
// and is recovered in Proc.main — walking the live-process slice in spawn
// (= PID) order, so teardown, including its trace events, is reproducible.
//
// A started stackless process has no coroutine to stop: Shutdown ends it in
// the same walk, with its ProcEnd hook; an unstarted one vanishes silently,
// as an unstarted coroutine process does.
//
// Call Shutdown from the goroutine that called Run, after Run has returned.
// It is idempotent, safe on a kernel that ran to completion (no live
// processes), and safe on a kernel that never ran. After Shutdown the
// kernel is dead: Run returns an error and no process will ever be
// dispatched again.
func (k *Kernel) Shutdown() {
	if k.dead {
		return
	}
	k.stopped = true
	live := make([]*Proc, 0, len(k.procs))
	for _, p := range k.procs {
		if p.next != nil || p.started {
			live = append(live, p)
		} else {
			// The start event never fired, so no coroutine exists; the
			// process just vanishes from the books.
			p.done = true
		}
	}
	for _, p := range live {
		if p.run != nil {
			p.end() // a stackless process has nothing to unwind
			continue
		}
		p.stop() // returns once the body has unwound and main has exited
	}
	k.procs = nil
	k.dead = true
}

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return k.queue.len() }

// LiveProcs reports the number of processes that have been spawned and have
// not finished.
func (k *Kernel) LiveProcs() int { return len(k.procs) }

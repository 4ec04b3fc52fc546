// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock and executes logical processes, each of
// which runs as a coroutine (iter.Pull, Spawn) or as a stackless state
// machine (SpawnStepOn), so that exactly one process executes at a time. All
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
//     the next process and yields to the shard's driver, which resumes it.
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
//     stackless process (SpawnStepOn) is a step function over those halves:
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
// # Sharded execution
//
// A kernel can be partitioned into K shards with SetShards: every scheduling
// domain (a machine-model node) is pinned to one shard, each shard owns a
// private event queue and free list, and Run advances the shards
// concurrently inside conservative lookahead windows, exchanging cross-shard
// events through per-(src,dst) mailboxes at window barriers. A barrier-time
// sequencer replay re-assigns every event scheduled during the window the
// exact sequence number the sequential kernel would have used, so results,
// traces and dispatch counts are byte-identical to K=1 on every input. See
// DESIGN.md §12 for the algorithm and the determinism argument. With K=1
// (the default) none of the sharded machinery is active and the kernel runs
// the classic sequential fast path.
//
// # Trace hook contract
//
// A Tracer installed with Kernel.SetTracer observes the kernel without
// perturbing it. The contract its implementations can rely on — and must
// honour — is:
//
//   - Hooks are invoked synchronously from whatever is executing the
//     simulation (the shard's driver or the process coroutine it resumed;
//     never both at once — possibly on behalf of another process, when the
//     event is a sliced-hold step or a stackless process's step), so
//     implementations need no locking as long as each Tracer serves a
//     single kernel. On a sharded kernel this
//     holds per shard: hooks fire on the per-shard child tracers a
//     ShardTracer provides, one driver per shard.
//   - Virtual time is frozen for the duration of a hook; the timestamps
//     passed in equal Kernel.Now() at the instant of the call, and hooks may
//     call the kernel's read-only accessors (Now, Pending, LiveProcs,
//     Dispatched, Switches) freely. Instrumentation must use these accessors rather
//     than reach into kernel internals. On a sharded kernel the accessors
//     are exact between windows and at run end, and at-least-last-barrier
//     fresh during a window.
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
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Time is an absolute virtual timestamp in nanoseconds since simulation start.
type Time int64

// maxTime is the "no event / no horizon" sentinel: later than any real
// timestamp a simulation can reach.
const maxTime = Time(math.MaxInt64)

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

// event is a scheduled entry in a shard's queue: a callback (fn), a process
// wake/start (proc), or — proc with step set — a kernel step of that
// process's sliced hold, which runs inline like a callback (hold.go). Nodes
// are recycled through the shard's intrusive free list; next links both the
// free list and the queue's lane and buckets.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	proc *Proc
	next *event
	step bool
}

// dispatchRec is one entry of a shard's window dispatch log: enough to
// replay the window's dispatches in global sequential order at the barrier.
// seq is the event's sequence number at dispatch time (provisional if the
// event was scheduled during the window); allocs counts the provisional
// allocations the shard had made before this dispatch began, so the replay
// can attribute every window allocation to the dispatch that performed it.
type dispatchRec struct {
	at     Time
	seq    uint64
	allocs uint64
}

// shard is one scheduling domain partition of a kernel: a complete private
// event scheduler (event queue, pooled free list, clock).
// An unsharded kernel is exactly one shard. All shard fields are owned by
// the shard's driver goroutine (and the process coroutines it resumes, one
// at a time) during a window, and by the coordinator (the Run goroutine)
// between windows; the window barrier channels order the ownership
// transfer, so no field needs a lock.
type shard struct {
	k  *Kernel
	id int

	now   Time
	queue eventQueue // its last is now: it advances only as events pop
	free  *event     // recycled event nodes, linked through next
	// seq is the shard's sequence counter. Unsharded (and during the setup
	// and teardown phases of a sharded kernel) it is unused — allocations
	// draw from the kernel-global counter. During a parallel window it
	// counts provisional sequence numbers from base; the barrier replay
	// rewrites them to the exact sequential values.
	seq        uint64
	handoff    *Proc // process advance chose to run next; drive resumes it
	stopped    bool
	dispatched uint64
	switches   uint64 // dispatches that resumed a process other than the loop's runner
	cancelLeft uint64
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
	tracer     Tracer // shard-routed trace hook (per-shard child when sharded)

	// Sharded-window state; see DESIGN.md §12.
	par      bool   // inside a parallel window
	horizon  Time   // events at >= horizon stay queued this window
	base     uint64 // kernel seq at window start; seq > base ⇒ provisional
	log      []dispatchRec
	di       uint64     // index of the current dispatch in log (for tracers)
	outbox   [][]*event // cross-shard events by destination shard, this window
	outCnt   int
	next     Time          // next-event snapshot taken by the coordinator
	windowGo chan struct{} // window start signal for the shard worker

	// Barrier-published snapshots backing the kernel's concurrent-read
	// accessors while shards are executing.
	pubDispatched atomic.Uint64
	pubSwitches   atomic.Uint64
	pubPending    atomic.Int64
	pubNow        atomic.Int64
}

// Kernel phases (sharded kernels only; unsharded kernels never leave 0).
const (
	phaseSetup int32 = iota
	phaseRun
	phasePost
)

// Kernel is a deterministic discrete-event simulator.
//
// A kernel and everything attached to it (processes, channels, resources)
// belong to one goroutine: the one that calls Run. Distinct kernels share no
// state, so independent simulations may run concurrently, one kernel per
// goroutine — this is what the parallel experiment engine does.
//
// Internally a shard's state is mutated only by its driver (shard.drive) or
// by the one process coroutine the driver has resumed; control moves between
// them by coroutine switch, so all accesses are ordered. An unsharded
// kernel has exactly one shard; SetShards partitions scheduling across
// several, with Run coordinating conservative lookahead windows (see the
// package documentation).
//
// The zero value is not usable; create kernels with NewKernel.
type Kernel struct {
	shards []*shard
	s0     *shard // shards[0]; the only shard when unsharded
	nsh    int
	seqG   uint64 // global sequence counter (authoritative between windows)

	shardOf   []int32 // scheduling domain -> shard index (nil when unsharded)
	lookahead Time    // min cross-shard event latency (sharded kernels only)
	phase     atomic.Int32

	dead    bool       // set by Shutdown: kernel will never dispatch again
	failure error      // first process-body panic, reported by Run
	procs   []*Proc    // live processes in spawn (= PID) order
	procsMu sync.Mutex // guards procs and failure (shards run concurrently)
	nextPID int
	tracef  func(format string, args ...any)
	tracer  Tracer
	// Cancellation poll (SetCancel): every cancelEvery dispatched events a
	// shard polls cancelCh; a closed channel stops the kernel like Stop.
	cancelCh    <-chan struct{}
	cancelEvery uint64
	canceled    atomic.Bool
	// globalStop broadcasts Stop/cancel across shard workers mid-window.
	globalStop atomic.Bool

	// Window coordination (sharded kernels only).
	windowDone chan struct{}
	workersUp  bool
	census     WindowStats // counted by the coordinator at every barrier
	replay     refHeap
	order      []ShardDispatch
	trueOf     [][]uint64
	dispOf     [][]int32
}

// NewKernel returns an empty (single-shard) kernel with the clock at zero.
func NewKernel() *Kernel {
	k := &Kernel{}
	s := &shard{k: k, horizon: maxTime}
	k.s0 = s
	k.shards = []*shard{s}
	k.nsh = 1
	return k
}

// Now reports the current virtual time. On a sharded kernel mid-run this is
// the latest barrier-published shard clock; between windows and after Run it
// is exact (the maximum shard clock, which equals the sequential clock).
func (k *Kernel) Now() Time {
	if k.nsh == 1 {
		return k.s0.now
	}
	var max Time
	if k.phase.Load() == phaseRun {
		for _, s := range k.shards {
			if t := Time(s.pubNow.Load()); t > max {
				max = t
			}
		}
		return max
	}
	for _, s := range k.shards {
		if s.now > max {
			max = s.now
		}
	}
	return max
}

// SetTrace installs a debug trace function (nil disables tracing).
func (k *Kernel) SetTrace(f func(format string, args ...any)) { k.tracef = f }

// SetTracer installs a structured trace hook (nil disables structured
// tracing). See the package documentation for the hook contract. Install the
// tracer before Run; one tracer serves one kernel. A sharded kernel requires
// the tracer to also implement ShardTracer (internal/trace.Collector does).
func (k *Kernel) SetTracer(tr Tracer) {
	k.tracer = tr
	for _, s := range k.shards {
		s.tracer = tr
	}
}

// Dispatched reports the number of events the kernel has executed. It is one
// of the read-only accessors trace hooks may call (see the trace hook
// contract). On a sharded kernel mid-run the count is aggregated from the
// latest window barrier; between windows and after Run it is exact.
func (k *Kernel) Dispatched() uint64 {
	if k.nsh == 1 {
		return k.s0.dispatched
	}
	if k.phase.Load() == phaseRun {
		var n uint64
		for _, s := range k.shards {
			n += s.pubDispatched.Load()
		}
		return n
	}
	var n uint64
	for _, s := range k.shards {
		n += s.dispatched
	}
	return n
}

// Scheduled reports how many events the kernel has scheduled: the last
// sequence number it assigned. Two runs that schedule the same events in the
// same order end at the same number. Exact between windows and after Run.
func (k *Kernel) Scheduled() uint64 { return k.seqG }

// Switches reports how many dispatched events resumed a process other than
// the one executing the event loop — the coroutine round trips the run paid,
// as opposed to the events it executed inline (callbacks, sliced-hold steps,
// a process's own wake, every start and wake of a stackless process). It is
// a host-side diagnostic: unlike Dispatched it depends on the shard count,
// because every window starts in the driver — except that a run of
// stackless processes alone pays none, at any shard count.
// Exact after Run; mid-run on a sharded kernel it is the sum at the latest
// window barrier.
func (k *Kernel) Switches() uint64 {
	if k.nsh == 1 {
		return k.s0.switches
	}
	var n uint64
	if k.phase.Load() == phaseRun {
		for _, s := range k.shards {
			n += s.pubSwitches.Load()
		}
		return n
	}
	for _, s := range k.shards {
		n += s.switches
	}
	return n
}

func (k *Kernel) trace(format string, args ...any) {
	if k.tracef != nil {
		k.tracef(format, args...)
	}
}

// alloc takes an event node off the shard's free list (or allocates one) and
// stamps it with the next sequence number: the kernel-global counter when
// the kernel is executing sequentially, the shard's provisional counter
// inside a parallel window (the barrier replay later rewrites provisional
// numbers to the exact sequential values).
func (s *shard) alloc(at Time) *event {
	ev := s.free
	if ev != nil {
		s.free = ev.next
		ev.next = nil
	} else {
		ev = &event{}
	}
	if s.par {
		s.seq++
		ev.seq = s.seq
	} else {
		s.k.seqG++
		ev.seq = s.k.seqG
	}
	ev.at = at
	return ev
}

// release returns a fired event node to the free list. Callers must have
// copied fn/proc out first.
func (s *shard) release(ev *event) {
	ev.fn = nil
	ev.proc = nil
	ev.step = false
	ev.next = s.free
	s.free = ev
}

// schedule enqueues fn to run at time at. It panics if at precedes the clock,
// since the kernel can never travel backwards.
func (s *shard) schedule(at Time, fn func()) {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	ev := s.alloc(at)
	ev.fn = fn
	s.queue.push(ev)
}

// After schedules fn to run after virtual duration d. It may be called from
// process context or from event callbacks. On a sharded kernel After has no
// way to know which shard the caller executes on, so it panics; use
// Proc.AfterOn (or Kernel.AfterOn before Run) instead.
func (k *Kernel) After(d Duration, fn func()) {
	if k.nsh > 1 {
		panic("sim: After on a sharded kernel needs a scheduling domain; use Proc.AfterOn or Kernel.AfterOn")
	}
	if d < 0 {
		d = 0
	}
	s := k.s0
	s.schedule(s.now.Add(d), fn)
}

// AfterOn schedules fn to run after virtual duration d on the shard owning
// the given scheduling domain. On an unsharded kernel it is identical to
// After. On a sharded kernel it may only be called before Run (setup phase);
// running processes must use Proc.AfterOn, which knows their shard.
func (k *Kernel) AfterOn(domain int, d Duration, fn func()) {
	if k.nsh > 1 && k.phase.Load() == phaseRun {
		panic("sim: Kernel.AfterOn during a sharded run; use Proc.AfterOn")
	}
	if d < 0 {
		d = 0
	}
	s := k.shardFor(domain)
	s.schedule(s.now.Add(d), fn)
}

// Proc is the handle through which a logical process interacts with the
// kernel. A Proc is only valid inside the body function it was created with.
type Proc struct {
	k    *Kernel
	sh   *shard // the shard this process is pinned to
	pid  int
	name string
	body func(p *Proc)
	// next/stop are the process's coroutine handle, nil until its start
	// event fires: next resumes it until it parks or ends, stop makes its
	// park return false. coPark is the coroutine's way back to whoever
	// resumed it.
	next   func() (struct{}, bool)
	stop   func()
	coPark func(struct{}) bool
	// run is a stackless process's body (SpawnStepOn), nil for a coroutine:
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
// Barrier) as the deadlock report sees it, or what names a resource on
// demand (Resource.InitOn).
type Namer interface{ Name() string }

// killSentinel is the panic value that unwinds a process Shutdown stopped
// from its yield point through the user body; Proc.main recovers it.
type killSentinel struct{}

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// PID returns the unique process id.
func (p *Proc) PID() int { return p.pid }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now reports current virtual time (the clock of the process's shard, which
// is the kernel clock on an unsharded kernel).
func (p *Proc) Now() Time { return p.sh.now }

// AfterOn schedules fn to run after virtual duration d on the shard owning
// the given scheduling domain. Same-shard scheduling (including every call
// on an unsharded kernel) is the ordinary fast path. Cross-shard scheduling
// places the event in the window's outbound mailbox; the delay must be at
// least the kernel's lookahead — the cross-shard latency bound SetShards was
// given — or the conservative window algorithm would be unsound, so shorter
// delays panic.
func (p *Proc) AfterOn(domain int, d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s := p.sh
	t := s.k.shardFor(domain)
	if t == s {
		s.schedule(s.now.Add(d), fn)
		return
	}
	if Time(d) < s.k.lookahead {
		panic(fmt.Sprintf("sim: cross-shard event delay %v under lookahead %v", d, Duration(s.k.lookahead)))
	}
	at := s.now.Add(d)
	ev := s.alloc(at)
	ev.fn = fn
	s.outbox[t.id] = append(s.outbox[t.id], ev)
	s.outCnt++
	// The destination may react to this event as soon as it lands, and that
	// reaction can reach back here after one more lookahead hop — so this
	// shard must not simulate past it (matters only when the static horizon
	// was unbounded because every other shard looked idle).
	if h := at + s.k.lookahead; h < s.horizon {
		s.horizon = h
	}
}

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
// process or event callback. On a sharded kernel processes must be pinned
// with SpawnOn before Run; plain Spawn pins to shard 0 during setup and
// panics mid-run.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	if k.nsh > 1 && k.phase.Load() == phaseRun {
		panic("sim: Spawn during a sharded run; spawn processes with SpawnOn before Run")
	}
	return k.spawnOn(k.s0, name, body)
}

// SpawnOn creates a process pinned to the shard owning the given scheduling
// domain, scheduled to start at that shard's current virtual time. On an
// unsharded kernel it is identical to Spawn. Processes cannot be spawned
// while a sharded kernel is running.
func (k *Kernel) SpawnOn(domain int, name string, body func(p *Proc)) *Proc {
	if k.nsh > 1 && k.phase.Load() == phaseRun {
		panic("sim: SpawnOn during a sharded run; spawn processes before Run")
	}
	return k.spawnOn(k.shardFor(domain), name, body)
}

// SpawnStepOn creates a stackless process pinned to the shard owning the
// given scheduling domain, scheduled to start at that shard's current
// virtual time, like SpawnOn. Its body is step, a state machine rather than
// a coroutine: the start event and every wake call step inline, in whoever
// executes the event loop, and step runs until the process would block.
// There it calls the blocking operation's Begin half and returns true if
// that parked; the wake calls step again, which calls the Resume half and
// goes on. False ends the process at that dispatch, as a body's return
// does. No event of a stackless process is a switch, and it owns no
// goroutine. step may call only halves (and non-blocking operations): a
// blocking form would have to park a stack it does not have, and panics. A
// panic in step is the process's body panic, not a callback's.
func (k *Kernel) SpawnStepOn(domain int, name string, step func(p *Proc) bool) *Proc {
	if k.nsh > 1 && k.phase.Load() == phaseRun {
		panic("sim: SpawnStepOn during a sharded run; spawn processes before Run")
	}
	p := k.spawnOn(k.shardFor(domain), name, nil)
	p.run = step
	return p
}

func (k *Kernel) spawnOn(s *shard, name string, body func(p *Proc)) *Proc {
	p := &Proc{k: k, sh: s, pid: k.nextPID, name: name, body: body}
	k.nextPID++
	k.procs = append(k.procs, p)
	ev := s.alloc(s.now)
	ev.proc = p
	s.queue.push(ev)
	return p
}

// main is the coroutine body of a spawned process (the iter.Seq given to
// iter.Pull): it runs the user body and returns to whoever resumed it — the
// shard's driver on a normal end, Shutdown on its sentinel. Any other panic
// stops the kernel and becomes Run's error instead of reaching the caller of
// next, so one bad process body cannot take the host program down. The panic
// may not be the body's own: a callback the process executed while running
// the event loop unwinds through here too, and is reported as the callback's.
func (p *Proc) main(park func(struct{}) bool) {
	s := p.sh
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); !ok {
				p.k.fail(s.panicError(p, r))
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
	p.k.removeProc(p)
	if s := p.sh; s.tracer != nil {
		s.tracer.ProcEnd(p.pid, p.name, s.now)
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
// step that was executing if the shard is in callback context, to the
// stackless process whose step was running — which ends there, as a
// coroutine's body ends in main — otherwise to running, the process whose
// body it unwound.
func (s *shard) panicError(running *Proc, v any) *PanicError {
	if o := s.stepOf; o != nil {
		s.stepOf = nil
		return &PanicError{Proc: o.name, PID: o.pid, Callback: true, Value: v}
	}
	if s.inCallback {
		s.inCallback = false
		return &PanicError{PID: -1, Callback: true, Value: v}
	}
	if b := s.inBody; b != nil {
		s.inBody = nil
		b.end()
		running = b
	}
	return &PanicError{Proc: running.name, PID: running.pid, Value: v}
}

// fail records the first failure and stops the kernel.
func (k *Kernel) fail(err error) {
	k.procsMu.Lock()
	if k.failure == nil {
		k.failure = err
	}
	k.procsMu.Unlock()
	k.Stop()
}

// removeProc drops p from the live-process slice (spawn order preserved).
// Processes on different shards can finish concurrently, hence the lock.
func (k *Kernel) removeProc(p *Proc) {
	k.procsMu.Lock()
	for i, q := range k.procs {
		if q == p {
			k.procs = append(k.procs[:i], k.procs[i+1:]...)
			break
		}
	}
	k.procsMu.Unlock()
}

// advResult reports why a call to advance returned.
type advResult int

const (
	// advDrained: the queue emptied (or reached the window horizon) or Stop
	// was called; nothing is left for the driver to resume.
	advDrained advResult = iota
	// advHanded: another process's wake or start event fired; it is in
	// s.handoff for the driver to resume.
	advHanded
	// advSelf: the calling process's own wake event fired; it simply
	// continues executing.
	advSelf
)

// advance runs the shard's event loop on behalf of whoever is executing the
// shard (self, or nil for the driver). Callback events and sliced-hold steps
// execute inline; a wake or start event for another process ends the loop
// with that process in s.handoff. Dispatch order is identical to a central
// loop's because every caller pops the same (time, seq)-ordered queue.
func (s *shard) advance(self *Proc) advResult {
	k := s.k
	for !s.stopped {
		if s.par && k.globalStop.Load() {
			s.stopped = true
			return advDrained
		}
		// Events due now are always dispatchable: the clock is below the
		// window horizon (maxTime when unsharded).
		ev := s.queue.pop(s.horizon)
		if ev == nil {
			return advDrained
		}
		if ev.at < s.now {
			panic("sim: event queue returned time in the past")
		}
		s.now = ev.at
		s.dispatched++
		if s.par {
			s.di = uint64(len(s.log))
			s.log = append(s.log, dispatchRec{at: ev.at, seq: ev.seq, allocs: s.seq - s.base})
		}
		if k.cancelCh != nil {
			if s.cancelLeft--; s.cancelLeft == 0 {
				s.cancelLeft = k.cancelEvery
				select {
				case <-k.cancelCh:
					k.canceled.Store(true)
					k.globalStop.Store(true)
					s.stopped = true
				default:
				}
			}
		}
		p, fn, step := ev.proc, ev.fn, ev.step
		s.release(ev)
		if p == nil {
			s.inCallback = true
			fn()
			s.inCallback = false
			continue
		}
		if step {
			// Like a stale wake, a step of a process Shutdown tore down is
			// dropped.
			if !p.done {
				s.stepOf = p
				p.holdStep()
				s.stepOf = nil
			}
			continue
		}
		if p.run != nil {
			// A stackless process: its start or wake runs its body inline.
			if !p.started {
				p.started = true
				if s.tracer != nil {
					s.tracer.ProcStart(p.pid, p.name, s.now)
				}
			} else if p.done {
				continue
			}
			p.blockedVerb, p.blockedOn = "", nil
			s.inBody = p
			more := p.run(p)
			s.inBody = nil
			if !more {
				p.end()
			}
			continue
		}
		if p.next == nil {
			p.next, p.stop = iter.Pull(p.main)
			if s.tracer != nil {
				s.tracer.ProcStart(p.pid, p.name, s.now)
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
		s.switches++
		s.handoff = p
		return advHanded
	}
	return advDrained
}

// drive executes the shard from the driver's side (Run, or the shard's
// window worker): it runs the event loop and resumes whichever process the
// loop — its own or the one a blocking process ran — handed off, until the
// queue drains, reaches the window horizon or the kernel stops. A process
// that ends leaves no handoff, so the driver picks the loop up again.
//
// A callback, hold step or stackless body that panics while the driver runs
// the loop becomes Run's error here (once per drive, not per event), as
// Proc.main does for the ones a process runs; drive then returns normally,
// so a shard's window worker still reports to the barrier. Anything else
// that reaches this recover is the kernel's own invariant failing, and stays
// a panic.
func (s *shard) drive() {
	defer func() {
		if r := recover(); r != nil {
			if !s.inCallback && s.stepOf == nil && s.inBody == nil {
				panic(r)
			}
			s.k.fail(s.panicError(nil, r))
		}
	}()
	for s.advance(nil) == advHanded {
		for p := s.handoff; p != nil; p = s.handoff {
			s.handoff = nil
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
		panic(fmt.Sprintf("sim: stackless process %q called a blocking operation; a step may call only Begin/Resume halves", p.name))
	}
	if p.sh.advance(p) == advSelf {
		return
	}
	if !p.coPark(struct{}{}) {
		panic(killSentinel{})
	}
}

// wake schedules p to resume at time at.
func (s *shard) wake(p *Proc, at Time) { s.wakeAs(p, at, false) }

// wakeAs schedules a process event for p at time at: a resume or, with step
// set, a kernel step of p's sliced hold.
func (s *shard) wakeAs(p *Proc, at Time, step bool) {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	ev := s.alloc(at)
	ev.proc, ev.step = p, step
	s.queue.push(ev)
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
	p.sh.wake(p, p.sh.now.Add(d))
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
	if t < p.sh.now {
		t = p.sh.now
	}
	p.sh.wake(p, t)
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
		blocked = append(blocked, fmt.Sprintf("%s(%d): %s", p.name, p.pid, p.blockedReason()))
	}
	sort.Strings(blocked)
	return &DeadlockError{At: at, Blocked: blocked}
}

// Run executes events until the queue drains or Stop is called. It returns a
// *DeadlockError if live processes remain blocked when the queue empties, and
// nil otherwise. Run must not be called re-entrantly, and not after Shutdown.
// On a sharded kernel Run coordinates the conservative window loop (see the
// package documentation); results are byte-identical to the unsharded run.
func (k *Kernel) Run() error {
	if k.dead {
		return fmt.Errorf("sim: Run on a kernel that has been shut down")
	}
	var err error
	if k.nsh > 1 {
		err = k.runSharded()
	} else {
		s := k.s0
		s.stopped = false
		s.drive()
		if len(k.procs) > 0 && !s.stopped {
			err = k.deadlockError(s.now)
		}
	}
	if k.failure != nil {
		return k.failure
	}
	return err
}

// Stop halts Run after the current event completes. Processes keep their
// state; Run may not be resumed after Stop (create a fresh kernel instead).
// On a sharded kernel every shard observes the stop at its next dispatch.
func (k *Kernel) Stop() {
	if k.nsh == 1 {
		k.s0.stopped = true
		return
	}
	k.globalStop.Store(true)
}

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
// the mid-run-abort contract long-lived servers rely on. On a sharded
// kernel every shard polls independently (the issue's "cancellation polls
// on every shard"), and a fired poll stops all shards at the next window
// boundary or dispatch, whichever comes first.
//
// Call before Run; every <= 0 selects DefaultCancelEvery; a nil ch disables
// polling.
func (k *Kernel) SetCancel(ch <-chan struct{}, every int) {
	k.cancelCh = ch
	if every <= 0 {
		every = DefaultCancelEvery
	}
	k.cancelEvery = uint64(every)
	for _, s := range k.shards {
		s.cancelLeft = k.cancelEvery
	}
}

// Canceled reports whether a SetCancel poll halted the kernel.
func (k *Kernel) Canceled() bool { return k.canceled.Load() }

// Shutdown releases every process coroutine still parked in the kernel and
// marks the kernel dead. Run leaves blocked processes parked when it returns
// an error or is halted by Stop; without Shutdown each of those processes
// is a leaked coroutine (a parked goroutine, to the Go runtime), which
// matters when thousands of kernels are created over a program's lifetime
// (the experiment engine runs one per simulation). Shutdown stops each live
// process — its yield point raises a sentinel panic that unwinds the body
// and is recovered in Proc.main — walking the live-process slice in spawn
// (= PID) order, so teardown, including its trace events, is reproducible,
// on a sharded kernel as well.
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
	for _, s := range k.shards {
		s.stopped = true
	}
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

// Pending reports the number of queued events. On a sharded kernel mid-run
// the count is aggregated from the latest window barrier; between windows
// and after Run it is exact.
func (k *Kernel) Pending() int {
	if k.nsh == 1 {
		return k.s0.queue.len()
	}
	if k.phase.Load() == phaseRun {
		var n int64
		for _, s := range k.shards {
			n += s.pubPending.Load()
		}
		return int(n)
	}
	n := 0
	for _, s := range k.shards {
		n += s.queue.len() + s.outCnt
	}
	return n
}

// LiveProcs reports the number of processes that have been spawned and have
// not finished. Safe to call concurrently with a sharded run.
func (k *Kernel) LiveProcs() int {
	k.procsMu.Lock()
	n := len(k.procs)
	k.procsMu.Unlock()
	return n
}

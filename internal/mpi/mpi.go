// Package mpi implements the message-passing substrate of the reproduction:
// a deterministic MPI subset (point-to-point with tag matching, barrier,
// gather/scatter, and three all-to-all algorithms) executing on the
// simulated multicomputer of internal/machine.
//
// The paper's benchmarks — and the vendor systems it measures — are MPI
// programs; the corner turn in particular is dominated by MPI_All_to_All,
// which "each vendor implemented ... tailored to their respective hardware".
// This package therefore provides selectable all-to-all algorithms (direct,
// pairwise-exchange, Bruck) so platform descriptors can express that tuning.
//
// Real data moves through every call: Send delivers the payload object to the
// matching Recv, while the machine model charges virtual time for software
// overhead, wire serialisation, latency and contention. One rank runs per
// node, but a rank may host multiple simulated threads (the SAGE runtime
// does); tag matching keeps concurrent receivers on one rank independent.
//
// The cost model is the machine's, unchanged; what it costs the host is one
// park per message side. A send's pack copy (SendPacked), software overhead
// and wire are one hold on the sender's CPU and link (machine.Node.Transfer);
// a receive that has to wait parks on its waiter's channel, and the matching
// delivery runs the receive overhead and unpack copy (RecvUnpacked) behind
// it as kernel steps (machine.Node.RecvOverhead with the waiter as its Gate),
// so the receiver wakes once, when all of it is done. A receive that times
// out is woken plainly and charged nothing.
//
// Each point-to-point operation is also two halves, for a process that has
// no stack to park (sim.Kernel.SpawnStep): SendBegin, RecvBegin and
// RecvTimeoutBegin begin it and report whether the process parked; Resume
// follows each wake until it reports the operation over, and Received hands
// over what a receive got. The pending operation lives on the Rank — one per
// process — including the resilient send's attempt, backoff and giveup
// stages. SendPacked, RecvUnpacked, RecvTimeoutUnpacked and everything built
// on them (the collectives) are the blocking wrappers over those halves.
//
// A message nobody waits for yet queues on its destination's endpoint, and
// identical bodiless messages queue as one entry with a count: the credit
// returns of a pipelined lane — mpi.Empty() per freed slot, read only before
// the lane's next send — hold one entry however many slots are free. Only
// the newest entry of a (source, tag) absorbs the next such message, so each
// (source, tag) still drains in arrival order, and no receiver can tell a
// counted message from the copies it stands for.
package mpi

import (
	"fmt"
	"slices"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// EnvelopeBytes is the wire-size overhead charged per message.
const EnvelopeBytes = 32

// Payload is a typed message body together with its wire size in bytes. The
// wire size is explicit because the simulated hardware era used single
// precision (8-byte complex) while the Go kernels compute in float64.
type Payload struct {
	Bytes int
	Data  any
}

// BytesPerComplex is the wire size of one complex sample (complex64 on the
// 1999-era targets).
const BytesPerComplex = 8

// ComplexPayload wraps a complex vector, priced at single-precision size.
func ComplexPayload(data []complex128) Payload {
	return Payload{Bytes: BytesPerComplex * len(data), Data: data}
}

// Complex extracts a complex vector payload, panicking on type mismatch
// (which is a protocol bug, not a runtime condition).
func (p Payload) Complex() []complex128 {
	v, ok := p.Data.([]complex128)
	if !ok {
		panic(fmt.Sprintf("mpi: payload holds %T, want []complex128", p.Data))
	}
	return v
}

// Empty returns a zero-byte payload (control messages).
func Empty() Payload { return Payload{} }

// message is the wire unit: envelope fields used for matching plus payload.
// Ranks and tags fit 32 bits (Send and Recv refuse a tag that does not), so
// a queued entry is 40 bytes.
type message struct {
	src, tag int32
	body     Payload
}

// queued is a pending entry: n arrivals of message m, all alike. Only a
// bodiless message (Data nil) joins an entry, so the copies it stands for
// are indistinguishable.
type queued struct {
	m message
	n int
}

// waiter is a blocked receiver: a match key plus a private one-shot channel
// the matching message is handed over on — the receive's gate
// (machine.Gate): Hold parks the receiver on the channel with its receive
// overhead and unpack copy chained behind, and the message lands in got.
// matched marks hand-over, so a pending receive timeout knows it lost the
// race; timedOut marks the timeout's own hand-over. Waiters (and their
// channels) are recycled through the endpoint's free list; gen counts
// recycles so a timeout armed for an earlier wait recognises that its waiter
// has moved on.
type waiter struct {
	rank, src, tag int
	name           string // rendered by chanName on first use; "" after a re-key
	ch             *sim.Chan[message]
	got            message
	matched        bool
	timedOut       bool
	gen            uint64
	next           *waiter
}

// chanName is the waiter channel's name as deadlock reports and traces show
// it. Nothing else reads it, so it is formatted only when one of them asks.
func (w *waiter) chanName() string {
	if w.name == "" {
		w.name = fmt.Sprintf("mpi.rank%d.recv(src=%d,tag=%d)", w.rank, w.src, w.tag)
	}
	return w.name
}

// HoldBegin makes the waiter the receive's gate: it parks p until the
// matching message (or the timeout) is handed over, with then — the
// receive's CPU phases — run behind a matched delivery in the same park.
func (w *waiter) HoldBegin(p *sim.Proc, then sim.Chain) bool {
	return w.ch.RecvHoldBegin(p, &w.got, &then)
}

// HoldResume is the gate's side of a wake: the receive is over, and the
// message came unless the timeout's hand-over ended it.
func (w *waiter) HoldResume(p *sim.Proc) (done, came bool) {
	if !w.ch.RecvHoldResume(p, &w.got) {
		return false, false
	}
	return true, !w.timedOut
}

// endpoint is the per-rank receive engine, serving possibly many simulated
// threads on one rank: the messages nobody waited for, in arrival order and
// matched by (source, tag) — a run of identical bodiless ones one counted
// entry — and the receivers waiting, in the order they began.
type endpoint struct {
	k    *sim.Kernel
	rank int
	// pending, the messages nobody waits for yet, is sized from the plan
	// (Rank.Reserve): out and in count the lanes the rank's threads feed
	// and are fed by. Its first allocation holds a credit return from every
	// lane fed — returns on one lane merge into one entry (deliver) — and,
	// on a rank that feeds at least as many lanes as feed it, a data set
	// from every lane into it as well: out + in is the most a charge-only
	// run can queue. A rank fed by more lanes than it feeds (a fan-in
	// consumer) takes its lanes in about the order they were sent and
	// queues few, so its queue grows to out + in only if it must. Past
	// that, append grows it.
	//
	// Measured and rejected (wide1024: fft2d 256 on 130 of 1 024 Mercury
	// nodes): a linked FIFO of entries drawn from a per-world free list
	// (2 % more bytes than a reserved slice, and 90 ops/s against 104:
	// scanning a 64-deep pointer chain is slower than scanning a slice);
	// out + in from the start (166 kB more a run: the fan-in consumers
	// over-reserve); in lanes only (166 kB more). Out lanes only is as good
	// on wide1024, but the co-located stages of a small run queue data too
	// and grow by doubling (30.0 kB against 27.6 for the daemon's shape).
	pending []queued
	out, in int
	waiters []*waiter
	free    *waiter
	timers  *timer // recycled receive-timeout records
}

// flight is a message between Send and its arrival event: what the event's
// callback needs, so a message in flight allocates nothing in steady state.
// A record is taken from its world's free list and returned there on
// delivery, so one-way traffic reuses the records as well as traffic that
// flows both ways.
type flight struct {
	w    *World
	dst  *endpoint
	m    message
	fire func() // arrive, bound once when the record is first allocated
	next *flight
}

// getFlight takes an in-flight record off the free list (or allocates one)
// for message m to dst.
func (w *World) getFlight(dst *endpoint, m message) *flight {
	f := w.flights
	if f == nil {
		f = &flight{w: w}
		f.fire = f.arrive
	} else {
		w.flights = f.next
		f.next = nil
	}
	f.dst, f.m = dst, m
	return f
}

// arrive is the arrival event: it recycles the record — dropping its
// reference to the payload — and delivers.
func (f *flight) arrive() {
	dst, m := f.dst, f.m
	f.dst, f.m = nil, message{}
	f.next = f.w.flights
	f.w.flights = f
	dst.deliver(m)
}

// timer is an armed receive timeout, the timed receive's counterpart of a
// flight: the waiter and the generation of the wait it guards, with an
// expire func bound once per record. A waiter is recycled as soon as its
// wait resolves, usually long before its timer fires, so the generation has
// to travel with the timer; the record goes back to its endpoint's free list
// when it fires, stale or not.
type timer struct {
	e    *endpoint
	w    *waiter
	gen  uint64
	fire func() // expire, bound once when the record is first allocated
	next *timer
}

// arm schedules a timeout for w's current wait d from now.
func (e *endpoint) arm(w *waiter, d sim.Duration) {
	t := e.timers
	if t == nil {
		t = &timer{e: e}
		t.fire = t.expire
	} else {
		e.timers = t.next
		t.next = nil
	}
	t.w, t.gen = w, w.gen
	e.k.After(d, t.fire)
}

// expire is the timeout event. Unless the wait it guards has resolved, it
// withdraws the waiter and hands it an empty message by Interrupt, which
// wakes the receiver without running its receive phases.
func (t *timer) expire() {
	e, w, gen := t.e, t.w, t.gen
	t.w = nil
	t.next = e.timers
	e.timers = t
	// gen mismatch: this wait resolved and the waiter was recycled for a
	// later receive; the stale timer must not touch it.
	if w.gen != gen || w.matched {
		return
	}
	for i, x := range e.waiters {
		if x == w {
			e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
			break
		}
	}
	w.timedOut = true
	w.ch.Interrupt(message{})
}

// getWaiter takes a waiter off the free list (or allocates one) keyed for
// (src, tag). The channel name is part of the observable trace/deadlock
// output, so re-keying a recycled waiter drops its rendered name.
func (e *endpoint) getWaiter(src, tag int) *waiter {
	w := e.free
	if w == nil {
		w = &waiter{rank: e.rank, src: src, tag: tag, ch: sim.NewChan[message](e.k, "")}
		w.ch.SetNamer(w.chanName)
		return w
	}
	e.free = w.next
	w.next = nil
	w.matched, w.timedOut = false, false
	if w.src != src || w.tag != tag {
		w.src, w.tag, w.name = src, tag, ""
	}
	return w
}

// putWaiter recycles w once its wait has fully resolved (received or timed
// out, and no longer queued), dropping its message. Bumping gen disarms any
// still-pending timer.
func (e *endpoint) putWaiter(w *waiter) {
	w.got = message{}
	w.gen++
	w.next = e.free
	e.free = w
}

func matches(m *message, src, tag int) bool {
	return int(m.src) == src && int(m.tag) == tag
}

// deliver makes m visible to receivers at the current virtual instant,
// handing it to the first blocked waiter that matches (FIFO among waiters).
// The hand-over posts the waiter's gate step: the receiver's phases start
// here, without waking it. Unmatched, m joins the newest pending entry of
// its (source, tag) when both are bodiless and equally sized, and queues
// behind it otherwise.
func (e *endpoint) deliver(m message) {
	for i, w := range e.waiters {
		if matches(&m, w.src, w.tag) {
			e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
			w.matched = true
			w.ch.Send(m)
			return
		}
	}
	for i := len(e.pending) - 1; i >= 0 && m.body.Data == nil; i-- {
		q := &e.pending[i]
		if q.m.src != m.src || q.m.tag != m.tag {
			continue
		}
		if q.m.body.Data == nil && q.m.body.Bytes == m.body.Bytes {
			q.n++
			return
		}
		break
	}
	if n := len(e.pending); n == cap(e.pending) {
		size := e.out + e.in
		if n == 0 && e.in > e.out && e.out > 0 {
			size = e.out
		}
		if size > n {
			e.pending = slices.Grow(e.pending, size-n)
		}
	}
	e.pending = append(e.pending, queued{m: m, n: 1})
}

// match takes the oldest pending message matching (src, tag) if there is
// one; otherwise it queues a waiter for it — armed to time out after d when
// timed — which the caller passes to the node as the receive's gate.
func (e *endpoint) match(p *sim.Proc, src, tag int, timed bool, d sim.Duration) (message, *waiter) {
	for i := range e.pending {
		if q := &e.pending[i]; matches(&q.m, src, tag) {
			m := q.m
			if q.n--; q.n == 0 {
				e.pending = slices.Delete(e.pending, i, i+1)
			}
			return m, nil
		}
	}
	w := e.getWaiter(src, tag)
	e.waiters = append(e.waiters, w)
	if timed {
		e.arm(w, d)
	}
	return message{}, w
}

// World is an MPI job: one rank per machine node.
type World struct {
	Mach *machine.Machine
	// endpoints[i] is rank i's endpoint once it is attached to or a message
	// is delivered to it, nil until then; it is carved out of spare, the
	// rest of the newest chunk (machine.Chunk), as the machine builds its
	// nodes.
	endpoints []*endpoint
	spare     []endpoint
	built     int
	retry     fault.RetryPolicy
	retrySet  bool
	flights   *flight // recycled in-flight records
}

// NewWorld creates a world spanning every node of the machine.
func NewWorld(m *machine.Machine) *World {
	return &World{Mach: m, endpoints: make([]*endpoint, m.NumNodes())}
}

// endpoint returns rank id's endpoint, building it on first use.
func (w *World) endpoint(id int) *endpoint {
	if e := w.endpoints[id]; e != nil {
		return e
	}
	if len(w.spare) == 0 {
		w.spare = make([]endpoint, machine.Chunk(w.built, len(w.endpoints)))
	}
	e := &w.spare[0]
	w.spare = w.spare[1:]
	w.built++
	e.k, e.rank = w.Mach.K, id
	w.endpoints[id] = e
	return e
}

// Size reports the number of ranks.
func (w *World) Size() int { return len(w.endpoints) }

// SetRetry configures the link-level retry protocol Send uses when the
// machine has a fault injector installed (zero fields take defaults). Without
// an injector the policy is irrelevant: Send takes the plain path.
func (w *World) SetRetry(p fault.RetryPolicy) {
	w.retry = p.WithDefaults()
	w.retrySet = true
}

func (w *World) retryPolicy() fault.RetryPolicy {
	if !w.retrySet {
		return fault.DefaultRetry()
	}
	return w.retry
}

// Rank is the handle a simulated thread uses to communicate as world rank id.
// Multiple threads on the same rank may share the id; tags must disambiguate.
type Rank struct {
	w    *World
	id   int
	node *machine.Node
	proc *sim.Proc
	op   pending // the operation between its Begin half and its end
}

// pending is a send or receive between its Begin half and its end: where it
// stands and what its end needs. A Rank is one process's handle, and a
// process is inside one operation at a time.
type pending struct {
	// msg is a send's body, or what a receive got.
	msg Payload
	// A send: its destination and tag, its transfer, and the resilient
	// protocol's attempt and when the first one began.
	x        machine.Xfer
	dst, tag int
	attempt  int
	start    sim.Time
	// A receive: its gate (nil when the message was pending), its unpack
	// copy, and whether the message came.
	w      *waiter
	unpack int
	recv   bool
	ok     bool
	stage  sendStage
}

// sendStage is where a send stands: the stage it parked in, or that last
// completed.
type sendStage uint8

const (
	sendWire    sendStage = iota // the plain transfer
	sendPack                     // the pack copy ahead of a resilient send's attempts
	sendTry                      // an attempt under the fault injector
	sendBackoff                  // the sleep before the next attempt
	sendGiveup                   // the maintenance-path transfer after the last attempt
)

// Launch spawns body as the main thread of every rank and returns once all
// processes are created (call w.Mach.K.Run() to execute). Rank i runs on
// machine node i.
func (w *World) Launch(name string, body func(r *Rank)) {
	for i := 0; i < w.Size(); i++ {
		w.Mach.K.Spawn(fmt.Sprintf("%s.rank%d", name, i), func(p *sim.Proc) {
			body(w.rank(i, p))
		})
	}
}

// Attach creates a Rank handle for an existing simulated process p acting as
// rank id (used by the SAGE runtime, which manages its own threads).
func (w *World) Attach(id int, p *sim.Proc) *Rank {
	if id < 0 || id >= w.Size() {
		panic(fmt.Sprintf("mpi: attach to rank %d of world size %d", id, w.Size()))
	}
	return w.rank(id, p)
}

// rank makes the handle of process p acting as rank id.
func (w *World) rank(id int, p *sim.Proc) *Rank {
	w.endpoint(id)
	return &Rank{w: w, id: id, node: w.Mach.Node(id), proc: p}
}

// Reserve sizes the rank's queue of unexpected messages from the plan: out
// and in more lanes — (source, tag) pairs that may queue at it — that a
// thread on the rank feeds and is fed by. It is a capacity hint: nothing a
// receiver sees depends on it.
func (r *Rank) Reserve(out, in int) {
	e := r.w.endpoints[r.id]
	e.out += out
	e.in += in
}

// ID reports this rank's id.
func (r *Rank) ID() int { return r.id }

// Size reports the world size.
func (r *Rank) Size() int { return r.w.Size() }

// Proc exposes the underlying simulated process.
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Node exposes the node this rank runs on.
func (r *Rank) Node() *machine.Node { return r.node }

// Trace exposes the machine's trace collector (nil — the disabled
// collector — when tracing is off), so code layered on MPI can emit its
// own spans.
func (r *Rank) Trace() *trace.Collector { return r.w.Mach.Trace() }

// Send transmits body to rank dst with the given tag. The caller is blocked
// for the send-side costs (software overhead plus wire serialisation under
// contention); delivery to dst happens asynchronously after the fabric
// latency. Send never blocks on the receiver, so exchange patterns in which
// every rank sends before receiving are deadlock-free.
// Under an installed fault injector, Send runs a bounded retry protocol: a
// refused or dropped attempt is retried after geometric backoff, and once the
// attempt budget is exhausted the message is forced through the fault-
// oblivious maintenance path (Node.Transfer), so every Send terminates and
// every message is eventually delivered under any valid fault plan.
func (r *Rank) Send(dst, tag int, body Payload) { r.SendPacked(dst, tag, body, 0) }

// SendPacked is Send for a message the sender first copies out of its own
// buffer — pack bytes of it, a strided region — charged in the same park as
// the send: the pack copy, the send overhead and the wire are one hold.
func (r *Rank) SendPacked(dst, tag int, body Payload, pack int) {
	if r.SendBegin(dst, tag, body, pack) {
		r.wait()
	}
}

// wait parks the process until the pending operation is over: the blocking
// forms are wrappers over their halves.
func (r *Rank) wait() {
	for {
		r.proc.Suspend()
		if r.Resume() {
			return
		}
	}
}

// SendBegin is SendPacked's first half: it reports whether the process
// parked, and Resume follows each wake until it reports the send over.
func (r *Rank) SendBegin(dst, tag int, body Payload, pack int) bool {
	if dst < 0 || dst >= r.Size() {
		panic(fmt.Sprintf("mpi: send to rank %d of world size %d", dst, r.Size()))
	}
	checkTag(tag)
	op := &r.op
	op.recv, op.dst, op.tag, op.msg = false, dst, tag, body
	if !r.w.Mach.Faults().Enabled() {
		op.stage = sendWire
		if r.node.TransferBegin(r.proc, dst, op.wire(), pack, &op.x) {
			return true
		}
		return r.sendOn()
	}
	// Packed once, ahead of the attempts (and of the retry span).
	op.stage = sendPack
	if pack > 0 && r.node.MemcpyBegin(r.proc, pack) {
		return true
	}
	return r.sendOn()
}

// Resume is the half of a pending send or receive that follows a wake; it
// reports whether the operation is over.
func (r *Rank) Resume() bool {
	op := &r.op
	if op.recv {
		return r.recvResume()
	}
	switch op.stage {
	case sendPack:
		r.node.BusyEnd(r.proc)
	case sendWire, sendTry, sendGiveup:
		r.node.TransferEnd(r.proc, &op.x)
	}
	return !r.sendOn()
}

// sendOn runs a send on from the stage that just completed until it parks
// (true) or hands the message to its flight (false). Under the fault
// injector that is the retry protocol: an attempt through the injector, a
// backoff sleep after each failed one, and the fault-oblivious maintenance
// path once the attempt budget is spent.
func (r *Rank) sendOn() bool {
	op := &r.op
	pol := r.w.retryPolicy()
	for {
		switch op.stage {
		case sendWire:
			r.sent()
			return false
		case sendPack:
			op.start, op.attempt = r.proc.Now(), 1
		case sendTry:
			if op.x.OK {
				if op.attempt > 1 {
					r.Trace().FaultSpan(r.id, fmt.Sprintf("retry %d->%d x%d", r.id, op.dst, op.attempt-1),
						op.start, r.proc.Now())
				}
				r.sent()
				return false
			}
			if op.attempt >= pol.MaxAttempts {
				op.stage = sendGiveup
				if r.node.TransferBegin(r.proc, op.dst, op.wire(), 0, &op.x) {
					return true
				}
				continue
			}
			op.stage = sendBackoff
			r.proc.SleepBegin(pol.BackoffFor(op.attempt))
			return true
		case sendBackoff:
			op.attempt++
		case sendGiveup:
			r.Trace().FaultSpan(r.id, fmt.Sprintf("giveup %d->%d", r.id, op.dst), op.start, r.proc.Now())
			r.sent()
			return false
		}
		// The next attempt.
		op.stage = sendTry
		if r.node.TryTransferBegin(r.proc, op.dst, op.wire(), &op.x) {
			return true
		}
	}
}

// checkTag refuses a tag the envelope cannot carry.
func checkTag(tag int) {
	if tag != int(int32(tag)) {
		panic(fmt.Sprintf("mpi: tag %d does not fit 32 bits", tag))
	}
}

// wire is the send's size on the wire, envelope included.
func (op *pending) wire() int { return op.msg.Bytes + EnvelopeBytes }

// sent hands a sent message to its flight: delivered at x.Arrival.
func (r *Rank) sent() {
	op := &r.op
	ep := r.w.endpoint(op.dst)
	m := message{src: int32(r.id), tag: int32(op.tag), body: op.msg}
	op.msg = Payload{}
	if arrival := op.x.Arrival; arrival > r.proc.Now() {
		f := r.w.getFlight(ep, m)
		r.proc.Kernel().After(arrival.Sub(r.proc.Now()), f.fire)
		return
	}
	// Only self-transfers arrive instantly: cross-node latency is always
	// positive.
	ep.deliver(m)
}

// Recv blocks until a message from src with the given tag arrives, charges
// the receive software overhead, and returns the payload.
func (r *Rank) Recv(src, tag int) Payload { return r.RecvUnpacked(src, tag, 0) }

// RecvUnpacked is Recv for a message the receiver then copies into its own
// buffer — unpack bytes of it, a strided region — charged in the same park:
// the wait for the message, the receive overhead and the unpack copy are
// one hold.
func (r *Rank) RecvUnpacked(src, tag, unpack int) Payload {
	body, _ := r.recv(src, tag, unpack, false, 0)
	return body
}

// RecvBegin is RecvUnpacked's first half: it reports whether the process
// parked, and Resume follows each wake until it reports the receive over;
// Received then hands over the payload.
func (r *Rank) RecvBegin(src, tag, unpack int) bool {
	return r.recvBegin(src, tag, unpack, false, 0)
}

// RecvTimeoutBegin is RecvTimeoutUnpacked's first half, as RecvBegin is
// RecvUnpacked's; Received reports whether the message came.
func (r *Rank) RecvTimeoutBegin(src, tag int, d sim.Duration, unpack int) bool {
	return r.recvBegin(src, tag, unpack, true, d)
}

// Received hands over what the receive that just ended got — its payload,
// and false if it timed out — once: the rank keeps no reference to it.
func (r *Rank) Received() (Payload, bool) {
	op := &r.op
	body, ok := op.msg, op.ok
	op.msg = Payload{}
	return body, ok
}

// RecvTimeout is Recv with a deadline: it blocks until a message from src
// with the given tag arrives or duration d of virtual time elapses. On
// timeout it returns ok == false without charging the receive overhead (no
// message was processed). Resilient runtimes use it to re-arm receives and
// interleave recovery work instead of blocking indefinitely on a degraded
// peer.
func (r *Rank) RecvTimeout(src, tag int, d sim.Duration) (body Payload, ok bool) {
	return r.RecvTimeoutUnpacked(src, tag, d, 0)
}

// RecvTimeoutUnpacked is RecvTimeout with an unpack copy, as RecvUnpacked;
// a receive that times out charges neither the overhead nor the copy.
func (r *Rank) RecvTimeoutUnpacked(src, tag int, d sim.Duration, unpack int) (body Payload, ok bool) {
	return r.recv(src, tag, unpack, true, d)
}

// recv is every receive's blocking form.
func (r *Rank) recv(src, tag, unpack int, timed bool, d sim.Duration) (Payload, bool) {
	if r.recvBegin(src, tag, unpack, timed, d) {
		r.wait()
	}
	return r.Received()
}

// recvBegin begins every receive: match or queue a waiter, then let the
// node charge the receive with the waiter as its gate. A message and a
// timeout firing at the same virtual instant are ordered by the kernel's
// event queue; whichever fires first wins, deterministically.
func (r *Rank) recvBegin(src, tag, unpack int, timed bool, d sim.Duration) bool {
	if src < 0 || src >= r.Size() {
		panic(fmt.Sprintf("mpi: recv from rank %d of world size %d", src, r.Size()))
	}
	checkTag(tag)
	m, w := r.w.endpoints[r.id].match(r.proc, src, tag, timed, d)
	op := &r.op
	op.recv, op.w, op.unpack, op.msg, op.ok = true, w, unpack, m.body, true
	var parked bool
	if w == nil {
		parked = r.node.RecvOverheadBegin(r.proc, unpack, nil)
	} else {
		parked = r.node.RecvOverheadBegin(r.proc, unpack, w)
	}
	if !parked {
		r.recvDone(true)
	}
	return parked
}

// recvResume is Resume for a receive.
func (r *Rank) recvResume() bool {
	op := &r.op
	var gate machine.Gate // nil, not a nil *waiter, when the message was pending
	if op.w != nil {
		gate = op.w
	}
	done, came := r.node.RecvOverheadEnd(r.proc, op.unpack, gate)
	if done {
		r.recvDone(came)
	}
	return done
}

// recvDone settles a receive: a gated one takes the message its waiter got
// (none if it timed out) and recycles the waiter.
func (r *Rank) recvDone(came bool) {
	op := &r.op
	w := op.w
	if w == nil {
		return
	}
	op.w = nil
	op.msg, op.ok = w.got.body, came
	if !came {
		op.msg = Payload{}
	}
	r.w.endpoints[r.id].putWaiter(w)
}

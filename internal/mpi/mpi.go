// Package mpi implements the message-passing substrate of the reproduction:
// a deterministic MPI subset (point-to-point with tag matching, barrier,
// broadcast, gather/scatter, and three all-to-all algorithms) executing on the
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
package mpi

import (
	"fmt"

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

// Float64Payload wraps a float64 vector, priced at float32 wire size.
func Float64Payload(data []float64) Payload {
	return Payload{Bytes: 4 * len(data), Data: data}
}

// Empty returns a zero-byte payload (control messages).
func Empty() Payload { return Payload{} }

// message is the wire unit: envelope fields used for matching plus payload.
type message struct {
	src  int
	tag  int
	body Payload
}

// waiter is a blocked receiver: a match key plus a private one-shot channel
// the matching message is handed over on. matched marks hand-over, so a
// pending receive timeout knows it lost the race. Waiters (and their
// channels) are recycled through the endpoint's free list; gen counts
// recycles so a timeout timer armed for an earlier wait recognises that its
// waiter has moved on.
type waiter struct {
	rank, src, tag int
	name           string // rendered by chanName on first use; "" after a re-key
	ch             *sim.Chan[message]
	matched        bool
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

// endpoint is the per-rank receive engine: an unordered pending set matched
// by (source, tag), serving possibly many simulated threads on one rank.
type endpoint struct {
	k       *sim.Kernel
	rank    int
	pending []message
	waiters []*waiter
	free    *waiter
	flights *flight // recycled in-flight records
}

// flight is a message between Send and its arrival event: what the event's
// callback needs, so a message in flight allocates nothing in steady state.
// A record is taken from the sender's endpoint and returned to the
// destination's on delivery; traffic that flows both ways (every data edge
// has a credit edge back) keeps the lists balanced, and since each endpoint
// is only ever touched from its own rank's shard, sharded runs need no lock.
type flight struct {
	dst  *endpoint
	m    message
	fire func() // arrive, bound once when the record is first allocated
	next *flight
}

// getFlight takes an in-flight record off the free list (or allocates one)
// for message m to dst.
func (e *endpoint) getFlight(dst *endpoint, m message) *flight {
	f := e.flights
	if f == nil {
		f = &flight{}
		f.fire = f.arrive
	} else {
		e.flights = f.next
		f.next = nil
	}
	f.dst, f.m = dst, m
	return f
}

// arrive is the arrival event: it runs on the destination's shard, recycles
// the record there — dropping its reference to the payload — and delivers.
func (f *flight) arrive() {
	dst, m := f.dst, f.m
	f.dst, f.m = nil, message{}
	f.next = dst.flights
	dst.flights = f
	dst.deliver(m)
}

// getWaiter takes a waiter off the free list (or allocates one) keyed for
// (src, tag). The channel name is part of the observable trace/deadlock
// output, so re-keying a recycled waiter drops its rendered name.
func (e *endpoint) getWaiter(src, tag int) *waiter {
	w := e.free
	if w == nil {
		w = &waiter{rank: e.rank, src: src, tag: tag, ch: sim.NewChanOn[message](e.k, e.rank, "")}
		w.ch.SetNamer(w.chanName)
		return w
	}
	e.free = w.next
	w.next = nil
	w.matched = false
	if w.src != src || w.tag != tag {
		w.src, w.tag, w.name = src, tag, ""
	}
	return w
}

// putWaiter recycles w once its wait has fully resolved (received or timed
// out, and no longer queued). Bumping gen disarms any still-pending timer.
func (e *endpoint) putWaiter(w *waiter) {
	w.gen++
	w.next = e.free
	e.free = w
}

func matches(m *message, src, tag int) bool {
	return m.src == src && m.tag == tag
}

// deliver makes m visible to receivers at the current virtual instant,
// handing it to the first blocked waiter that matches (FIFO among waiters).
func (e *endpoint) deliver(m message) {
	for i, w := range e.waiters {
		if matches(&m, w.src, w.tag) {
			e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
			w.matched = true
			w.ch.Send(m)
			return
		}
	}
	e.pending = append(e.pending, m)
}

// recv blocks the calling process until a message matching (src, tag) is
// available and returns it.
func (e *endpoint) recv(p *sim.Proc, src, tag int) message {
	for i := range e.pending {
		if matches(&e.pending[i], src, tag) {
			m := e.pending[i]
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			return m
		}
	}
	w := e.getWaiter(src, tag)
	e.waiters = append(e.waiters, w)
	m := w.ch.Recv(p)
	e.putWaiter(w)
	return m
}

// recvTimeout is recv with a deadline: if no matching message arrives within
// d of the call, the waiter is withdrawn and ok is false. A message and the
// timer firing at the same virtual instant are ordered by the kernel's event
// queue; whichever fires first wins, deterministically.
func (e *endpoint) recvTimeout(p *sim.Proc, src, tag int, d sim.Duration) (message, bool) {
	for i := range e.pending {
		if matches(&e.pending[i], src, tag) {
			m := e.pending[i]
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			return m, true
		}
	}
	w := e.getWaiter(src, tag)
	e.waiters = append(e.waiters, w)
	timedOut := false
	gen := w.gen
	// The timer is shard-local: p executes on the endpoint's rank, and the
	// callback only touches this endpoint's state.
	p.AfterOn(e.rank, d, func() {
		// gen mismatch: this wait resolved and the waiter was recycled for
		// a later receive; the stale timer must not touch it.
		if w.gen != gen || w.matched {
			return
		}
		for i, x := range e.waiters {
			if x == w {
				e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
				break
			}
		}
		timedOut = true
		w.ch.Send(message{})
	})
	m := w.ch.Recv(p)
	e.putWaiter(w)
	if timedOut {
		return message{}, false
	}
	return m, true
}

// World is an MPI job: one rank per machine node.
type World struct {
	Mach      *machine.Machine
	endpoints []*endpoint
	retry     fault.RetryPolicy
	retrySet  bool
}

// NewWorld creates a world spanning every node of the machine.
func NewWorld(m *machine.Machine) *World {
	w := &World{Mach: m}
	for i := 0; i < m.NumNodes(); i++ {
		w.endpoints = append(w.endpoints, &endpoint{k: m.K, rank: i})
	}
	return w
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
}

// Launch spawns body as the main thread of every rank and returns once all
// processes are created (call w.Mach.K.Run() to execute). Rank i runs on
// machine node i.
func (w *World) Launch(name string, body func(r *Rank)) {
	for i := 0; i < w.Size(); i++ {
		i := i
		w.Mach.K.SpawnOn(i, fmt.Sprintf("%s.rank%d", name, i), func(p *sim.Proc) {
			body(&Rank{w: w, id: i, node: w.Mach.Node(i), proc: p})
		})
	}
}

// Attach creates a Rank handle for an existing simulated process p acting as
// rank id (used by the SAGE runtime, which manages its own threads).
func (w *World) Attach(id int, p *sim.Proc) *Rank {
	if id < 0 || id >= w.Size() {
		panic(fmt.Sprintf("mpi: attach to rank %d of world size %d", id, w.Size()))
	}
	return &Rank{w: w, id: id, node: w.Mach.Node(id), proc: p}
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
func (r *Rank) Send(dst, tag int, body Payload) {
	if dst < 0 || dst >= r.Size() {
		panic(fmt.Sprintf("mpi: send to rank %d of world size %d", dst, r.Size()))
	}
	bytes := body.Bytes + EnvelopeBytes
	var arrival sim.Time
	if !r.w.Mach.Faults().Enabled() {
		arrival = r.node.Transfer(r.proc, dst, bytes)
	} else {
		arrival = r.sendResilient(dst, bytes)
	}
	ep := r.w.endpoints[dst]
	m := message{src: r.id, tag: tag, body: body}
	if arrival <= r.proc.Now() {
		// Only self-transfers arrive instantly (cross-node latency is
		// always positive), so delivering inline stays on dst's shard.
		ep.deliver(m)
		return
	}
	// Delivery executes on dst's shard; the fabric latency of a
	// cross-shard link is what bounds the kernel's lookahead.
	f := r.w.endpoints[r.id].getFlight(ep, m)
	r.proc.AfterOn(dst, arrival.Sub(r.proc.Now()), f.fire)
}

// sendResilient pushes bytes to dst through the fault injector, retrying
// failed attempts with backoff and escalating to the maintenance path after
// the attempt budget. Returns the arrival time of the attempt that succeeded.
func (r *Rank) sendResilient(dst, bytes int) sim.Time {
	pol := r.w.retryPolicy()
	start := r.proc.Now()
	for attempt := 1; ; attempt++ {
		arrival, ok := r.node.TryTransfer(r.proc, dst, bytes)
		if ok {
			if attempt > 1 {
				r.Trace().FaultSpan(r.id, fmt.Sprintf("retry %d->%d x%d", r.id, dst, attempt-1),
					start, r.proc.Now())
			}
			return arrival
		}
		if attempt >= pol.MaxAttempts {
			arrival := r.node.Transfer(r.proc, dst, bytes)
			r.Trace().FaultSpan(r.id, fmt.Sprintf("giveup %d->%d", r.id, dst), start, r.proc.Now())
			return arrival
		}
		r.proc.Sleep(pol.BackoffFor(attempt))
	}
}

// Recv blocks until a message from src with the given tag arrives, charges
// the receive software overhead, and returns the payload.
func (r *Rank) Recv(src, tag int) Payload {
	if src < 0 || src >= r.Size() {
		panic(fmt.Sprintf("mpi: recv from rank %d of world size %d", src, r.Size()))
	}
	m := r.w.endpoints[r.id].recv(r.proc, src, tag)
	r.node.RecvOverhead(r.proc)
	return m.body
}

// RecvTimeout is Recv with a deadline: it blocks until a message from src
// with the given tag arrives or duration d of virtual time elapses. On
// timeout it returns ok == false without charging the receive overhead (no
// message was processed). Resilient runtimes use it to re-arm receives and
// interleave recovery work instead of blocking indefinitely on a degraded
// peer.
func (r *Rank) RecvTimeout(src, tag int, d sim.Duration) (body Payload, ok bool) {
	if src < 0 || src >= r.Size() {
		panic(fmt.Sprintf("mpi: recv from rank %d of world size %d", src, r.Size()))
	}
	m, ok := r.w.endpoints[r.id].recvTimeout(r.proc, src, tag, d)
	if !ok {
		return Payload{}, false
	}
	r.node.RecvOverhead(r.proc)
	return m.body, true
}

// Sendrecv sends to dst and then receives from src (safe because Send does
// not block on the receiver).
func (r *Rank) Sendrecv(dst, sendTag int, body Payload, src, recvTag int) Payload {
	r.Send(dst, sendTag, body)
	return r.Recv(src, recvTag)
}

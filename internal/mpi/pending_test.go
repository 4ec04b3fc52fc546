package mpi

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// refWaiter is a blocked receive as the reference queue sees it: the id the
// test gave it, its key, and its deadline (0 when untimed).
type refWaiter struct {
	id       int
	src, tag int
	deadline sim.Time
}

// refEndpoint is the receive engine before pending entries had counts: a
// plain slice of messages in arrival order, each one its own entry.
type refEndpoint struct {
	pending []message
	waiters []refWaiter
}

// deliver hands m to the first waiter for its key, reporting that waiter's
// id, or queues it and reports -1.
func (r *refEndpoint) deliver(m message) int {
	for i, w := range r.waiters {
		if matches(&m, w.src, w.tag) {
			r.waiters = slices.Delete(r.waiters, i, i+1)
			return w.id
		}
	}
	r.pending = append(r.pending, m)
	return -1
}

// match takes the oldest pending message for (src, tag), or queues waiter id.
func (r *refEndpoint) match(id, src, tag int, deadline sim.Time) (message, bool) {
	for i := range r.pending {
		if matches(&r.pending[i], src, tag) {
			m := r.pending[i]
			r.pending = slices.Delete(r.pending, i, i+1)
			return m, true
		}
	}
	r.waiters = append(r.waiters, refWaiter{id: id, src: src, tag: tag, deadline: deadline})
	return message{}, false
}

// expire withdraws every timed waiter whose deadline has passed and reports
// their ids.
func (r *refEndpoint) expire(now sim.Time) []int {
	var out []int
	r.waiters = slices.DeleteFunc(r.waiters, func(w refWaiter) bool {
		if w.deadline != 0 && w.deadline <= now {
			out = append(out, w.id)
			return true
		}
		return false
	})
	return out
}

// pendingKeys is the number of (src, tag) pairs a driven sequence uses.
const pendingKeys = 4

func pendingKey(k int) (src, tag int) { return k & 1, 5 + k>>1 }

// drivePending runs the operations ops encodes — two bytes each — on one
// endpoint and on the reference, and returns the first difference. The
// first byte's low two bits pick the operation (deliver, receive, timed
// receive, let time pass) and its next bits the (src, tag); the second byte
// picks the body (bodiless of 0 or 8 bytes, or a distinct bodied payload),
// a timeout or a pause. Operations run at even microseconds and timeouts are
// odd, so no timeout ever ties with an operation.
func drivePending(ops []byte) error {
	k := sim.NewKernel()
	e := &endpoint{k: k}
	ref := &refEndpoint{}
	live := map[*waiter]int{} // waiters begun and not yet resolved, by id
	var err error
	k.Spawn("ops", func(p *sim.Proc) {
		// resolved takes what each live waiter was handed since the last
		// look, checks the hand-over against the reference's, and recycles
		// the waiter.
		resolved := func(handed map[int]message, timedOut []int) error {
			for w, id := range live {
				got, ok := w.ch.TryRecv()
				want, handedOver := handed[id]
				switch {
				case !ok && !handedOver && !slices.Contains(timedOut, id):
					continue
				case !ok:
					return fmt.Errorf("waiter %d got nothing; the reference resolved it", id)
				case w.timedOut != slices.Contains(timedOut, id):
					return fmt.Errorf("waiter %d timed out %v; the reference says %v", id, w.timedOut, !w.timedOut)
				case handedOver && got != want:
					return fmt.Errorf("waiter %d got %+v; the reference handed it %+v", id, got, want)
				case !handedOver && !w.timedOut:
					return fmt.Errorf("waiter %d got %+v; the reference did not resolve it", id, got)
				}
				delete(live, w)
				e.putWaiter(w)
			}
			return nil
		}
		nextID := 0
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			src, tag := pendingKey(int(op>>2) % pendingKeys)
			switch op & 3 {
			case 0: // deliver
				m := message{src: int32(src), tag: int32(tag), body: Payload{Bytes: 8 * int(arg&1)}}
				if arg%3 == 2 {
					m.body = Payload{Bytes: 8, Data: new(int)}
				}
				e.deliver(m)
				handed := map[int]message{}
				if id := ref.deliver(m); id >= 0 {
					handed[id] = m
				}
				if err = resolved(handed, nil); err != nil {
					return
				}
			case 1, 2: // receive, untimed or timed
				timed := op&3 == 2
				d := sim.Duration(2*int(arg%8)+1) * time.Microsecond
				var deadline sim.Time
				if timed {
					deadline = p.Now().Add(d)
				}
				m, w := e.match(p, src, tag, timed, d)
				want, took := ref.match(nextID, src, tag, deadline)
				if took != (w == nil) {
					err = fmt.Errorf("op %d: receive (%d, %d) queued a waiter %v; the reference %v", i/2, src, tag, w != nil, !took)
					return
				}
				if took && m != want {
					err = fmt.Errorf("op %d: receive (%d, %d) took %+v; the reference %+v", i/2, src, tag, m, want)
					return
				}
				if !took {
					live[w] = nextID
					nextID++
				}
			case 3: // let time pass
				p.Sleep(sim.Duration(2*(1+int(arg%4))) * time.Microsecond)
				if err = resolved(nil, ref.expire(p.Now())); err != nil {
					return
				}
			}
			if err = sameQueues(e, ref, live); err != nil {
				err = fmt.Errorf("op %d: %w", i/2, err)
				return
			}
		}
	})
	if runErr := k.Run(); runErr != nil {
		return runErr
	}
	return err
}

// sameQueues compares the endpoint's state with the reference's: the same
// waiters in the same order, and per (src, tag) the same pending messages in
// the same order once each entry is expanded to the copies it stands for.
func sameQueues(e *endpoint, ref *refEndpoint, live map[*waiter]int) error {
	if len(e.waiters) != len(ref.waiters) {
		return fmt.Errorf("%d waiters; the reference has %d", len(e.waiters), len(ref.waiters))
	}
	for i, w := range e.waiters {
		if live[w] != ref.waiters[i].id {
			return fmt.Errorf("waiter %d is %d; the reference's is %d", i, live[w], ref.waiters[i].id)
		}
	}
	for key := 0; key < pendingKeys; key++ {
		src, tag := pendingKey(key)
		var got, want []message
		for _, q := range e.pending {
			if q.n < 1 {
				return fmt.Errorf("a pending entry stands for %d messages", q.n)
			}
			for c := 0; c < q.n && matches(&q.m, src, tag); c++ {
				got = append(got, q.m)
			}
		}
		for _, m := range ref.pending {
			if matches(&m, src, tag) {
				want = append(want, m)
			}
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("pending (%d, %d) is %+v; the reference's %+v", src, tag, got, want)
		}
	}
	return nil
}

// FuzzPendingMatchesReference: an endpoint whose pending entries count
// identical bodiless messages behaves exactly like a plain queue of
// messages — every receive takes the same message, every delivery hands
// over to the same waiter, every timeout withdraws the same one — over any
// interleaving of deliveries, receives and timed receives on a few (src,
// tag) pairs.
func FuzzPendingMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 4, 0, 1, 0, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{2, 3, 0, 0, 3, 3, 0, 0, 6, 1, 0, 2, 4, 0, 3, 7, 5, 0, 0, 0})
	rng := rand.New(rand.NewSource(39))
	for i := 0; i < 64; i++ {
		ops := make([]byte, 2*(8+rng.Intn(56)))
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if err := drivePending(ops); err != nil {
			t.Fatalf("%v\nops: %v", err, ops)
		}
	})
}

// TestCreditReturnsHoldOneEntry: k credit returns on one lane are one
// pending entry, drained one per receive; a bodied message or a different
// size starts a new entry, so each lane still drains in arrival order.
func TestCreditReturnsHoldOneEntry(t *testing.T) {
	e := &endpoint{}
	const k = 128
	credit := message{src: 3, tag: 9}
	for i := 0; i < k; i++ {
		e.deliver(credit)
	}
	if len(e.pending) != 1 || e.pending[0].n != k {
		t.Fatalf("%d credit returns are %d pending entries %+v, want one of %d", k, len(e.pending), e.pending, k)
	}
	for i := 0; i < k; i++ {
		if m, w := e.match(nil, 3, 9, false, 0); w != nil || m != credit {
			t.Fatalf("receive %d got %+v (waiter %v), want the credit", i, m, w)
		}
	}
	if len(e.pending) != 0 {
		t.Fatalf("%d entries left after draining, want 0", len(e.pending))
	}

	data := message{src: 3, tag: 9, body: Payload{Bytes: 8, Data: new(int)}}
	sized := message{src: 3, tag: 9, body: Payload{Bytes: 8}}
	other := message{src: 3, tag: 10}
	for _, m := range []message{credit, credit, data, credit, sized, sized, other, credit} {
		e.deliver(m)
	}
	wantEntries := []queued{{credit, 2}, {data, 1}, {credit, 1}, {sized, 2}, {other, 1}, {credit, 1}}
	if !slices.Equal(e.pending, wantEntries) {
		t.Fatalf("pending %+v, want %+v", e.pending, wantEntries)
	}
}

// TestTagBeyond32BitsPanics: the envelope carries a 32-bit tag, so a send or
// receive with a wider one is refused rather than matched under a truncated
// tag.
func TestTagBeyond32BitsPanics(t *testing.T) {
	for _, recv := range []bool{false, true} {
		k, w := world(2)
		var msg any
		w.Launch("wide", func(r *Rank) {
			if r.ID() != 0 {
				return
			}
			defer func() { msg = recover() }()
			if recv {
				r.Recv(1, 1<<40)
			} else {
				r.Send(1, 1<<40, Empty())
			}
		})
		run(t, k)
		if msg != "mpi: tag 1099511627776 does not fit 32 bits" {
			t.Errorf("recv=%v: a 41-bit tag panics with %v", recv, msg)
		}
	}
}

// TestAllocCeilingCreditReturns: a producer that reads its credit returns
// late — lanes x slots of them queued, as a pipelined fan-out's producer
// leaves them — holds one pending entry per lane. The consumer returns a
// credit for each data message as soon as it has it, so one in-flight record
// travels back and forth; the whole exchange, world and kernel included,
// allocates less than one 40-byte entry per credit return would on its own.
func TestAllocCeilingCreditReturns(t *testing.T) {
	const lanes, slots = 64, 128
	const creditTag = TagUserLimit / 2
	body := new([4]complex128)
	var queued int
	exchange := func() {
		k, w := world(2)
		w.Launch("credits", func(r *Rank) {
			if r.ID() == 1 {
				for i := 0; i < slots*lanes; i++ {
					l := i % lanes
					r.Recv(0, l)
					r.Send(0, creditTag+l, Empty())
				}
				return
			}
			for i := 0; i < slots*lanes; i++ {
				r.Send(1, i%lanes, Payload{Bytes: 64, Data: body})
				r.Proc().Sleep(time.Millisecond) // the consumer's compute
			}
			queued = len(w.endpoints[0].pending)
			for i := 0; i < slots*lanes; i++ {
				r.Recv(1, creditTag+i%lanes)
			}
		})
		run(t, k)
	}
	exchange()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	exchange()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d credit returns on %d lanes: %d pending entries, %d bytes", lanes*slots, lanes, queued, bytes)
	if queued != lanes {
		t.Errorf("%d pending entries for %d lanes of credit returns, want %d", queued, lanes, lanes)
	}
	if ceiling := uint64(lanes * slots * 40); bytes > ceiling {
		t.Errorf("the exchange allocates %d bytes, want <= %d", bytes, ceiling)
	}
}

// TestAllocCeilingOneWay: a message in flight is a record from its world's
// free list, returned there on arrival, so one-way traffic — rank 1 streams
// bodiless messages to rank 0, which reads them all at the end — reuses a
// handful of records instead of allocating one per message. The exchange
// runs twice and the second run is measured, as in
// TestAllocCeilingCreditReturns.
func TestAllocCeilingOneWay(t *testing.T) {
	const msgs = 8192
	exchange := func() {
		k, w := world(2)
		w.Launch("oneway", func(r *Rank) {
			if r.ID() == 1 {
				for i := 0; i < msgs; i++ {
					r.Send(0, 0, Empty())
				}
				return
			}
			r.Proc().Sleep(time.Second)
			for i := 0; i < msgs; i++ {
				r.Recv(1, 0)
			}
		})
		run(t, k)
	}
	exchange()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	exchange()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d one-way messages: %d bytes", msgs, bytes)
	if ceiling := uint64(msgs * 4); bytes > ceiling {
		t.Errorf("the exchange allocates %d bytes, want <= %d", bytes, ceiling)
	}
}

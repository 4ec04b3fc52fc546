package sim

import (
	"math/rand"
	"testing"
)

// This file keeps the event queue the radix queue (queue.go) replaced — a
// 4-ary heap of future events merged with the same-time FIFO lane — as the
// oracle TestQueueMatchesHeapOracle holds it to.

// eventHeap is a 4-ary min-heap of events ordered by (time, sequence). The
// sequence tiebreak guarantees deterministic ordering of simultaneous events:
// earlier-scheduled events fire first.
//
// A 4-ary layout halves the tree depth of a binary heap, so sifts touch
// fewer cache lines, and both sift paths move a "hole" instead of swapping:
// each level costs one pointer store rather than three.
type eventHeap struct {
	items []*event
}

func (h *eventHeap) len() int { return len(h.items) }

// top returns the earliest event without removing it, or nil if empty.
func (h *eventHeap) top() *event {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0]
}

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e *event) {
	i := len(h.items)
	h.items = append(h.items, nil)
	// Sift the hole up: parents slide down until e's slot is found.
	for i > 0 {
		parent := (i - 1) / 4
		p := h.items[parent]
		if !eventLess(e, p) {
			break
		}
		h.items[i] = p
		i = parent
	}
	h.items[i] = e
}

// pop removes and returns the earliest event, or nil if the heap is empty.
func (h *eventHeap) pop() *event {
	n := len(h.items)
	if n == 0 {
		return nil
	}
	top := h.items[0]
	n--
	last := h.items[n]
	h.items[n] = nil
	h.items = h.items[:n]
	if n > 0 {
		// Sift the hole down from the root: the smallest child slides up
		// until `last` fits.
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			min := first
			mv := h.items[first]
			end := first + 4
			if end > n {
				end = n
			}
			for j := first + 1; j < end; j++ {
				if eventLess(h.items[j], mv) {
					min, mv = j, h.items[j]
				}
			}
			if !eventLess(mv, last) {
				break
			}
			h.items[i] = mv
			i = min
		}
		h.items[i] = last
	}
	return top
}

// heapQueue is the shard queue as it was: the FIFO lane holds the events
// due at the clock, in seq order, and the heap the rest.
type heapQueue struct {
	heap       eventHeap
	head, tail *event
	laneLen    int
}

// push is the old enqueue: onto the lane if due now, into the heap if later.
// A mailbox delivery went straight to the heap (pushed with now < at).
func (o *heapQueue) push(ev *event, now Time) {
	if ev.at != now {
		o.heap.push(ev)
		return
	}
	if o.tail == nil {
		o.head = ev
	} else {
		o.tail.next = ev
	}
	o.tail = ev
	o.laneLen++
}

// pop is the old popEvent: it merges the lane with the heap and refuses
// heap events at or beyond the horizon. A heap entry can tie the lane
// head's time only with a smaller sequence number, so the comparison keeps
// exact scheduling order.
func (o *heapQueue) pop(horizon Time) *event {
	if f := o.head; f != nil {
		if t := o.heap.top(); t == nil || eventLess(f, t) {
			o.head = f.next
			if o.head == nil {
				o.tail = nil
			}
			f.next = nil
			o.laneLen--
			return f
		}
	}
	if t := o.heap.top(); t == nil || t.at >= horizon {
		return nil
	}
	return o.heap.pop()
}

// next is the old nextAt: the earlier of the heap's top and the lane head.
func (o *heapQueue) next() Time {
	t := maxTime
	if top := o.heap.top(); top != nil {
		t = top.at
	}
	if o.head != nil && o.head.at < t {
		t = o.head.at
	}
	return t
}

// renumber is the old mergeWindow loop over the heap's items and the lane.
func (o *heapQueue) renumber(base uint64, trueOf []uint64) {
	fix := func(ev *event) {
		if ev.seq > base {
			ev.seq = trueOf[ev.seq-base-1]
		}
	}
	for _, ev := range o.heap.items {
		fix(ev)
	}
	for f := o.head; f != nil; f = f.next {
		fix(f)
	}
}

// TestQueueMatchesHeapOracle feeds a shard's queue and the heap it replaced
// the same seeded operation streams — pushes at or after the clock, lane
// appends at it, pops under window horizons that refuse and that accept,
// and window barriers that renumber provisional sequence numbers the way
// mergeWindow does and then deliver a mailbox of cross-shard events in
// arbitrary order — and requires the same (at, seq) from every pop, the
// same length after every operation and the same window snapshot at every
// barrier. Time scales run from all-ties to sparse, so every bucket, the
// tie sort and the refusal path are taken.
func TestQueueMatchesHeapOracle(t *testing.T) {
	const streams = 10000
	var pops, refused, ties, barriers, mailed int
	for seed := 0; seed < streams; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		s := NewKernel().s0
		s.outbox = make([][]*event, 1)
		var o heapQueue
		var oBox []*event
		var now Time
		var seq, base uint64
		scale := int64(1) << (4 * rng.Intn(10)) // 1 ns .. 2^36 ns
		var times []Time                        // every time pushed, for ties
		pair := func(at Time) (*event, *event) {
			seq++
			times = append(times, at)
			return &event{at: at, seq: seq}, &event{at: at, seq: seq}
		}
		// later draws a time after the clock: often one already queued.
		later := func() Time {
			if len(times) > 0 && rng.Intn(3) == 0 {
				if at := times[rng.Intn(len(times))]; at > now {
					return at
				}
			}
			return now + 1 + Time(rng.Int63n(4*scale))
		}
		pop := func(horizon Time) bool {
			s.horizon = horizon
			got, want := s.queue.pop(s.horizon), o.pop(horizon)
			switch {
			case (got == nil) != (want == nil):
				t.Fatalf("seed %d: pop under horizon %v = %v, oracle %v", seed, horizon, got, want)
			case got == nil:
				refused++
				return false
			case got.at != want.at || got.seq != want.seq:
				t.Fatalf("seed %d: pop = (%v, %d), oracle (%v, %d)", seed, got.at, got.seq, want.at, want.seq)
			case got.at < now:
				t.Fatalf("seed %d: pop at %v before the clock %v", seed, got.at, now)
			}
			if got.at == now {
				ties++
			}
			pops++
			now = got.at
			return true
		}
		for op, n := 0, 20+rng.Intn(200); op < n; op++ {
			switch r := rng.Intn(100); {
			case r < 15: // a lane append: due now
				a, b := pair(now)
				s.queue.push(a)
				o.push(b, now)
			case r < 50: // a future push
				a, b := pair(later())
				s.queue.push(a)
				o.push(b, now)
			case r < 58: // a cross-shard event, delivered at the next barrier
				a, b := pair(later())
				s.outbox[0] = append(s.outbox[0], a)
				oBox = append(oBox, b)
			case r < 85: // an unbounded pop
				pop(maxTime)
			case r < 95: // a pop under a window horizon that may refuse it
				pop(now + 1 + Time(rng.Int63n(4*scale)))
			default: // a window barrier
				for s.queue.head != nil {
					pop(maxTime)
				}
				if got, want := s.queue.next(), o.next(); got != want {
					t.Fatalf("seed %d: window snapshot %v, oracle %v", seed, got, want)
				}
				// The window's allocations get strictly increasing true
				// numbers above base, with other shards' in the gaps.
				trueOf := make([]uint64, seq-base)
				next := base
				for j := range trueOf {
					next += 1 + uint64(rng.Intn(3))
					trueOf[j] = next
				}
				s.base = base
				s.renumber(trueOf)
				o.renumber(base, trueOf)
				for _, ev := range oBox {
					if ev.seq > base {
						ev.seq = trueOf[ev.seq-base-1]
					}
				}
				seq, base = next, next
				// Mailboxes deliver in any order; an event the clock has
				// since passed could not have been sent, so neither side
				// gets it.
				perm := rng.Perm(len(oBox))
				for _, i := range perm {
					if a, b := s.outbox[0][i], oBox[i]; a.at > now {
						s.queue.push(a)
						o.push(b, now)
						mailed++
					}
				}
				s.outbox[0], oBox = s.outbox[0][:0], oBox[:0]
				barriers++
			}
			if got, want := s.queue.len(), o.heap.len()+o.laneLen; got != want {
				t.Fatalf("seed %d op %d: %d queued, oracle %d", seed, op, got, want)
			}
		}
		for pop(maxTime) {
		}
		if s.queue.len() != 0 || o.heap.len() != 0 || o.head != nil {
			t.Fatalf("seed %d: drained queue holds %d, oracle %d", seed, s.queue.len(), o.heap.len())
		}
	}
	t.Logf("%d streams: %d pops (%d at the previous pop's instant), %d refused, %d barriers, %d mailbox events",
		streams, pops, ties, refused, barriers, mailed)
	if ties == 0 || refused == 0 || mailed == 0 {
		t.Fatal("the streams missed a path: ties, refusals or mailbox deliveries")
	}
}

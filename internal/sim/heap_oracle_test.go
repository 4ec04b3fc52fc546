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

// heapQueue is the kernel's queue as it was: the FIFO lane holds the events
// due at the clock, in seq order, and the heap the rest.
type heapQueue struct {
	heap       eventHeap
	head, tail *event
	laneLen    int
}

// push is the old enqueue: onto the lane if due now, into the heap if later.
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

// pop is the old popEvent: it merges the lane with the heap. A heap entry
// can tie the lane head's time only with a smaller sequence number, so the
// comparison keeps exact scheduling order.
func (o *heapQueue) pop() *event {
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
	if o.heap.top() == nil {
		return nil
	}
	return o.heap.pop()
}

// TestQueueMatchesHeapOracle feeds the kernel's queue and the heap it
// replaced the same seeded operation streams — pushes at or after the
// clock, lane appends at it and pops — and requires the same (at, seq) from
// every pop and the same length after every operation. Time scales run from
// all-ties to sparse, so every bucket and the tie sort are taken.
func TestQueueMatchesHeapOracle(t *testing.T) {
	const streams = 10000
	var pops, ties int
	for seed := 0; seed < streams; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		var q eventQueue
		var o heapQueue
		var now Time
		var seq uint64
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
		pop := func() bool {
			got, want := q.pop(), o.pop()
			switch {
			case (got == nil) != (want == nil):
				t.Fatalf("seed %d: pop = %v, oracle %v", seed, got, want)
			case got == nil:
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
				q.push(a)
				o.push(b, now)
			case r < 55: // a future push
				a, b := pair(later())
				q.push(a)
				o.push(b, now)
			default:
				pop()
			}
			if got, want := q.len(), o.heap.len()+o.laneLen; got != want {
				t.Fatalf("seed %d op %d: %d queued, oracle %d", seed, op, got, want)
			}
		}
		for pop() {
		}
		if q.len() != 0 || o.heap.len() != 0 || o.head != nil {
			t.Fatalf("seed %d: drained queue holds %d, oracle %d", seed, q.len(), o.heap.len())
		}
	}
	t.Logf("%d streams: %d pops (%d at the previous pop's instant)", streams, pops, ties)
	if ties == 0 {
		t.Fatal("the streams missed a path: no pop tied the clock")
	}
}

package sim

import "math/bits"

// eventQueue is the kernel's event queue: a FIFO lane of the events due at the
// current instant, in seq order, in front of a monotone radix queue of the
// future ones (Ahuja, Mehlhorn, Orlin and Tarjan, 1990). When the lane
// empties, advance hands it the whole next instant, so dispatch order is
// (time, seq) and the lane never competes with the buckets.
//
// Invariant: last is the instant the queue last advanced to — the kernel's
// clock. Every queued time is >= last; an event at last rides the lane, any
// other sits in bucket bits.Len64(at ^ last), one past the highest bit in
// which its time differs from last. So every time in a lower bucket is
// earlier than every time in a higher one, and moving last to the earliest
// time m of the lowest non-empty bucket leaves higher buckets as they are
// and sends every other event of m's bucket lower (it shares m's bits from
// that bucket's bit up). The buckets are intrusive lists threaded through
// event.next: a push is an XOR, a bit length and a prepend.
type eventQueue struct {
	last       Time
	bucket     [64]*event
	full       uint64 // bit b set iff bucket[b] is non-empty
	n          int    // events queued, lane included
	head, tail *event // the lane
	// An observe-only census: events filed in a bucket by a push, and
	// re-filings into a lower bucket.
	pushes, moves uint64
}

func (q *eventQueue) len() int { return q.n }

// push queues ev, due at or after last.
func (q *eventQueue) push(ev *event) {
	q.n++
	if ev.at == q.last {
		q.toLane(ev)
		return
	}
	q.pushes++
	q.file(ev)
}

func (q *eventQueue) file(ev *event) {
	b := bits.Len64(uint64(ev.at ^ q.last))
	ev.next = q.bucket[b]
	q.bucket[b] = ev
	q.full |= 1 << b
}

// toLane inserts ev, due at last, into the lane by seq. A push at the
// instant carries the newest seq, and a handed-over instant arrives mostly
// in ascending or (from a bucket's prepends) descending order, so both ends
// are O(1); the walk sorts a bucket whose re-filings mixed the two.
func (q *eventQueue) toLane(ev *event) {
	if q.head == nil || ev.seq > q.tail.seq {
		ev.next = nil
		if q.head == nil {
			q.head = ev
		} else {
			q.tail.next = ev
		}
		q.tail = ev
		return
	}
	p := &q.head
	for (*p).seq < ev.seq {
		p = &(*p).next
	}
	ev.next, *p = *p, ev
}

// pop removes the earliest event by (time, seq), or returns nil when none
// is queued.
func (q *eventQueue) pop() *event {
	if q.head == nil && !q.advance() {
		return nil
	}
	ev := q.head
	if q.head = ev.next; q.head == nil {
		q.tail = nil
	}
	ev.next = nil
	q.n--
	return ev
}

// earliest returns the lowest non-empty bucket and its earliest time, the
// earliest in the buckets, which must not be empty.
// A per-bucket minimum kept by file was slower: wide1024 10.9 → 11.6 ms, 6 of 8 pairs.
func (q *eventQueue) earliest() (int, Time) {
	b := bits.TrailingZeros64(q.full)
	m := q.bucket[b].at
	for ev := q.bucket[b].next; ev != nil; ev = ev.next {
		m = min(m, ev.at)
	}
	return b, m
}

// advance moves last to the earliest time m in the buckets, hands the empty
// lane every event at m and re-files the rest of m's bucket. It reports
// false, changing nothing, when the buckets are empty.
func (q *eventQueue) advance() bool {
	if q.full == 0 {
		return false
	}
	b, m := q.earliest()
	ev := q.bucket[b]
	q.bucket[b], q.full, q.last = nil, q.full&^(1<<b), m
	for ev != nil {
		next := ev.next
		if ev.at == m {
			q.toLane(ev)
		} else {
			q.file(ev)
			q.moves++
		}
		ev = next
	}
	return true
}

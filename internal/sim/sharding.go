package sim

// Conservative sharded execution: the kernel is partitioned into K shards
// that advance concurrently inside lookahead windows and exchange
// cross-shard events through per-(src,dst) mailboxes at window barriers.
// A barrier-time sequencer replay assigns every event scheduled during a
// window the exact sequence number the sequential kernel would have used,
// which makes every output — dispatch order, dispatch count, traces, all
// simulated results — byte-identical to the K=1 run. DESIGN.md §12 gives
// the algorithm and the determinism argument; this file is its
// implementation.

import "fmt"

// ShardDispatch identifies one dispatched event of a window in the exact
// global sequential order: the shard that executed it and the index into
// that shard's window dispatch log. ShardTracer implementations replay
// their per-shard records in this order.
type ShardDispatch struct {
	Shard, Index int32
}

// ShardTracer is the tracer contract for sharded kernels. A sharded run
// fires trace hooks concurrently (one goroutine per shard), so a plain
// Tracer cannot observe it; a ShardTracer instead provides one child Tracer
// per shard at run start, and at each window barrier receives the exact
// sequential interleaving of the window's dispatches so it can merge the
// children's records into the order the K=1 run would have produced.
// internal/trace.Collector implements it.
type ShardTracer interface {
	Tracer
	// ShardStart is called once, before the first window, with the owning
	// kernel and shard count. It returns one child Tracer per shard; child
	// i observes shard i's hooks under the single-goroutine-per-shard
	// contract. The children may read the kernel's per-shard dispatch
	// cursors (Kernel.ShardCursor) to tag records with the dispatch that
	// produced them.
	ShardStart(k *Kernel, nshards int) []Tracer
	// WindowEnd is called at each window barrier (single-threaded, all
	// shard workers quiescent) with the window's dispatches in exact
	// sequential order. Implementations merge and clear the children's
	// window records here.
	WindowEnd(order []ShardDispatch)
	// RunEnd is called once after the last window, before teardown-phase
	// hooks (which fire on the parent directly). Implementations fold any
	// remaining child state into the parent.
	RunEnd()
}

// WindowStats is a sharded run's window census (Kernel.WindowStats): how
// much of the run the shards could have executed concurrently. It observes
// the run and changes nothing in it.
type WindowStats struct {
	Windows    uint64 // lookahead windows run
	Concurrent uint64 // windows in which two or more shards dispatched an event
	Events     uint64 // events dispatched (Dispatched)
	Mailbox    uint64 // events that crossed shards through a window mailbox
}

// WindowStats reports the window census. Like Switches it is counted at the
// window barrier: exact after Run, as of the latest barrier during a window.
// An unsharded kernel runs no windows and reports only its events.
func (k *Kernel) WindowStats() WindowStats {
	st := k.census
	st.Events = k.Dispatched()
	return st
}

// NumShards reports the kernel's shard count (1 unless SetShards was used).
func (k *Kernel) NumShards() int { return k.nsh }

// Lookahead reports the cross-shard latency bound given to SetShards
// (0 on an unsharded kernel).
func (k *Kernel) Lookahead() Duration { return Duration(k.lookahead) }

// ShardOf reports the shard index owning a scheduling domain.
func (k *Kernel) ShardOf(domain int) int {
	if k.shardOf == nil {
		return 0
	}
	return int(k.shardOf[domain])
}

// ShardCursor returns a pointer to shard i's dispatch-log cursor: during a
// parallel window it holds the index (into the window's dispatch log) of
// the dispatch currently executing on that shard. Shard-i trace hooks read
// it to tag records for barrier-time reordering; nothing else should.
func (k *Kernel) ShardCursor(i int) *uint64 { return &k.shards[i].di }

// shardFor maps a scheduling domain to its shard (shard 0 when unsharded).
func (k *Kernel) shardFor(domain int) *shard {
	if k.shardOf == nil {
		return k.s0
	}
	return k.shards[k.shardOf[domain]]
}

// SetShards partitions the kernel into n shards. domainOf maps every
// scheduling domain (machine-model node) to a shard in [0,n); lookahead is
// the minimum virtual latency of any event crossing between shards — the
// conservative bound that makes windowed parallel execution sound. Callers
// derive it from machine topology (the minimum latency of any cut link);
// Proc.AfterOn enforces it per event.
//
// SetShards must be called on a fresh kernel, before anything is scheduled.
// n=1 is a no-op (the kernel keeps the classic sequential path). n>1
// requires lookahead > 0.
func (k *Kernel) SetShards(n int, domainOf []int, lookahead Duration) {
	if n < 1 {
		panic("sim: SetShards with n < 1")
	}
	if k.seqG != 0 || len(k.procs) > 0 || k.nsh != 1 || k.s0.queue.len() != 0 {
		panic("sim: SetShards after scheduling began (call it on a fresh kernel, first)")
	}
	if n == 1 {
		return
	}
	if lookahead <= 0 {
		panic("sim: SetShards with non-positive lookahead")
	}
	k.nsh = n
	k.lookahead = Time(lookahead)
	k.shardOf = make([]int32, len(domainOf))
	for d, sh := range domainOf {
		if sh < 0 || sh >= n {
			panic(fmt.Sprintf("sim: domain %d mapped to shard %d outside [0,%d)", d, sh, n))
		}
		k.shardOf[d] = int32(sh)
	}
	k.shards = make([]*shard, n)
	k.shards[0] = k.s0
	for i := 1; i < n; i++ {
		k.shards[i] = &shard{k: k, horizon: maxTime}
	}
	for i, s := range k.shards {
		s.id = i
		s.cancelLeft = k.cancelEvery
		s.outbox = make([][]*event, n)
		s.tracer = k.tracer
	}
	k.windowDone = make(chan struct{}, n)
	k.trueOf = make([][]uint64, n)
	k.dispOf = make([][]int32, n)
}

// startWorkers launches one window-worker goroutine per shard. Each worker
// blocks on its windowGo channel, runs one window when signalled, and
// reports on windowDone. Workers exit when windowGo closes (stopWorkers).
func (k *Kernel) startWorkers() {
	for _, s := range k.shards {
		s.windowGo = make(chan struct{})
		go s.windowWorker()
	}
	k.workersUp = true
}

func (k *Kernel) stopWorkers() {
	if !k.workersUp {
		return
	}
	for _, s := range k.shards {
		close(s.windowGo)
	}
	k.workersUp = false
}

// windowWorker drives one shard through successive windows. The channel
// receive/send pair brackets each window, transferring shard ownership
// from the coordinator to this goroutine and back (a full happens-before
// edge in each direction, so no shard field needs atomics).
func (s *shard) windowWorker() {
	for range s.windowGo {
		s.drive()
		s.k.windowDone <- struct{}{}
	}
}

// runSharded is Run for K>1: the conservative window loop.
//
// Each iteration: snapshot every shard's next-event time; give each shard
// the horizon min(next_j : j ≠ s) + lookahead (a shard may not simulate at
// or past the earliest instant at which another shard could send it work);
// run all shards concurrently to their horizons; then, single-threaded at
// the barrier, replay the window's dispatch logs in global (time, seq)
// order to assign exact sequential sequence numbers, merge trace records,
// and deliver the outbound mailboxes in fixed (src, dst) order. The loop
// ends when every shard is drained and every mailbox empty.
func (k *Kernel) runSharded() error {
	if k.tracer != nil {
		st, ok := k.tracer.(ShardTracer)
		if !ok {
			return fmt.Errorf("sim: sharded kernel requires a ShardTracer (got %T)", k.tracer)
		}
		children := st.ShardStart(k, k.nsh)
		if len(children) != k.nsh {
			return fmt.Errorf("sim: ShardStart returned %d tracers for %d shards", len(children), k.nsh)
		}
		for i, s := range k.shards {
			s.tracer = children[i]
		}
	}
	k.phase.Store(phaseRun)
	k.startWorkers()
	err := k.windowLoop()
	k.stopWorkers()
	k.phase.Store(phasePost)
	// Teardown-phase hooks (Shutdown's ProcEnd events) fire single-threaded
	// on the parent tracer; publish final counters for concurrent readers.
	for _, s := range k.shards {
		s.publish()
		s.tracer = k.tracer
	}
	if st, ok := k.tracer.(ShardTracer); ok {
		st.RunEnd()
	}
	return err
}

func (k *Kernel) windowLoop() error {
	for {
		if k.globalStop.Load() {
			return nil
		}
		// Snapshot next-event times and find the two smallest (min2 gives
		// the horizon of the unique min holder, which no other shard
		// constrains at min1). Between windows every lane is empty — each
		// event due at a clock's instant was dispatched before the horizon
		// cut in, and mailbox deliveries land strictly in the future — so a
		// shard's next time is the earliest in its queue's buckets.
		min1, min2 := maxTime, maxTime
		minCount := 0
		work := false
		for _, s := range k.shards {
			s.next = s.queue.next()
			if s.next != maxTime {
				work = true
			}
			if s.next < min1 {
				min1, min2 = s.next, min1
				minCount = 1
			} else if s.next == min1 && min1 != maxTime {
				minCount++
			} else if s.next < min2 {
				min2 = s.next
			}
		}
		if !work {
			// Globally drained: deadlock iff processes remain.
			if k.LiveProcs() > 0 {
				var at Time
				for _, s := range k.shards {
					if s.now > at {
						at = s.now
					}
				}
				return k.deadlockError(at)
			}
			return nil
		}
		// Arm the window: horizons, provisional sequencing, dispatch logs.
		for _, s := range k.shards {
			other := min1
			if s.next == min1 && minCount == 1 {
				other = min2
			}
			if other == maxTime {
				s.horizon = maxTime // self-cap in AfterOn still bounds it
			} else {
				s.horizon = other + k.lookahead
			}
			s.base = k.seqG
			s.seq = k.seqG
			s.log = s.log[:0]
			s.par = true
		}
		// Run the window on all shards concurrently.
		for _, s := range k.shards {
			s.windowGo <- struct{}{}
		}
		for range k.shards {
			<-k.windowDone
		}
		stopped := k.globalStop.Load()
		active := 0
		for _, s := range k.shards {
			s.par = false
			s.horizon = maxTime
			if len(s.log) > 0 {
				active++
			}
		}
		k.census.Windows++
		if active >= 2 {
			k.census.Concurrent++
		}
		if stopped {
			// Stop or cancel fired mid-window: the run's outputs are
			// abandoned (same contract as sequential Stop — state is
			// frozen for Shutdown, results are not reported), so no
			// sequencer replay or mailbox delivery is needed. Drop the
			// outboxes back to the free lists to keep teardown counts
			// exact.
			for _, s := range k.shards {
				for d := range s.outbox {
					for _, ev := range s.outbox[d] {
						s.release(ev)
					}
					s.outbox[d] = s.outbox[d][:0]
				}
				s.outCnt = 0
				s.publish()
			}
			return nil
		}
		k.mergeWindow()
		// Deliver mailboxes in fixed (src, dst) order. Every cross-shard
		// event is strictly in the destination's future (its delay was >=
		// lookahead and the destination never passed its horizon), so it
		// is filed in a bucket, never on the lane.
		for _, s := range k.shards {
			for d, box := range s.outbox {
				if len(box) == 0 {
					continue
				}
				dst := k.shards[d]
				k.census.Mailbox += uint64(len(box))
				for _, ev := range box {
					if ev.at < dst.now {
						panic("sim: cross-shard event arrived in the destination's past (lookahead violated)")
					}
					dst.queue.push(ev)
					s.outbox[d][0] = nil // help GC if boxes grow then shrink
				}
				s.outbox[d] = s.outbox[d][:0]
			}
			s.outCnt = 0
			s.publish()
		}
	}
}

// publish refreshes the barrier-published snapshots backing the concurrent
// accessors (Pending, Dispatched, Switches, Now).
func (s *shard) publish() {
	s.pubDispatched.Store(s.dispatched)
	s.pubSwitches.Store(s.switches)
	s.pubPending.Store(int64(s.queue.len() + s.outCnt))
	s.pubNow.Store(int64(s.now))
}

// mergeWindow assigns exact sequential sequence numbers to everything the
// window scheduled, and gives the tracer the window's global dispatch
// order. Runs single-threaded at the barrier.
//
// The sequential kernel dispatches events in (time, seq) order with seq
// assigned at scheduling time from one global counter. Inside the window
// each shard assigned provisional numbers base+1, base+2, ... (all shards
// share base = the global counter at window start); the replay discovers
// the true global interleaving and renumbers.
//
// Replay invariant: an event scheduled during the window can only be
// dispatched after the dispatch that scheduled it, and at a (time, seq) no
// earlier — so replaying dispatches in (time, trueSeq) order via a heap,
// where a dispatch's record becomes available (its true seq known) when
// the allocation that produced its event is attributed, always has the
// next dispatch's key at hand. Window-window-boundary note: events
// scheduled in an earlier window already carry true (old) numbers
// (seq <= base) and seed the heap directly.
func (k *Kernel) mergeWindow() {
	// Fast path: if only one shard dispatched anything this window, its
	// provisional numbers are already the true sequential numbers (same
	// base, one allocator), so no renumbering — and the dispatch order is
	// just its log order.
	active := -1
	multi := false
	total := 0
	for _, s := range k.shards {
		if len(s.log) > 0 || s.seq != s.base {
			total += len(s.log)
			if active >= 0 {
				multi = true
			}
			active = s.id
		}
	}
	if !multi {
		if active < 0 {
			return // nothing happened (all shards were at their horizons)
		}
		s := k.shards[active]
		k.seqG = s.seq
		if st, ok := k.tracer.(ShardTracer); ok {
			k.order = k.order[:0]
			for i := range s.log {
				k.order = append(k.order, ShardDispatch{Shard: int32(active), Index: int32(i)})
			}
			st.WindowEnd(k.order)
		}
		return
	}

	// dispOf[s][j]: index into shard s's log of the dispatch that consumed
	// provisional allocation j, or -1 if that event is still queued.
	// trueOf[s][j]: the true sequence number assigned to allocation j.
	for _, s := range k.shards {
		n := int(s.seq - s.base)
		k.dispOf[s.id] = resizeI32(k.dispOf[s.id], n)
		k.trueOf[s.id] = resizeU64(k.trueOf[s.id], n)
		for j := 0; j < n; j++ {
			k.dispOf[s.id][j] = -1
		}
		for i, rec := range s.log {
			if rec.seq > s.base {
				k.dispOf[s.id][rec.seq-s.base-1] = int32(i)
			}
		}
	}
	// Seed the replay heap with every dispatch of a pre-window event; its
	// key (at, seq) is already true.
	k.replay.reset()
	for _, s := range k.shards {
		for i, rec := range s.log {
			if rec.seq <= s.base {
				k.replay.push(refEntry{at: rec.at, seq: rec.seq, shard: int32(s.id), idx: int32(i)})
			}
		}
	}
	k.order = k.order[:0]
	next := k.seqG
	popped := 0
	for k.replay.len() > 0 {
		e := k.replay.pop()
		popped++
		k.order = append(k.order, ShardDispatch{Shard: e.shard, Index: e.idx})
		s := k.shards[e.shard]
		// Attribute the allocations this dispatch performed: they received
		// the next sequence numbers, in allocation order.
		lo := s.log[e.idx].allocs
		hi := s.seq - s.base
		if int(e.idx)+1 < len(s.log) {
			hi = s.log[e.idx+1].allocs
		}
		for j := lo; j < hi; j++ {
			next++
			k.trueOf[e.shard][j] = next
			if di := k.dispOf[e.shard][j]; di >= 0 {
				k.replay.push(refEntry{at: s.log[di].at, seq: next, shard: e.shard, idx: di})
			}
		}
	}
	if popped != total {
		panic(fmt.Sprintf("sim: window replay covered %d of %d dispatches", popped, total))
	}
	k.seqG = next
	if st, ok := k.tracer.(ShardTracer); ok {
		st.WindowEnd(k.order)
	}
	for _, s := range k.shards {
		s.renumber(k.trueOf[s.id])
	}
}

// renumber gives the window's surviving (still queued or outbound) events
// their true sequence numbers: provisional allocation j becomes trueOf[j].
// trueOf is strictly increasing in allocation order and every true number
// exceeds every pre-window number, so renumbering preserves the relative
// order of any two of the shard's events. The queue's buckets do not depend
// on seq at all; a tie with a mailbox event is sorted as it reaches the lane.
func (s *shard) renumber(trueOf []uint64) {
	fix := func(ev *event) {
		if ev.seq > s.base {
			ev.seq = trueOf[ev.seq-s.base-1]
		}
	}
	s.queue.each(fix)
	for _, box := range s.outbox {
		for _, ev := range box {
			fix(ev)
		}
	}
}

func resizeI32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

func resizeU64(b []uint64, n int) []uint64 {
	if cap(b) < n {
		return make([]uint64, n)
	}
	return b[:n]
}

// refEntry is one pending dispatch in the window replay, keyed by its true
// (time, seq).
type refEntry struct {
	at    Time
	seq   uint64
	shard int32
	idx   int32
}

// refHeap is a plain binary min-heap of refEntry ordered by (at, seq); it
// is reused across windows.
type refHeap struct {
	items []refEntry
}

func (h *refHeap) reset()   { h.items = h.items[:0] }
func (h *refHeap) len() int { return len(h.items) }

func refLess(a, b refEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *refHeap) push(e refEntry) {
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !refLess(h.items[i], h.items[p]) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *refHeap) pop() refEntry {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items = h.items[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && refLess(h.items[l], h.items[m]) {
			m = l
		}
		if r < n && refLess(h.items[r], h.items[m]) {
			m = r
		}
		if m == i {
			break
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		i = m
	}
	return top
}

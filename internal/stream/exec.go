package stream

import (
	"fmt"

	"repro/internal/funclib"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/trace"
)

// slotKind discriminates the slot stream. Every thread processes the same
// global slot sequence: the source appends a slot record BEFORE sending any
// message of that slot, and each message travels causally behind it, so a
// consumer that has received a slot's first message can always read its
// record.
type slotKind uint8

const (
	// slotData carries one frame: one data message per transfer edge, with
	// credits consumed and returned exactly as in the batch runtime.
	slotData slotKind = iota
	// slotShed announces a frame dropped at admission: a zero-byte control
	// message per edge so downstream slot counters stay aligned, no credits.
	slotShed
	// slotRemap is the epoch switch of the remap protocol: threads forward
	// it through the OLD topology, drain their outstanding credits, migrate
	// if reassigned, and flip their epoch pointer.
	slotRemap
	// slotEOS ends the stream; threads forward it and exit.
	slotEOS
)

// slotRec is one entry of the global slot log. arg is the schedule index for
// data/shed slots and the remap-event index for remap slots.
type slotRec struct {
	kind slotKind
	arg  int
}

type runner struct {
	cfg   *Config
	mach  *machine.Machine
	world *mpi.World

	// plan is the shared lowering of the tables. Its thread nodes are only
	// the initial epoch: an edge's peer node is resolved against the thread's
	// current epoch at every use, which is what makes the consistent-cut
	// migration work.
	plan     *plan.Plan
	assign0  [][]int // initial epoch: tables' per-function thread->node
	credits  []int   // per plan edge, touched only by the edge's producer
	schedule []Frame
	// ins and outs hand a thread's charge-only blocks to its kind's Cost,
	// in the kind's port order; the kernel runs one thread at a time.
	ins, outs []*funclib.Block

	// slots is the global slot log, appended only by the source (the sim
	// kernel is single-threaded, so no locking).
	slots []slotRec
	// remapAssigns[i] is the epoch installed by remap slot i.
	remapAssigns [][][]int
	remaps       []RemapEvent

	frames  []FrameStat
	doneCnt []int // per-frame sink-thread completions

	admitted   int
	framesDone int
	shed       int
	sourceDone bool

	// drainTarget/-Ch is the quiesce handshake: the source sets the target
	// and blocks; the sink fires the channel when completions reach it.
	drainTarget int
	drainCh     *sim.Chan[struct{}]

	// curAssign is the epoch as seen by the source (the controller reads it
	// when planning; the source is the authority because it installs epochs).
	curAssign [][]int
	// pendingAssign is the controller's requested remap, consumed by the
	// source at the next frame boundary.
	pendingAssign  [][]int
	pendingTrigger int

	sinkThreads int
	maxBacklog  int
	creditStall sim.Duration
	// stallNames[b] names a credit stall on buffer b in the trace; nil when
	// tracing is off.
	stallNames []string

	ctl *controller
	err error
}

// initEpoch installs the tables' own mapping as the first epoch and fills
// every edge's credit ledger.
func (r *runner) initEpoch() {
	r.drainTarget = -1
	for fi := range r.cfg.Tables.Functions {
		r.assign0 = append(r.assign0, append([]int(nil), r.cfg.Tables.Functions[fi].Nodes...))
	}
	r.curAssign = r.assign0
	for ti := range r.plan.Threads {
		if r.plan.Threads[ti].Sink {
			r.sinkThreads++
		}
	}
	r.credits = make([]int, len(r.plan.Edges))
	for i := range r.credits {
		r.credits[i] = r.cfg.BufferSlots
	}
	if r.mach.Trace().Enabled() {
		r.stallNames = make([]string, len(r.cfg.Tables.Buffers))
		for b := range r.stallNames {
			r.stallNames[b] = fmt.Sprintf("credit-stall b%d", b)
		}
	}
}

func (r *runner) spawn(k *sim.Kernel) {
	for ti := range r.plan.Threads {
		tp := &r.plan.Threads[ti]
		k.Spawn(fmt.Sprintf("%s.%s[%d]", r.cfg.Tables.AppName, tp.Fn.Name, tp.Index), func(p *sim.Proc) {
			st := r.newThreadState(tp, p)
			if tp.Source {
				r.sourceMain(st)
			} else {
				r.consumerMain(st)
			}
		})
	}
}

func (r *runner) fail(err error) {
	if r.err == nil {
		r.err = err
		r.mach.K.Stop()
	}
}

// scaleBytes applies a class weight to a byte count with deterministic
// rounding.
func scaleBytes(b int, w float64) int {
	if w == 1 {
		return b
	}
	return int(float64(b)*w + 0.5)
}

// threadState is one thread's mutable execution state: its current epoch
// and node attachment.
type threadState struct {
	tp    *plan.Thread
	p     *sim.Proc
	rank  *mpi.Rank
	node  *machine.Node
	my    int     // current node id
	cur   [][]int // current epoch (fn -> thread -> node)
	track string  // trace track, "" when tracing is off
	// qdepth names the thread's queue-depth gauge, "" when tracing is off.
	qdepth string

	// stateBytes is the thread's working-set size (all port partitions): the
	// payload a migration moves.
	stateBytes int
	ctx        *funclib.Context
}

func (r *runner) newThreadState(tp *plan.Thread, p *sim.Proc) *threadState {
	st := &threadState{tp: tp, p: p, cur: r.assign0}
	st.my = st.cur[tp.Fn.ID][tp.Index]
	st.rank = r.world.Attach(st.my, p)
	st.node = r.mach.Node(st.my)
	st.track = r.mach.Trace().Track(p)
	if r.mach.Trace().Enabled() {
		st.qdepth = fmt.Sprintf("qdepth %s#%d", tp.Fn.Name, tp.Index)
	}
	for pi := range tp.Ins {
		st.stateBytes += tp.Ins[pi].Bytes()
	}
	for pi := range tp.Outs {
		st.stateBytes += tp.Outs[pi].Bytes()
	}
	st.ctx = &funclib.Context{
		FuncName: tp.Fn.Name, Params: tp.Fn.Params,
		Thread: tp.Index, Threads: tp.Fn.Threads,
	}
	return st
}

// nodeOf resolves a plan thread (an edge's Src or Dst) against the thread's
// current epoch.
func (r *runner) nodeOf(st *threadState, thread int32) int {
	tp := &r.plan.Threads[thread]
	return st.cur[tp.Fn.ID][tp.Index]
}

// --- source ------------------------------------------------------------------

// sourceMain drives the offered-frame schedule: sleep to each arrival, shed
// frames whose admission deadline passed while backpressure held the source,
// admit the rest (paying dispatch+compute and the credit-gated sends), and
// execute pending remaps at frame boundaries.
func (r *runner) sourceMain(st *threadState) {
	tr := r.mach.Trace()
	for si := 0; si < len(r.schedule); si++ {
		if r.err != nil {
			return
		}
		if r.pendingAssign != nil {
			r.doRemap(st)
			if r.err != nil {
				return
			}
		}
		f := r.schedule[si]
		cls := &r.cfg.Classes[f.Class]
		if st.p.Now() < f.Arrival {
			st.p.SleepUntil(f.Arrival)
		}
		fs := &r.frames[si]
		if shed := cls.ShedAfter(); shed > 0 && st.p.Now().Sub(f.Arrival) > shed {
			fs.Shed = true
			r.shed++
			if tr.Enabled() {
				tr.StreamPoint(st.my, fmt.Sprintf("shed %s %d", cls.Name, f.Index), st.p.Now())
			}
			r.emitMarker(st, slotRec{kind: slotShed, arg: si})
			continue
		}
		fs.Admit = st.p.Now()
		r.admitted++
		r.noteBacklog(st, si, tr)
		if tr.Enabled() {
			tr.StreamPoint(st.my, fmt.Sprintf("admit %s %d", cls.Name, f.Index), st.p.Now())
		}
		r.slots = append(r.slots, slotRec{kind: slotData, arg: si})
		r.computeSlot(st, si, cls.weight())
		r.sendSlot(st, si, cls.weight())
	}
	r.emitMarker(st, slotRec{kind: slotEOS, arg: -1})
	r.sourceDone = true
}

// noteBacklog samples the admission queue depth: frames whose scheduled
// arrival has passed but which the source has not reached yet.
func (r *runner) noteBacklog(st *threadState, si int, tr *trace.Collector) {
	now := st.p.Now()
	// Upper bound of arrivals <= now, by binary search over the sorted
	// schedule.
	lo, hi := si, len(r.schedule)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.schedule[mid].Arrival <= now {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	backlog := lo - si - 1
	if backlog > r.maxBacklog {
		r.maxBacklog = backlog
	}
	if r.cfg.Backlog != nil {
		r.cfg.Backlog(backlog)
	}
	if tr.Enabled() {
		tr.StreamGauge(st.my, trace.StreamTrack, "backlog", backlog, now)
	}
}

// emitMarker appends a control slot and sends its zero-byte message on every
// outgoing edge of the thread (credits are not consumed: markers are control
// traffic, not buffered data).
func (r *runner) emitMarker(st *threadState, rec slotRec) {
	r.slots = append(r.slots, rec)
	r.forwardMarker(st)
}

func (r *runner) forwardMarker(st *threadState) {
	for pi := range st.tp.Outs {
		for _, ei := range st.tp.Outs[pi].Edges {
			e := &r.plan.Edges[ei]
			st.rank.Send(r.nodeOf(st, e.Dst), e.DataTag(), mpi.Empty())
		}
	}
}

// --- shared slot work --------------------------------------------------------

// computeSlot charges one frame's dispatch and compute on the thread's node,
// scaled by the class weight. Blocks are charge-only (no samples move): the
// streaming protocol measures time, not numerics — the batch runtime's
// compute iterations already verify those.
func (r *runner) computeSlot(st *threadState, si int, w float64) {
	tr := r.mach.Trace()
	start := st.p.Now()
	st.node.ComputeTime(st.p, r.cfg.DispatchOverhead)
	st.ctx.Iteration = si
	r.ins, r.outs = st.tp.Charges(r.ins, r.outs)
	cost := st.tp.Impl.Cost(st.ctx, r.ins, r.outs)
	st.node.ComputeFlops(st.p, cost.Flops*w)
	st.node.Memcpy(st.p, scaleBytes(cost.CopyBytes, w))
	tr.Phase(trace.LayerSage, st.my, st.track, "compute", si, start, st.p.Now())
}

// sendSlot emits one frame's outgoing transfers with credit-gated flow
// control. A zero-credit edge blocks until the consumer returns one; that
// wait is the backpressure this subsystem measures.
func (r *runner) sendSlot(st *threadState, si int, w float64) {
	tr := r.mach.Trace()
	sendStart := st.p.Now()
	for pi := range st.tp.Outs {
		for _, ei := range st.tp.Outs[pi].Edges {
			e := &r.plan.Edges[ei]
			peer := r.nodeOf(st, e.Dst)
			if r.credits[ei] == 0 {
				start := st.p.Now()
				st.rank.Recv(peer, e.CreditTag())
				if stall := st.p.Now().Sub(start); stall > 0 {
					r.creditStall += stall
					if tr.Enabled() {
						tr.StreamSpan(st.my, st.track, r.stallNames[e.Buf], start, st.p.Now())
					}
				}
			} else {
				r.credits[ei]--
			}
			bytes := scaleBytes(e.X.Bytes, w)
			pack := 0
			if !e.SrcContig {
				pack = bytes
			}
			st.rank.SendPacked(peer, e.DataTag(), mpi.Payload{Bytes: bytes}, pack)
		}
	}
	if len(st.tp.Outs) > 0 {
		tr.Phase(trace.LayerSage, st.my, st.track, "send", si, sendStart, st.p.Now())
	}
}

// --- consumers ---------------------------------------------------------------

// consumerMain is every non-source thread's loop over the global slot
// sequence: receive one message per incoming edge, learn the slot kind from
// the log (safe after the first receive — the record precedes the message
// causally), then process data, forward markers, or run the remap protocol.
func (r *runner) consumerMain(st *threadState) {
	tr := r.mach.Trace()
	for slot := 0; r.err == nil; slot++ {
		rec, ok := r.recvSlot(st, slot)
		if !ok {
			return
		}
		switch rec.kind {
		case slotData:
			si := rec.arg
			w := r.cfg.Classes[r.schedule[si].Class].weight()
			r.computeSlot(st, si, w)
			if !st.tp.Sink {
				r.sendSlot(st, si, w)
			} else {
				r.noteSinkDone(st, si, tr)
			}
		case slotShed, slotEOS:
			r.forwardMarker(st)
			if rec.kind == slotEOS {
				return
			}
		case slotRemap:
			r.forwardMarker(st)
			r.remapStep(st, rec.arg)
		}
		if tr.Enabled() {
			tr.StreamGauge(st.my, st.track, st.qdepth, len(r.slots)-slot-1, st.p.Now())
		}
	}
}

// recvSlot receives one slot's message on every incoming edge. For data
// slots it pays the assembly copy for strided regions and returns a
// pipelining credit per edge; markers carry nothing and return nothing.
func (r *runner) recvSlot(st *threadState, slot int) (slotRec, bool) {
	tr := r.mach.Trace()
	var rec slotRec
	first := true
	var w float64
	recvStart := st.p.Now()
	for pi := range st.tp.Ins {
		for _, ei := range st.tp.Ins[pi].Edges {
			e := &r.plan.Edges[ei]
			peer := r.nodeOf(st, e.Src)
			// Once the slot is known, a strided region's assembly copy is
			// charged with its receive.
			unpack := 0
			chained := !first && rec.kind == slotData && !e.DstContig
			if chained {
				unpack = scaleBytes(e.X.Bytes, w)
			}
			payload := st.rank.RecvUnpacked(peer, e.DataTag(), unpack)
			if first {
				first = false
				if slot >= len(r.slots) {
					r.fail(fmt.Errorf("stream: %s[%d] received slot %d before the source logged it (protocol bug)",
						st.tp.Fn.Name, st.tp.Index, slot))
					return rec, false
				}
				rec = r.slots[slot]
				if rec.kind == slotData {
					w = r.cfg.Classes[r.schedule[rec.arg].Class].weight()
				}
			}
			if rec.kind != slotData {
				continue
			}
			bytes := scaleBytes(e.X.Bytes, w)
			if payload.Bytes != bytes {
				r.fail(fmt.Errorf("stream: %s[%d] slot %d: payload %dB, want %dB (slot desync)",
					st.tp.Fn.Name, st.tp.Index, slot, payload.Bytes, bytes))
				return rec, false
			}
			if !e.DstContig && !chained {
				st.node.Memcpy(st.p, bytes)
			}
			st.rank.Send(peer, e.CreditTag(), mpi.Empty())
		}
	}
	if rec.kind == slotData {
		tr.Phase(trace.LayerSage, st.my, st.track, "recv", rec.arg, recvStart, st.p.Now())
	}
	return rec, true
}

// noteSinkDone records a sink thread's completion of a frame; the last sink
// thread finalises the frame (latency, SLO verdict, drain handshake).
func (r *runner) noteSinkDone(st *threadState, si int, tr *trace.Collector) {
	fs := &r.frames[si]
	if st.p.Now() > fs.Done {
		fs.Done = st.p.Now()
	}
	r.doneCnt[si]++
	if r.doneCnt[si] < r.sinkThreads {
		return
	}
	r.framesDone++
	cls := &r.cfg.Classes[fs.Class]
	if slo := cls.SLO(); slo > 0 && fs.Done.Sub(fs.Arrival) > slo {
		fs.Late = true
		if tr.Enabled() {
			tr.StreamPoint(st.my, fmt.Sprintf("late %s %d", cls.Name, fs.Index), fs.Done)
		}
	}
	if tr.Enabled() {
		tr.StreamSpan(st.my, trace.StreamTrack, fmt.Sprintf("frame %s %d", cls.Name, fs.Index), fs.Arrival, fs.Done)
	}
	if r.drainTarget >= 0 && r.framesDone >= r.drainTarget {
		r.drainTarget = -1
		r.drainCh.Send(struct{}{})
	}
}

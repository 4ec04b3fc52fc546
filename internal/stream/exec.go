package stream

import (
	"fmt"

	"repro/internal/funclib"
	"repro/internal/gluegen"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The streaming runtime reuses sagert's tag packing so traces and debugging
// read the same: (buffer, srcThread, dstThread) -> data tag, with credit
// tags in the disjoint upper half of the user tag space.
const tagThreadLimit = 128

func dataTag(buf, srcThread, dstThread int) int {
	return ((buf*tagThreadLimit)+srcThread)*tagThreadLimit + dstThread
}

func creditTag(buf, srcThread, dstThread int) int {
	return mpi.TagUserLimit/2 + dataTag(buf, srcThread, dstThread)
}

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

// streamXfer is one planned transfer edge seen from one side. Unlike
// sagert's static plan the peer NODE is not baked in: it is resolved against
// the thread's current epoch at every use, which is what makes the
// consistent-cut migration work.
type streamXfer struct {
	buf        *gluegen.BufferEntry
	x          gluegen.Transfer
	peerFn     int // peer's function-table index
	peerThread int
}

type ckey struct{ buf, srcThread, dstThread int }

func (xr *streamXfer) key() ckey { return ckey{xr.buf.ID, xr.x.SrcThread, xr.x.DstThread} }

// portPlan is a port's per-thread plan.
type portPlan struct {
	entry  *gluegen.PortEntry
	region model.Region
	xfers  []streamXfer
}

// threadPlan is one function thread's static plan.
type threadPlan struct {
	fn       *gluegen.FuncEntry
	fnIdx    int
	thread   int
	impl     *funclib.Impl
	ins      []*portPlan
	outs     []*portPlan
	isSource bool
	isSink   bool
	// stateBytes is the thread's working-set size (all port regions): the
	// payload a migration moves.
	stateBytes int
}

type runner struct {
	cfg   *Config
	mach  *machine.Machine
	world *mpi.World

	plans    []*threadPlan
	assign0  [][]int // initial epoch: tables' per-function thread->node
	schedule []Frame

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

	ctl *controller
	err error
}

// buildPlan expands the tables into per-thread plans and the initial epoch.
func (r *runner) buildPlan() {
	t := r.cfg.Tables
	r.drainTarget = -1
	for fi := range t.Functions {
		fe := &t.Functions[fi]
		r.assign0 = append(r.assign0, append([]int(nil), fe.Nodes...))
		impl, err := funclib.Lookup(fe.Kind)
		if err != nil {
			panic(err) // tables verified
		}
		for th := 0; th < fe.Threads; th++ {
			tp := &threadPlan{
				fn: fe, fnIdx: fi, thread: th, impl: impl,
				isSource: len(fe.Ins) == 0, isSink: len(fe.Outs) == 0,
			}
			for pi := range fe.Ins {
				tp.ins = append(tp.ins, r.portPlan(&fe.Ins[pi], fe, th, true))
			}
			for pi := range fe.Outs {
				tp.outs = append(tp.outs, r.portPlan(&fe.Outs[pi], fe, th, false))
			}
			for _, pp := range tp.ins {
				tp.stateBytes += pp.region.Elems() * pp.entry.ElemBytes
			}
			for _, pp := range tp.outs {
				tp.stateBytes += pp.region.Elems() * pp.entry.ElemBytes
			}
			if tp.isSink {
				r.sinkThreads++
			}
			r.plans = append(r.plans, tp)
		}
	}
	r.curAssign = r.assign0
}

func (r *runner) portPlan(pe *gluegen.PortEntry, fe *gluegen.FuncEntry, thread int, isInput bool) *portPlan {
	region, err := model.Partition(pe.Striping, pe.Rows, pe.Cols, fe.Threads, thread)
	if err != nil {
		panic(err) // tables verified
	}
	pp := &portPlan{entry: pe, region: region}
	for _, bufID := range pe.Buffers {
		buf := &r.cfg.Tables.Buffers[bufID]
		for _, x := range buf.Transfers {
			if isInput {
				if buf.DstFn != fe.ID || buf.DstPort != pe.Name || x.DstThread != thread {
					continue
				}
				pp.xfers = append(pp.xfers, streamXfer{buf: buf, x: x, peerFn: buf.SrcFn, peerThread: x.SrcThread})
			} else {
				if buf.SrcFn != fe.ID || buf.SrcPort != pe.Name || x.SrcThread != thread {
					continue
				}
				pp.xfers = append(pp.xfers, streamXfer{buf: buf, x: x, peerFn: buf.DstFn, peerThread: x.DstThread})
			}
		}
	}
	return pp
}

func (r *runner) spawn(k *sim.Kernel) {
	for _, tp := range r.plans {
		tp := tp
		k.Spawn(fmt.Sprintf("%s.%s[%d]", r.cfg.Tables.AppName, tp.fn.Name, tp.thread), func(p *sim.Proc) {
			st := r.newThreadState(tp, p)
			if tp.isSource {
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

// threadState is one thread's mutable execution state: its current epoch,
// node attachment and credit ledger.
type threadState struct {
	tp    *threadPlan
	p     *sim.Proc
	rank  *mpi.Rank
	node  *machine.Node
	my    int     // current node id
	cur   [][]int // current epoch (fn -> thread -> node)
	track string  // trace track, "" when tracing is off

	credits map[ckey]int
	ins     map[string]*funclib.Block // charge-only blocks, reused per slot
	outs    map[string]*funclib.Block
	ctx     *funclib.Context
}

func (r *runner) newThreadState(tp *threadPlan, p *sim.Proc) *threadState {
	st := &threadState{tp: tp, p: p, cur: r.assign0}
	st.my = st.cur[tp.fnIdx][tp.thread]
	st.rank = r.world.Attach(st.my, p)
	st.node = r.mach.Node(st.my)
	if r.mach.Trace().Enabled() {
		st.track = trace.ProcTrack(p.Name(), p.PID())
	}
	st.credits = map[ckey]int{}
	for _, pp := range tp.outs {
		for i := range pp.xfers {
			st.credits[pp.xfers[i].key()] = r.cfg.BufferSlots
		}
	}
	st.ins = make(map[string]*funclib.Block, len(tp.ins))
	st.outs = make(map[string]*funclib.Block, len(tp.outs))
	for _, pp := range tp.ins {
		st.ins[pp.entry.Name] = &funclib.Block{Region: pp.region}
	}
	for _, pp := range tp.outs {
		st.outs[pp.entry.Name] = &funclib.Block{Region: pp.region}
	}
	st.ctx = &funclib.Context{
		FuncName: tp.fn.Name, Params: tp.fn.Params,
		Thread: tp.thread, Threads: tp.fn.Threads,
	}
	return st
}

// peerNode resolves a transfer's peer against the thread's current epoch.
func (st *threadState) peerNode(xr *streamXfer) int {
	return st.cur[xr.peerFn][xr.peerThread]
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
	for _, pp := range st.tp.outs {
		for i := range pp.xfers {
			xr := &pp.xfers[i]
			st.rank.Send(st.peerNode(xr), dataTag(xr.buf.ID, xr.x.SrcThread, xr.x.DstThread), mpi.Empty())
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
	cost := st.tp.impl.Cost(st.ctx, st.ins, st.outs)
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
	for _, pp := range st.tp.outs {
		for i := range pp.xfers {
			xr := &pp.xfers[i]
			key := xr.key()
			if st.credits[key] == 0 {
				start := st.p.Now()
				st.rank.Recv(st.peerNode(xr), creditTag(xr.buf.ID, xr.x.SrcThread, xr.x.DstThread))
				if stall := st.p.Now().Sub(start); stall > 0 {
					r.creditStall += stall
					if tr.Enabled() {
						tr.StreamSpan(st.my, st.track, fmt.Sprintf("credit-stall b%d", xr.buf.ID), start, st.p.Now())
					}
				}
			} else {
				st.credits[key]--
			}
			bytes := scaleBytes(xr.x.Bytes, w)
			if !funclib.ContiguousIn(xr.x.Region, pp.region) {
				st.node.Memcpy(st.p, bytes)
			}
			st.rank.Send(st.peerNode(xr), dataTag(xr.buf.ID, xr.x.SrcThread, xr.x.DstThread), mpi.Payload{Bytes: bytes})
		}
	}
	if len(st.tp.outs) > 0 {
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
			if !st.tp.isSink {
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
			tr.StreamGauge(st.my, st.track, fmt.Sprintf("qdepth %s#%d", st.tp.fn.Name, st.tp.thread),
				len(r.slots)-slot-1, st.p.Now())
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
	for _, pp := range st.tp.ins {
		for i := range pp.xfers {
			xr := &pp.xfers[i]
			payload := st.rank.Recv(st.peerNode(xr), dataTag(xr.buf.ID, xr.x.SrcThread, xr.x.DstThread))
			if first {
				first = false
				if slot >= len(r.slots) {
					r.fail(fmt.Errorf("stream: %s[%d] received slot %d before the source logged it (protocol bug)",
						st.tp.fn.Name, st.tp.thread, slot))
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
			bytes := scaleBytes(xr.x.Bytes, w)
			if payload.Bytes != bytes {
				r.fail(fmt.Errorf("stream: %s[%d] slot %d: payload %dB, want %dB (slot desync)",
					st.tp.fn.Name, st.tp.thread, slot, payload.Bytes, bytes))
				return rec, false
			}
			if !funclib.ContiguousIn(xr.x.Region, pp.region) {
				st.node.Memcpy(st.p, bytes)
			}
			st.rank.Send(st.peerNode(xr), creditTag(xr.buf.ID, xr.x.SrcThread, xr.x.DstThread), mpi.Empty())
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

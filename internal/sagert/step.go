package sagert

import (
	"fmt"

	"repro/internal/funclib"
	"repro/internal/mpi"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/trace"
)

// A thread is one function thread of the plan, run as a stackless process
// (sim.Kernel.SpawnStep): its walk over the plan.Thread — await credits,
// receive in port order, assemble, charge and compute, extract and send,
// return credits — is an explicit state machine instead of a coroutine.
// step runs the walk from t.pc until the thread would block. There it calls
// the blocking operation's Begin half and, if that parked, records in
// t.wait which Resume half the wake owes and returns. The wake calls step
// again, which calls that half first and goes on. Every event is therefore
// scheduled at the dispatch, and in the order, the coroutine would have
// scheduled it, and no event is a process switch. DESIGN.md §7 has the
// state table.
type thread struct {
	r     *runner
	ti    int // tp's index in the plan's Threads
	tp    *plan.Thread
	rank  *mpi.Rank
	track string // the thread's trace track ("" untraced)
	// Per-iteration working state, cleared each pass so the steady-state
	// iteration allocates nothing: the ports' blocks in the kind's port
	// order (plan.Port.Pos), carved from one array per run, and the context.
	ins, outs []*funclib.Block
	ctx       funclib.Context
	sink      *sinkOut    // non-nil on the threads of a collected sink
	result    *sinkOut    // non-nil on a result-backed thread of a run that collects
	task      *sampleTask // the compute iteration's sample work (samples.go)

	pc      pc
	wait    waitOn
	iter    int
	compute bool // iteration iter carries samples
	pi, xi  int  // the port, and the transfer in its order
	order   []int32
	ei      int32          // the transfer's edge,
	peer    int            // and the node at its other end
	blk     *funclib.Block // the input block being assembled, or the output block being sent
	got     *funclib.Block // the payload just received
	// Span starts: the phase (receive, compute or send), the transfer, the
	// credit wait and the current timed receive (one attempt of a re-armed
	// wait).
	phaseStart, xferStart, creditStart, tryStart sim.Time
	copyBytes                                    int
}

// pc is where a thread's walk goes on.
type pc uint8

const (
	stIter      pc = iota // the iteration's head: the end test, a source's pacing
	stStart               // a source's start stamp; the receive phase begins
	stInPort              // the next input port: its block and transfer order
	stInXfer              // the port's next transfer: receive it
	stLocalGot            // an optimised local handoff arrived: its copy
	stInGot               // a data receive ended: a timeout re-arms it
	stAssemble            // assemble or land in the sink, then return the credit
	stDispatch            // the receive phase is over: the dispatch overhead
	stCost                // the kind's cost: its flops,
	stCopy                // and its copy
	stCompute             // the kind's Compute; the send phase begins
	stOutPort             // the next output port: its block and transfer order
	stOutXfer             // the port's next transfer: take or await its credit
	stCreditGot           // a credit wait ended: a timeout overcommits or re-arms
	stSend                // send the region
	stSent                // the send is over
	stIterEnd             // a sink's done stamp, the iteration barrier
)

// waitOn is what a parked thread waits in: the Resume half its wake owes.
type waitOn uint8

const (
	waitNone    waitOn = iota
	waitCPU            // a CPU burst (machine.Node.BusyEnd)
	waitRank           // an mpi send or receive (mpi.Rank.Resume)
	waitLocal          // an optimised local handoff (sim.Chan.RecvResume)
	waitBarrier        // the Sequential iteration barrier (sim.Barrier.WaitResume)
	waitSleep          // a source's pacing sleep, which has no Resume half
)

// init readies t to run the plan's thread ti as rank, with blocks holding
// room for its ports' blocks.
func (t *thread) init(r *runner, ti int, rank *mpi.Rank, blocks []*funclib.Block) {
	tp := &r.plan.Threads[ti]
	t.r, t.ti, t.tp, t.rank = r, ti, tp, rank
	t.track = r.mach.Trace().Track(rank.Proc())
	n := len(tp.Ins)
	t.ins, t.outs = blocks[:n:n], blocks[n:n+len(tp.Outs):n+len(tp.Outs)]
	t.ctx = contextOf(tp, 0)
	for si := range r.sinks {
		switch {
		case r.sinks[si].Fn == tp.Fn:
			t.sink = &r.sinks[si]
		case si == r.layouts[ti].Result:
			t.result = &r.sinks[si]
		}
	}
}

// inResult reports whether this iteration keeps t's storage in its sink's
// result matrix: t is result-backed (plan.Layout.Result) and the iteration is
// the last compute iteration, the only one the run collects.
func (t *thread) inResult() bool {
	return t.result != nil && t.iter == t.r.opts.ComputeIterations-1
}

// inputBlock returns the block a compute iteration's payloads land in on
// input port pp — the transposed view of the output block, a view of the
// result, or a fresh block — or nil for a port that adopts its one payload.
// It runs when the port's first payload lands, so clearing a fresh block
// overlaps the producers' tasks.
func (t *thread) inputBlock(pp *plan.Port) *funclib.Block {
	tp := t.tp
	switch {
	case tp.Transposes:
		out := t.outputBlock(0)
		t.outs[0] = out
		return funclib.TransposedView(out, pp.Region)
	case tp.InPlace && t.inResult():
		return funclib.ResultView(t.r.sinkMatrix(t.result), pp.Region)
	case pp.Adopt:
		return nil
	}
	return funclib.NewBlock(pp.Region)
}

// outputBlock returns the block output port pi is computed into: the charge
// block when the iteration carries no samples, the input block a thread that
// computes in place owns, a view of the result, or a fresh block.
func (t *thread) outputBlock(pi int) *funclib.Block {
	tp, pp := t.tp, &t.tp.Outs[pi]
	switch {
	case !t.compute:
		return &pp.Charge
	case tp.InPlace:
		// The thread owns its input block: the kind transforms it where it
		// lies (the cost model still charges the copy).
		return t.ins[0]
	case t.inResult():
		return funclib.ResultView(t.r.sinkMatrix(t.result), pp.Region)
	}
	return funclib.NewBlock(pp.Region)
}

// park records what t waits in if a Begin half reported that it parked.
func (t *thread) park(parked bool, on waitOn) bool {
	if parked {
		t.wait = on
	}
	return parked
}

// resume runs the Resume half t's wake owes, and reports whether the wait
// is over.
func (t *thread) resume(p *sim.Proc) bool {
	switch t.wait {
	case waitCPU:
		t.r.mach.Node(t.tp.Node).BusyEnd(p)
	case waitRank:
		if !t.rank.Resume() {
			return false
		}
	case waitLocal:
		v, ok := t.r.localQueues[t.ei].RecvResume(p)
		if !ok {
			return false
		}
		t.got = v
	case waitBarrier:
		if !t.r.iterBarrier.WaitResume(p) {
			return false
		}
	}
	t.wait = waitNone
	return true
}

// step is the thread's body: called at its start and at every wake, it
// walks on until the thread parks (true) or ends (false).
func (t *thread) step(p *sim.Proc) bool {
	if t.wait != waitNone && !t.resume(p) {
		return true
	}
	r, tp := t.r, t.tp
	node, tr := r.mach.Node(tp.Node), r.mach.Trace()
	threads, edges := r.plan.Threads, r.plan.Edges
	for {
		switch t.pc {
		case stIter:
			if t.iter >= r.opts.Iterations {
				return false
			}
			t.compute = t.iter < r.opts.ComputeIterations
			t.pc = stStart
			if tp.Source && r.opts.InputPeriod > 0 {
				// Real-time pacing: data set iter arrives on schedule; if the
				// pipeline's backpressure held the source past the arrival,
				// record the overrun.
				scheduled := sim.Time(0).Add(sim.Duration(t.iter) * r.opts.InputPeriod)
				if p.Now() < scheduled {
					p.SleepUntilBegin(scheduled)
					t.wait = waitSleep
					return true
				}
				r.noteOverrun(p.Now().Sub(scheduled))
			}

		case stStart:
			if tp.Source {
				r.noteSourceStart(t.iter, p.Now())
			}
			t.phaseStart = p.Now()
			clear(t.ins)
			clear(t.outs)
			if t.compute {
				t.task = r.samples.task(t, t.iter)
			}
			t.pi, t.pc = 0, stInPort

		// --- receive phase: assemble input logical buffers -----------------
		case stInPort:
			if t.pi == len(tp.Ins) {
				if len(tp.Ins) > 0 {
					tr.Phase(trace.LayerSage, tp.Node, t.track, "recv", t.iter, t.phaseStart, p.Now())
				}
				t.pc = stDispatch
				continue
			}
			pp := &tp.Ins[t.pi]
			// A port that carries samples gets its block when its first
			// payload lands, so clearing it overlaps the producers' tasks.
			t.blk = nil
			if !t.compute || t.sink != nil {
				t.blk = &pp.Charge
			}
			t.order, t.xi, t.pc = r.orderXfers(pp.Edges, true, p.Now()), 0, stInXfer

		case stInXfer:
			if t.xi == len(t.order) {
				if t.blk == nil { // a port without transfers
					t.blk = t.inputBlock(&tp.Ins[t.pi])
				}
				t.ins[tp.Ins[t.pi].Pos] = t.blk
				t.pi, t.pc = t.pi+1, stInPort
				continue
			}
			t.ei = t.order[t.xi]
			e := &edges[t.ei]
			t.peer, t.xferStart, t.got = threads[e.Src].Node, p.Now(), nil
			if r.localOptimised(t.peer, tp.Node) {
				// Optimised local handoff: single copy, no messaging stack.
				t.pc = stLocalGot
				v, parked := r.localQueues[t.ei].RecvBegin(p)
				if t.park(parked, waitLocal) {
					return true
				}
				t.got = v
				continue
			}
			t.pc = stInGot
			if t.park(t.recvBegin(p, e), waitRank) {
				return true
			}

		case stLocalGot:
			t.pc = stAssemble
			if t.park(node.MemcpyBegin(p, edges[t.ei].X.Bytes), waitCPU) {
				return true
			}

		case stInGot:
			e := &edges[t.ei]
			payload, ok := t.rank.Received()
			if !ok {
				// A resilient receive timed out: record it and re-arm. The
				// message is guaranteed to come eventually (the MPI retry
				// protocol forces delivery after its attempt budget).
				if tr.Enabled() {
					tr.FaultSpanOn(tp.Node, t.track, r.names[t.ei].recvTimeout, t.tryStart, p.Now())
				}
				if t.park(t.recvBegin(p, e), waitRank) {
					return true
				}
				continue
			}
			if t.compute {
				t.got = payload.Data.(*funclib.Block)
			}
			t.pc = stAssemble

		case stAssemble:
			e := &edges[t.ei]
			// The task copies the payload in; the step decides where. A sink
			// port keeps its region-only block: its task stores the payloads.
			if t.compute {
				if t.blk == nil {
					t.blk = t.inputBlock(&tp.Ins[t.pi])
				}
				switch {
				case t.sink == nil:
					t.blk = funclib.Landing(t.blk, t.got, e.X.Region)
				case t.iter == r.opts.ComputeIterations-1:
					r.sinkMatrix(t.sink) // where the task stores the payload
				}
				t.task.blocks = append(t.task.blocks, t.got)
				t.task.edges = append(t.task.edges, t.ei)
			}
			t.got = nil
			if tr.Enabled() {
				tr.Xfer(trace.LayerSage, tp.Node, t.track, r.names[t.ei].recv,
					e.X.Bytes, t.iter, t.xferStart, p.Now())
			}
			// Return a pipelining credit to the producer; then the next
			// transfer.
			t.xi, t.pc = t.xi+1, stInXfer
			if t.park(t.rank.SendBegin(t.peer, e.CreditTag(), mpi.Empty(), 0), waitRank) {
				return true
			}

		// --- dispatch + compute --------------------------------------------
		case stDispatch:
			t.phaseStart = p.Now()
			t.pc = stCost
			if t.park(node.ComputeTimeBegin(p, r.opts.DispatchOverhead), waitCPU) {
				return true
			}

		case stCost:
			for pi := range tp.Outs {
				// A thread that lands transposed chose its output block when
				// its first payload landed.
				if k := tp.Outs[pi].Pos; t.outs[k] == nil {
					t.outs[k] = t.outputBlock(pi)
				}
			}
			t.ctx.Iteration = t.iter
			cost := tp.Impl.Cost(&t.ctx, t.ins, t.outs)
			t.copyBytes = cost.CopyBytes
			if r.opts.OptimizedBuffers && !tp.Source && !tp.Sink {
				// In-place computation where legal: the input-to-output copy
				// disappears.
				for pi := range tp.Ins {
					t.copyBytes -= tp.Ins[pi].Bytes()
				}
				t.copyBytes = max(t.copyBytes, 0)
			}
			t.pc = stCopy
			if t.park(node.ComputeFlopsBegin(p, cost.Flops), waitCPU) {
				return true
			}

		case stCopy:
			t.pc = stCompute
			if t.park(node.MemcpyBegin(p, t.copyBytes), waitCPU) {
				return true
			}

		case stCompute:
			if t.compute {
				t.task.blocks = append(append(t.task.blocks, t.ins...), t.outs...)
				r.samples.submit(t.task)
				t.task = nil
			}
			tr.Phase(trace.LayerSage, tp.Node, t.track, "compute", t.iter, t.phaseStart, p.Now())
			t.phaseStart = p.Now()
			t.pi, t.pc = 0, stOutPort

		// --- send phase ------------------------------------------------------
		case stOutPort:
			if t.pi == len(tp.Outs) {
				if len(tp.Outs) > 0 {
					tr.Phase(trace.LayerSage, tp.Node, t.track, "send", t.iter, t.phaseStart, p.Now())
				}
				t.pc = stIterEnd
				continue
			}
			pp := &tp.Outs[t.pi]
			t.blk = t.outs[pp.Pos]
			t.order, t.xi, t.pc = r.orderXfers(pp.Edges, false, p.Now()), 0, stOutXfer

		case stOutXfer:
			if t.xi == len(t.order) {
				t.pi, t.pc = t.pi+1, stOutPort
				continue
			}
			t.ei = t.order[t.xi]
			e := &edges[t.ei]
			t.peer = threads[e.Dst].Node
			if r.credits[t.ei] > 0 {
				r.credits[t.ei]--
				t.pc = stSend
				continue
			}
			t.creditStart = p.Now()
			t.pc = stCreditGot
			if t.park(t.creditBegin(p, e), waitRank) {
				return true
			}

		case stCreditGot:
			e := &edges[t.ei]
			if _, ok := t.rank.Received(); !ok {
				// Resilient mode: each timed-out wait is recorded. While the
				// per-transfer overcommit budget lasts, a timeout is resolved
				// by borrowing an emergency slot and proceeding without the
				// credit — the credit stays in flight and satisfies a later
				// wait instantly, so the pipeline depth overshoot is bounded
				// by the budget and drains by itself. Otherwise re-arm.
				if tr.Enabled() {
					tr.FaultSpanOn(tp.Node, t.track, r.names[t.ei].creditTimeout, t.tryStart, p.Now())
				}
				if int(r.overcommit[t.ei]) >= r.opts.Resilience.MaxCreditOvercommit {
					if t.park(t.creditBegin(p, e), waitRank) {
						return true
					}
					continue
				}
				r.overcommit[t.ei]++
				if tr.Enabled() {
					tr.FaultPoint(tp.Node, r.names[t.ei].overcommit, p.Now())
				}
			}
			if tr.Enabled() && p.Now() > t.creditStart {
				tr.Phase(trace.LayerSage, tp.Node, t.track, r.names[t.ei].credit,
					t.iter, t.creditStart, p.Now())
			}
			t.pc = stSend

		case stSend:
			e := &edges[t.ei]
			t.xferStart = p.Now()
			// The payload is the port's block itself: the consumer reads the
			// edge's region out of it.
			if r.localOptimised(tp.Node, t.peer) {
				var pass *funclib.Block // nothing to hand over when charge-only
				if t.compute {
					pass = t.blk
				}
				r.localQueues[t.ei].Send(pass)
				t.xi, t.pc = t.xi+1, stOutXfer
				continue
			}
			// Pack the region out of the logical buffer, charged with the
			// send; a region that is contiguous in the buffer is sent in
			// place, zero-copy. (The charge is the model's; the host sends
			// the block either way.)
			pack := 0
			if !e.SrcContig {
				pack = e.X.Bytes
			}
			// The message is priced by the table's wire size whether or not
			// it has a body: a data set that carries samples costs what one
			// that does not costs, for every element kind.
			payload := mpi.Payload{Bytes: e.X.Bytes}
			if t.compute {
				payload.Data = t.blk
			}
			t.pc = stSent
			if t.park(t.rank.SendBegin(t.peer, e.DataTag(), payload, pack), waitRank) {
				return true
			}

		case stSent:
			if tr.Enabled() {
				e := &edges[t.ei]
				tr.Xfer(trace.LayerSage, tp.Node, t.track, r.names[t.ei].send,
					e.X.Bytes, t.iter, t.xferStart, p.Now())
			}
			t.xi, t.pc = t.xi+1, stOutXfer

		case stIterEnd:
			if tp.Sink {
				r.noteSinkDone(t.iter, p.Now())
			}
			t.iter, t.pc = t.iter+1, stIter
			if r.iterBarrier != nil && t.park(r.iterBarrier.WaitBegin(p), waitBarrier) {
				return true
			}
		}
	}
}

// xferNames are the trace names of one edge's spans: the consumer's
// receive and the producer's send and credit wait, and their fault names.
type xferNames struct {
	recv, send, credit                     string
	recvTimeout, creditTimeout, overcommit string // in resilient mode only
}

// nameXfers builds every edge's trace names once per traced run, so a
// transfer's span formats nothing.
func (r *runner) nameXfers() {
	resilient := r.mach.Faults().Enabled()
	r.names = make([]xferNames, len(r.plan.Edges))
	for ei := range r.plan.Edges {
		e, n := &r.plan.Edges[ei], &r.names[ei]
		n.recv = fmt.Sprintf("recv b%d t%d", e.Buf, e.X.SrcThread)
		n.send = fmt.Sprintf("send b%d t%d", e.Buf, e.X.DstThread)
		n.credit = fmt.Sprintf("credit b%d", e.Buf)
		if resilient {
			n.recvTimeout = fmt.Sprintf("recv-timeout b%d t%d", e.Buf, e.X.SrcThread)
			n.creditTimeout = fmt.Sprintf("credit-timeout b%d", e.Buf)
			n.overcommit = fmt.Sprintf("overcommit b%d %d->%d", e.Buf, e.X.SrcThread, e.X.DstThread)
		}
	}
}

// recvBegin begins edge e's data receive into the function's private
// logical buffer: the extra data access §3.4 attributes overhead to. A
// region that lands contiguously in the buffer (full buffer width) is
// received in place, zero-copy; only strided regions (corner-turn tiles,
// column stripes) pay the unpack copy, charged with the receive. Without a
// fault injector it is a plain receive; in resilient mode it is a timed one
// that stInGot re-arms until the data arrives, each expiry a recv-timeout
// fault span.
func (t *thread) recvBegin(p *sim.Proc, e *plan.Edge) bool {
	unpack := 0
	if !e.DstContig {
		unpack = e.X.Bytes
	}
	if !t.r.mach.Faults().Enabled() {
		return t.rank.RecvBegin(t.peer, e.DataTag(), unpack)
	}
	t.tryStart = p.Now()
	return t.rank.RecvTimeoutBegin(t.peer, e.DataTag(), t.r.opts.Resilience.RecvTimeout, unpack)
}

// creditBegin begins the wait for edge e's pipelining credit: plain, or in
// resilient mode timed, as recvBegin.
func (t *thread) creditBegin(p *sim.Proc, e *plan.Edge) bool {
	if !t.r.mach.Faults().Enabled() {
		return t.rank.RecvBegin(t.peer, e.CreditTag(), 0)
	}
	t.tryStart = p.Now()
	return t.rank.RecvTimeoutBegin(t.peer, e.CreditTag(), t.r.opts.Resilience.CreditTimeout, 0)
}

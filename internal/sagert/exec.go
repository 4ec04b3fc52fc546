package sagert

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/funclib"
	"repro/internal/isspl"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/trace"
)

type runner struct {
	plan  *plan.Plan
	opts  Options
	mach  *machine.Machine
	world *mpi.World

	sourceStart []sim.Time
	sinkDone    []sim.Time

	output  *isspl.Matrix
	outputs map[string]*isspl.Matrix // per sink-function name
	// Per-edge run state, indexed like plan.Edges. Only an edge's producer
	// thread touches its credits and overcommit, only its two endpoints its
	// queue, so sharded runs need no lock.
	credits []int
	// overcommit tracks emergency credit borrowing (resilient mode only): a
	// bounded per-run budget, so the pipeline depth can never exceed
	// BufferSlots + MaxCreditOvercommit.
	overcommit  []int
	localQueues []*sim.Chan[*funclib.Block] // optimised node-local handoffs; nil elsewhere
	iterBarrier *sim.Barrier                // non-nil in Sequential mode
	maxOverrun  sim.Duration

	// On a sharded kernel function threads execute concurrently (one
	// goroutine per shard), so the cross-thread endpoint bookkeeping —
	// iteration timestamps, overrun, the first failure — is mutex-guarded.
	// The locks are uncontended-cheap and touched at most a few times per
	// iteration, far off the per-event fast path.
	noteMu sync.Mutex // guards sourceStart, sinkDone, maxOverrun
	errMu  sync.Mutex // guards err
	sinkMu sync.Mutex // guards assembled sink matrices (replicated sinks overlap)
	failed atomic.Bool

	err error
}

// collectOutput prepares the sink assembly target from the sink function's
// input port shape. A run without compute iterations assembles nothing.
func (r *runner) collectOutput() {
	r.outputs = map[string]*isspl.Matrix{}
	if r.opts.ComputeIterations == 0 {
		return
	}
	for fi := range r.plan.Tables.Functions {
		fe := &r.plan.Tables.Functions[fi]
		if fe.Kind == "sink_matrix" && len(fe.Ins) == 1 {
			m := isspl.NewMatrix(fe.Ins[0].Rows, fe.Ins[0].Cols)
			r.outputs[fe.Name] = m
			if r.output == nil {
				r.output = m // first sink, in function-table order
			}
		}
	}
}

// localOptimised reports whether a transfer can use the optimised
// node-local handoff path.
func (r *runner) localOptimised(srcNode, dstNode int) bool {
	return r.opts.OptimizedBuffers && srcNode == dstNode
}

// spawn launches every function thread on its mapped node's shard.
func (r *runner) spawn(k *sim.Kernel) {
	for ti := range r.plan.Threads {
		tp := &r.plan.Threads[ti]
		k.SpawnOn(tp.Node, fmt.Sprintf("%s.%s[%d]", r.plan.Tables.AppName, tp.Fn.Name, tp.Index), func(p *sim.Proc) {
			rank := r.world.Attach(tp.Node, p)
			r.threadMain(tp, rank)
		})
	}
}

func (r *runner) fail(err error) {
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
		r.failed.Store(true)
		r.mach.K.Stop()
	}
	r.errMu.Unlock()
}

// buildLocalQueues pre-creates every optimised node-local handoff channel,
// before the kernel runs. Creating them lazily mid-run would mutate shared
// state from concurrent shard goroutines; eager creation is free (a channel
// is inert until used) and changes nothing observable.
func (r *runner) buildLocalQueues(k *sim.Kernel) {
	if !r.opts.OptimizedBuffers {
		return
	}
	r.localQueues = make([]*sim.Chan[*funclib.Block], len(r.plan.Edges))
	for ei := range r.plan.Edges {
		e := &r.plan.Edges[ei]
		if node := r.plan.Threads[e.Src].Node; node == r.plan.Threads[e.Dst].Node {
			r.localQueues[ei] = sim.NewChanOn[*funclib.Block](k, node,
				fmt.Sprintf("local b%d %d->%d", e.Buf, e.X.SrcThread, e.X.DstThread))
		}
	}
}

// threadMain is the per-thread iteration loop: receive/assemble, dispatch,
// compute, pack/send — with credit-based flow control.
func (r *runner) threadMain(tp *plan.Thread, rank *mpi.Rank) {
	node := r.mach.Node(tp.Node)
	threads, edges := r.plan.Threads, r.plan.Edges
	// Structured tracing: the collector is nil-safe, but the track name and
	// per-transfer span labels are only built when tracing is on.
	tr := r.mach.Trace()
	var track string
	if tr.Enabled() {
		track = trace.ProcTrack(rank.Proc().Name(), rank.Proc().PID())
	}
	inj := r.mach.Faults()
	// Per-iteration working state, hoisted out of the loop and cleared each
	// pass so the steady-state iteration allocates no maps or contexts.
	inBlocks := make(map[string]*funclib.Block, len(tp.Ins))
	outBlocks := make(map[string]*funclib.Block, len(tp.Outs))
	ctx := &funclib.Context{
		FuncName: tp.Fn.Name, Params: tp.Fn.Params,
		Thread: tp.Index, Threads: tp.Fn.Threads,
	}
	sinkTarget := r.outputs[tp.Fn.Name] // non-nil on the threads of a collected sink
	for iter := 0; iter < r.opts.Iterations && !r.failed.Load(); iter++ {
		compute := iter < r.opts.ComputeIterations

		if tp.Source {
			if r.opts.InputPeriod > 0 {
				// Real-time pacing: data set iter arrives on schedule; if
				// the pipeline's backpressure held us past the arrival,
				// record the overrun.
				scheduled := sim.Time(0).Add(sim.Duration(iter) * r.opts.InputPeriod)
				if rank.Proc().Now() < scheduled {
					rank.Proc().SleepUntil(scheduled)
				} else {
					r.noteOverrun(rank.Proc().Now().Sub(scheduled))
				}
			}
			r.noteSourceStart(iter, rank.Proc().Now())
		}

		// --- receive phase: assemble input logical buffers -----------------
		recvStart := rank.Proc().Now()
		clear(inBlocks)
		for pi := range tp.Ins {
			pp := &tp.Ins[pi]
			var blk *funclib.Block // stays nil to adopt the payload
			switch {
			case !compute || sinkTarget != nil:
				blk = &pp.Charge
			case !pp.Adopt:
				blk = funclib.NewBlock(pp.Region)
			}
			for _, ei := range r.orderXfers(pp.Edges, true, rank.Proc().Now()) {
				e := &edges[ei]
				peer := threads[e.Src].Node
				xferStart := rank.Proc().Now()
				var got *funclib.Block // stays nil on a charge-only iteration
				if r.localOptimised(peer, tp.Node) {
					// Optimised local handoff: single copy, no messaging
					// stack.
					got = r.localQueues[ei].Recv(rank.Proc())
					node.Memcpy(rank.Proc(), e.X.Bytes)
				} else {
					payload := r.recvData(rank, tp, track, e, peer)
					// Assemble into the function's private logical buffer:
					// the extra data access §3.4 attributes overhead to. A
					// region that lands contiguously in the buffer (full
					// buffer width) is received in place, zero-copy; only
					// strided regions (corner-turn tiles, column stripes)
					// pay the copy.
					if !e.DstContig {
						node.Memcpy(rank.Proc(), e.X.Bytes)
					}
					if compute {
						got = payload.Data.(*funclib.Block)
					}
				}
				// A sink holds no samples of its own: the payloads of the last
				// compute iteration land in the assembled output as they
				// arrive, earlier ones are dropped.
				if compute && sinkTarget == nil {
					blk = funclib.Assemble(blk, got)
				} else if compute && iter == r.opts.ComputeIterations-1 {
					funclib.StoreSink(&r.sinkMu, sinkTarget, got)
				}
				if tr.Enabled() {
					tr.Xfer(trace.LayerSage, tp.Node, track,
						fmt.Sprintf("recv b%d t%d", e.Buf, e.X.SrcThread),
						e.X.Bytes, iter, xferStart, rank.Proc().Now())
				}
				// Return a pipelining credit to the producer.
				rank.Send(peer, e.CreditTag(), mpi.Empty())
			}
			inBlocks[pp.Entry.Name] = blk
		}
		if len(tp.Ins) > 0 {
			r.trace(tp, iter, "recv", recvStart, rank.Proc().Now())
			tr.Phase(trace.LayerSage, tp.Node, track, "recv", iter, recvStart, rank.Proc().Now())
		}

		// --- dispatch + compute --------------------------------------------
		compStart := rank.Proc().Now()
		node.ComputeTime(rank.Proc(), r.opts.DispatchOverhead)

		clear(outBlocks)
		for pi := range tp.Outs {
			pp := &tp.Outs[pi]
			blk := &pp.Charge
			switch {
			case compute && tp.InPlace:
				// The thread owns its input block: the kind transforms it
				// where it lies (the cost model still charges the copy).
				blk = inBlocks[tp.Ins[0].Entry.Name]
			case compute:
				blk = funclib.NewBlock(pp.Region)
			}
			outBlocks[pp.Entry.Name] = blk
		}
		ctx.Iteration = iter
		cost := tp.Impl.Cost(ctx, inBlocks, outBlocks)
		copyBytes := cost.CopyBytes
		if r.opts.OptimizedBuffers && !tp.Source && !tp.Sink {
			// In-place computation where legal: the input-to-output copy
			// disappears.
			for pi := range tp.Ins {
				copyBytes -= tp.Ins[pi].Bytes()
			}
			if copyBytes < 0 {
				copyBytes = 0
			}
		}
		node.ComputeFlops(rank.Proc(), cost.Flops)
		node.Memcpy(rank.Proc(), copyBytes)
		if compute {
			if err := tp.Impl.Compute(ctx, inBlocks, outBlocks); err != nil {
				r.fail(fmt.Errorf("sagert: %s thread %d iteration %d: %w", tp.Fn.Name, tp.Index, iter, err))
				return
			}
		}
		r.trace(tp, iter, "compute", compStart, rank.Proc().Now())
		tr.Phase(trace.LayerSage, tp.Node, track, "compute", iter, compStart, rank.Proc().Now())

		// --- send phase ------------------------------------------------------
		sendStart := rank.Proc().Now()
		for pi := range tp.Outs {
			pp := &tp.Outs[pi]
			blk := outBlocks[pp.Entry.Name]
			for _, ei := range r.orderXfers(pp.Edges, false, rank.Proc().Now()) {
				e := &edges[ei]
				peer := threads[e.Dst].Node
				if r.credits[ei] == 0 {
					creditStart := rank.Proc().Now()
					if inj.Enabled() {
						r.awaitCredit(rank, tp, track, ei, peer)
					} else {
						rank.Recv(peer, e.CreditTag())
					}
					if tr.Enabled() && rank.Proc().Now() > creditStart {
						tr.Phase(trace.LayerSage, tp.Node, track,
							fmt.Sprintf("credit b%d", e.Buf),
							iter, creditStart, rank.Proc().Now())
					}
				} else {
					r.credits[ei]--
				}
				xferStart := rank.Proc().Now()
				if r.localOptimised(tp.Node, peer) {
					var pass *funclib.Block // nothing to hand over when charge-only
					if compute {
						pass = funclib.ExtractRegion(blk, e.X.Region)
					}
					r.localQueues[ei].Send(pass)
					continue
				}
				// Pack the region out of the logical buffer; a region that
				// is contiguous in the buffer is sent in place, zero-copy.
				// (The charge is the model's; the host sends a view of the
				// block either way.)
				if !e.SrcContig {
					node.Memcpy(rank.Proc(), e.X.Bytes)
				}
				// The message is priced by the table's wire size whether or
				// not it has a body: a data set that carries samples costs
				// what one that does not costs, for every element kind.
				payload := mpi.Payload{Bytes: e.X.Bytes}
				if compute {
					payload.Data = funclib.ExtractRegion(blk, e.X.Region)
				}
				rank.Send(peer, e.DataTag(), payload)
				if tr.Enabled() {
					tr.Xfer(trace.LayerSage, tp.Node, track,
						fmt.Sprintf("send b%d t%d", e.Buf, e.X.DstThread),
						e.X.Bytes, iter, xferStart, rank.Proc().Now())
				}
			}
		}
		if len(tp.Outs) > 0 {
			r.trace(tp, iter, "send", sendStart, rank.Proc().Now())
			tr.Phase(trace.LayerSage, tp.Node, track, "send", iter, sendStart, rank.Proc().Now())
		}

		if tp.Sink {
			r.noteSinkDone(iter, rank.Proc().Now())
		}
		if r.iterBarrier != nil {
			r.iterBarrier.Wait(rank.Proc())
		}
	}
}

// recvData receives one striped region. Without a fault injector it is a
// plain blocking Recv. In resilient mode it re-arms a timed receive until the
// data arrives: the message is guaranteed to come eventually (the MPI retry
// protocol forces delivery after its attempt budget), so the loop terminates;
// each expiry is recorded as a recv-timeout fault span on the thread's track.
func (r *runner) recvData(rank *mpi.Rank, tp *plan.Thread, track string, e *plan.Edge, peer int) mpi.Payload {
	tag := e.DataTag()
	if !r.mach.Faults().Enabled() {
		return rank.Recv(peer, tag)
	}
	tr := r.mach.Trace()
	for {
		start := rank.Proc().Now()
		payload, ok := rank.RecvTimeout(peer, tag, r.opts.Resilience.RecvTimeout)
		if ok {
			return payload
		}
		tr.FaultSpanOn(tp.Node, track,
			fmt.Sprintf("recv-timeout b%d t%d", e.Buf, e.X.SrcThread),
			start, rank.Proc().Now())
	}
}

// awaitCredit blocks until a pipelining credit for edge ei arrives, in resilient
// mode. Each timed-out wait is recorded; while the per-transfer overcommit
// budget lasts, a timeout is resolved by borrowing an emergency slot and
// proceeding without the credit — the credit stays in flight and satisfies a
// later wait instantly, so the pipeline depth overshoot is bounded by the
// budget and drains by itself.
func (r *runner) awaitCredit(rank *mpi.Rank, tp *plan.Thread, track string, ei int32, peer int) {
	e := &r.plan.Edges[ei]
	res := r.opts.Resilience
	tr := r.mach.Trace()
	for {
		start := rank.Proc().Now()
		if _, ok := rank.RecvTimeout(peer, e.CreditTag(), res.CreditTimeout); ok {
			return
		}
		tr.FaultSpanOn(tp.Node, track,
			fmt.Sprintf("credit-timeout b%d", e.Buf), start, rank.Proc().Now())
		if r.overcommit[ei] < res.MaxCreditOvercommit {
			r.overcommit[ei]++
			tr.FaultPoint(tp.Node,
				fmt.Sprintf("overcommit b%d %d->%d", e.Buf, e.X.SrcThread, e.X.DstThread),
				rank.Proc().Now())
			return
		}
	}
}

// orderXfers returns a port's transfer schedule, re-sequenced in degraded
// mode: transfers whose peer node is currently inside a stall window move —
// stably — to the back, so healthy peers are serviced first and the stalled
// peer's transfer is attempted as late as possible (by which time it may have
// restarted). Without Resilience.Degraded (or without faults) the plan's
// order is returned untouched.
func (r *runner) orderXfers(edges []int32, input bool, now sim.Time) []int32 {
	inj := r.mach.Faults()
	if !r.opts.Resilience.Degraded || !inj.Enabled() {
		return edges
	}
	peerStalled := func(ei int32) bool {
		e := &r.plan.Edges[ei]
		peer := e.Dst
		if input {
			peer = e.Src
		}
		return inj.NodeStalled(r.plan.Threads[peer].Node, now)
	}
	stalled := 0
	for _, ei := range edges {
		if peerStalled(ei) {
			stalled++
		}
	}
	if stalled == 0 || stalled == len(edges) {
		return edges
	}
	out := make([]int32, 0, len(edges))
	tail := make([]int32, 0, stalled)
	for _, ei := range edges {
		if peerStalled(ei) {
			tail = append(tail, ei)
		} else {
			out = append(out, ei)
		}
	}
	return append(out, tail...)
}

func (r *runner) noteSourceStart(iter int, t sim.Time) {
	r.noteMu.Lock()
	if r.sourceStart[iter] == 0 || t < r.sourceStart[iter] {
		r.sourceStart[iter] = t
	}
	r.noteMu.Unlock()
}

func (r *runner) noteSinkDone(iter int, t sim.Time) {
	r.noteMu.Lock()
	if t > r.sinkDone[iter] {
		r.sinkDone[iter] = t
	}
	r.noteMu.Unlock()
}

func (r *runner) noteOverrun(over sim.Duration) {
	r.noteMu.Lock()
	if over > r.maxOverrun {
		r.maxOverrun = over
	}
	r.noteMu.Unlock()
}

func (r *runner) trace(tp *plan.Thread, iter int, phase string, start, end sim.Time) {
	if r.opts.Trace == nil || !(tp.Fn.Probe || r.opts.ProbeAll) {
		return
	}
	r.opts.Trace(Event{
		Fn: tp.Fn.ID, FnName: tp.Fn.Name, Thread: tp.Index, Node: tp.Node,
		Iter: iter, Phase: phase, Start: start, End: end,
	})
}

// result assembles the Result after the kernel drains.
func (r *runner) result(k *sim.Kernel) *Result {
	res := &Result{
		Output: r.output, Outputs: r.outputs, Elapsed: k.Now(),
		MaxOverrun: r.maxOverrun, Dispatches: k.Dispatched(), Switches: k.Switches(),
	}
	for i := 0; i < r.opts.Iterations; i++ {
		res.Latencies = append(res.Latencies, r.sinkDone[i].Sub(r.sourceStart[i]))
	}
	if r.opts.Iterations > 1 {
		res.Period = r.sinkDone[r.opts.Iterations-1].Sub(r.sinkDone[0]) / sim.Duration(r.opts.Iterations-1)
	} else {
		res.Period = res.Latencies[0]
	}
	for _, nd := range r.mach.Nodes() {
		res.NodeStats = append(res.NodeStats, NodeStat{
			Node: nd.ID, ComputeBusy: nd.ComputeBusy, CopyBusy: nd.CopyBusy,
			CommBusy: nd.CommBusy, Utilization: nd.Utilization(k.Now()),
		})
	}
	return res
}

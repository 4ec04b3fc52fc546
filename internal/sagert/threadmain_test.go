package sagert

import (
	"fmt"

	"repro/internal/funclib"
	"repro/internal/mpi"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/trace"
)

// threadMain is the function thread as the coroutine it was before a thread
// became a stackless step machine (step.go), kept as the oracle the machine
// is held to (stepper_test.go): the same walk over the plan written with the
// blocking forms, one process park per blocking call.

// spawnCoroutines is runner.spawn with every thread a coroutine process
// running threadMain.
func spawnCoroutines(r *runner, k *sim.Kernel) {
	for ti := range r.plan.Threads {
		tp := &r.plan.Threads[ti]
		k.Spawn(fmt.Sprintf("%s.%s[%d]", r.plan.Tables.AppName, tp.Fn.Name, tp.Index), func(p *sim.Proc) {
			rank := r.world.Attach(tp.Node, p)
			r.threadMain(tp, rank)
		})
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
	// pass so the steady-state iteration allocates no blocks or contexts.
	inBlocks := make([]*funclib.Block, len(tp.Ins))
	outBlocks := make([]*funclib.Block, len(tp.Outs))
	ctx := &funclib.Context{
		FuncName: tp.Fn.Name, Params: tp.Fn.Params,
		Thread: tp.Index, Threads: tp.Fn.Threads,
	}
	var sink *sinkOut // non-nil on the threads of a collected sink
	for si := range r.sinks {
		if r.sinks[si].Fn == tp.Fn {
			sink = &r.sinks[si]
		}
	}
	for iter := 0; iter < r.opts.Iterations; iter++ {
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
			case !compute || sink != nil:
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
					unpack := 0
					if !e.DstContig {
						unpack = e.X.Bytes
					}
					payload := r.recvData(rank, tp, track, e, peer, unpack)
					if compute {
						got = payload.Data.(*funclib.Block)
					}
				}
				if compute && sink == nil {
					blk = funclib.Assemble(blk, got, e.X.Region)
				} else if compute && iter == r.opts.ComputeIterations-1 {
					funclib.StoreSink(&r.sinkMu, r.sinkMatrix(sink), got, e.X.Region)
				}
				if tr.Enabled() {
					tr.Xfer(trace.LayerSage, tp.Node, track,
						fmt.Sprintf("recv b%d t%d", e.Buf, e.X.SrcThread),
						e.X.Bytes, iter, xferStart, rank.Proc().Now())
				}
				// Return a pipelining credit to the producer.
				rank.Send(peer, e.CreditTag(), mpi.Empty())
			}
			inBlocks[pp.Pos] = blk
		}
		if len(tp.Ins) > 0 {
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
				blk = inBlocks[0]
			case compute:
				blk = funclib.NewBlock(pp.Region)
			}
			outBlocks[pp.Pos] = blk
		}
		ctx.Iteration = iter
		cost := tp.Impl.Cost(ctx, inBlocks, outBlocks)
		copyBytes := cost.CopyBytes
		if r.opts.OptimizedBuffers && !tp.Source && !tp.Sink {
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
				// The run drains and reports the first failure in
				// kernel order, as the sample tasks' join does at K = 1.
				r.samples.mu.Lock()
				if r.samples.err == nil {
					r.samples.err = fmt.Errorf("sagert: %s thread %d iteration %d: %w", tp.Fn.Name, tp.Index, iter, err)
				}
				r.samples.mu.Unlock()
			}
		}
		tr.Phase(trace.LayerSage, tp.Node, track, "compute", iter, compStart, rank.Proc().Now())

		// --- send phase ------------------------------------------------------
		sendStart := rank.Proc().Now()
		for pi := range tp.Outs {
			pp := &tp.Outs[pi]
			blk := outBlocks[pp.Pos]
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
						pass = blk
					}
					r.localQueues[ei].Send(pass)
					continue
				}
				pack := 0
				if !e.SrcContig {
					pack = e.X.Bytes
				}
				payload := mpi.Payload{Bytes: e.X.Bytes}
				if compute {
					payload.Data = blk
				}
				rank.SendPacked(peer, e.DataTag(), payload, pack)
				if tr.Enabled() {
					tr.Xfer(trace.LayerSage, tp.Node, track,
						fmt.Sprintf("send b%d t%d", e.Buf, e.X.DstThread),
						e.X.Bytes, iter, xferStart, rank.Proc().Now())
				}
			}
		}
		if len(tp.Outs) > 0 {
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

// recvData receives one striped region and unpacks unpack bytes of it; in
// resilient mode it re-arms a timed receive until the data arrives.
func (r *runner) recvData(rank *mpi.Rank, tp *plan.Thread, track string, e *plan.Edge, peer, unpack int) mpi.Payload {
	tag := e.DataTag()
	if !r.mach.Faults().Enabled() {
		return rank.RecvUnpacked(peer, tag, unpack)
	}
	tr := r.mach.Trace()
	for {
		start := rank.Proc().Now()
		payload, ok := rank.RecvTimeoutUnpacked(peer, tag, r.opts.Resilience.RecvTimeout, unpack)
		if ok {
			return payload
		}
		tr.FaultSpanOn(tp.Node, track,
			fmt.Sprintf("recv-timeout b%d t%d", e.Buf, e.X.SrcThread),
			start, rank.Proc().Now())
	}
}

// awaitCredit blocks until a pipelining credit for edge ei arrives, in
// resilient mode, borrowing an emergency slot on a timeout while the
// overcommit budget lasts.
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
		if int(r.overcommit[ei]) < res.MaxCreditOvercommit {
			r.overcommit[ei]++
			tr.FaultPoint(tp.Node,
				fmt.Sprintf("overcommit b%d %d->%d", e.Buf, e.X.SrcThread, e.X.DstThread),
				rank.Proc().Now())
			return
		}
	}
}

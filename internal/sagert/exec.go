package sagert

import (
	"fmt"
	"sync"

	"repro/internal/funclib"
	"repro/internal/isspl"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/plan"
	"repro/internal/sim"
)

type runner struct {
	plan  *plan.Plan
	opts  Options
	mach  *machine.Machine
	world *mpi.World

	sourceStart []sim.Time
	sinkDone    []sim.Time

	// sinks holds the collected sinks, indexed like plan.Sinks; the first is
	// Result.Output's. layouts is the plan's Layouts when any are collected.
	sinks   []sinkOut
	layouts []plan.Layout
	// Per-edge run state, indexed like plan.Edges.
	credits []int32
	// overcommit tracks emergency credit borrowing (resilient mode only): a
	// bounded per-run budget, so the pipeline depth can never exceed
	// BufferSlots + MaxCreditOvercommit.
	overcommit  []int32
	names       []xferNames                 // trace names, on a traced run only
	localQueues []*sim.Chan[*funclib.Block] // optimised node-local handoffs; nil elsewhere
	iterBarrier *sim.Barrier                // non-nil in Sequential mode
	maxOverrun  sim.Duration

	sinkMu sync.Mutex // guards assembled sink matrices (replicated sinks overlap)

	samples *samples // the sample tasks; nil on a run without samples
}

// A sinkOut is a collected sink's assembled output, shaped like the sink
// function's input port.
type sinkOut struct {
	*plan.Sink
	m *isspl.Matrix // allocated once, under runner.sinkMu (sinkMatrix)
}

// collectOutput notes the sinks whose output the run assembles. A run without
// compute iterations assembles nothing.
func (r *runner) collectOutput() {
	if r.opts.ComputeIterations == 0 {
		return
	}
	r.sinks, r.layouts = make([]sinkOut, len(r.plan.Sinks)), r.plan.Layouts()
	for si := range r.plan.Sinks {
		r.sinks[si].Sink = &r.plan.Sinks[si]
	}
}

// sinkMatrix returns s's matrix, allocating it on the first call: when the
// last compute iteration's first payload lands in it or its first
// result-backed producer takes its storage there, not before the kernel
// starts.
func (r *runner) sinkMatrix(s *sinkOut) *isspl.Matrix {
	r.sinkMu.Lock()
	defer r.sinkMu.Unlock()
	if s.m == nil {
		s.m = isspl.NewMatrix(s.Rows, s.Cols)
	}
	return s.m
}

// localOptimised reports whether a transfer can use the optimised
// node-local handoff path.
func (r *runner) localOptimised(srcNode, dstNode int) bool {
	return r.opts.OptimizedBuffers && srcNode == dstNode
}

// spawn launches every function thread as a stackless process stepping the
// thread's state machine (step.go), attached to its mapped node's rank. A
// rank's queue of unexpected messages is sized from the lanes its threads
// feed and are fed by.
func (r *runner) spawn(k *sim.Kernel) {
	blocks := r.portBlocks()
	for ti := range r.plan.Threads {
		t := &thread{}
		tp := &r.plan.Threads[ti]
		p := k.SpawnStep(t, t.step)
		rank := r.world.Attach(tp.Node, p)
		for pi := range tp.Outs {
			rank.Reserve(len(tp.Outs[pi].Edges), 0)
		}
		for pi := range tp.Ins {
			rank.Reserve(0, len(tp.Ins[pi].Edges))
		}
		t.init(r, ti, rank, blocks)
		blocks = blocks[len(tp.Ins)+len(tp.Outs):]
	}
}

// portBlocks is the one array every thread's port blocks are carved from,
// thread by thread in plan order.
func (r *runner) portBlocks() []*funclib.Block {
	n := 0
	for ti := range r.plan.Threads {
		n += len(r.plan.Threads[ti].Ins) + len(r.plan.Threads[ti].Outs)
	}
	return make([]*funclib.Block, n)
}

// buildLocalQueues creates every optimised node-local handoff channel before
// the kernel runs (a channel is inert until used).
func (r *runner) buildLocalQueues(k *sim.Kernel) {
	if !r.opts.OptimizedBuffers {
		return
	}
	r.localQueues = make([]*sim.Chan[*funclib.Block], len(r.plan.Edges))
	for ei := range r.plan.Edges {
		e := &r.plan.Edges[ei]
		if node := r.plan.Threads[e.Src].Node; node == r.plan.Threads[e.Dst].Node {
			r.localQueues[ei] = sim.NewChan[*funclib.Block](k,
				fmt.Sprintf("local b%d %d->%d", e.Buf, e.X.SrcThread, e.X.DstThread))
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
	if r.sourceStart[iter] == 0 || t < r.sourceStart[iter] {
		r.sourceStart[iter] = t
	}
}

func (r *runner) noteSinkDone(iter int, t sim.Time) {
	r.sinkDone[iter] = max(r.sinkDone[iter], t)
}

func (r *runner) noteOverrun(over sim.Duration) {
	r.maxOverrun = max(r.maxOverrun, over)
}

// result assembles the Result after the kernel drains.
func (r *runner) result(k *sim.Kernel) *Result {
	outputs := make(map[string]*isspl.Matrix, len(r.sinks))
	for si := range r.sinks {
		outputs[r.sinks[si].Fn.Name] = r.sinkMatrix(&r.sinks[si]) // a sink that received nothing is zero
	}
	res := &Result{
		Outputs: outputs, Elapsed: k.Now(),
		MaxOverrun: r.maxOverrun, Dispatches: k.Dispatched(), Switches: k.Switches(),
	}
	if len(r.sinks) > 0 {
		res.Output = r.sinks[0].m
	}
	for i := 0; i < r.opts.Iterations; i++ {
		res.Latencies = append(res.Latencies, r.sinkDone[i].Sub(r.sourceStart[i]))
	}
	if r.opts.Iterations > 1 {
		res.Period = r.sinkDone[r.opts.Iterations-1].Sub(r.sinkDone[0]) / sim.Duration(r.opts.Iterations-1)
	} else {
		res.Period = res.Latencies[0]
	}
	res.NodeStats = make([]NodeStat, r.mach.NumNodes())
	for i := range res.NodeStats {
		t := r.mach.Totals(i)
		res.NodeStats[i] = NodeStat{
			Node: i, ComputeBusy: t.ComputeBusy, CopyBusy: t.CopyBusy,
			CommBusy: t.CommBusy, Utilization: t.Utilization(k.Now()),
		}
	}
	return res
}

// Package twin is the analytical twin of the SAGE discrete-event runtime: a
// closed-form cost model that predicts what sagert.Run would measure — total
// virtual time, per-phase breakdowns, per-node busy accounting — without
// dispatching a single simulated event.
//
// The twin prices exactly the cost terms the DES charges, read from the same
// sources of truth: the glue generator's runtime tables (striping transfers,
// logical-buffer regions, execution order) and the machine's LogGP-style
// link parameters (software send/recv overheads, wire serialisation,
// pipelined latency, local memory-copy bandwidth). One iteration is
// list-scheduled in table order per thread — receive waits, assembly copies,
// credit returns, dispatch, compute, pack copies, sends — with co-located
// threads serialising on their node's CPU; whole runs compose iterations
// analytically (a credit-free fill iteration, a steady-state iteration that
// pays the credit receive, and for pipelined runs a bottleneck period from
// per-resource busy totals).
//
// What the twin models exactly: every per-message and per-byte cost term
// (they match the DES's per-node Compute/Copy/Comm accounting to the
// nanosecond on clean runs). What it approximates: intra-iteration resource
// contention (CPU quantum interleaving, egress and fabric queueing) and
// pipelined-fill transients. What it does not model at all: fault injection
// and the resilient runtime's retry paths. The cross-validation harness in
// twin/validate holds the approximation honest with MAPE and rank-correlation
// gates against the DES oracle.
package twin

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/funclib"
	"repro/internal/gluegen"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/plan"
	"repro/internal/sagert"
	"repro/internal/sim"
)

// Options selects the execution protocol to predict. The fields mirror
// sagert.Options; zero values select the same defaults the runtime applies.
type Options struct {
	// Iterations is the number of data sets (>= 1).
	Iterations int
	// DispatchOverhead is the per-invocation function-table dispatch cost.
	// Zero selects sagert.DefaultDispatchOverhead.
	DispatchOverhead sim.Duration
	// BufferSlots is the per-transfer pipelining credit (default 2).
	BufferSlots int
	// Sequential predicts the barrier-synchronised mode: one data set at a
	// time, latency equals period.
	Sequential bool
	// OptimizedBuffers predicts the optimised-buffer mode: node-local
	// transfers hand off by reference (one copy) and non-endpoint functions
	// compute in place.
	OptimizedBuffers bool
	// NodeSpeeds are per-node CPU speed multipliers (flops only, like the
	// machine model); missing entries default to 1.
	NodeSpeeds []float64
}

func (o Options) withDefaults() Options {
	if o.Iterations < 1 {
		o.Iterations = 1
	}
	if o.DispatchOverhead <= 0 {
		o.DispatchOverhead = sagert.DefaultDispatchOverhead
	}
	if o.BufferSlots < 1 {
		o.BufferSlots = 2
	}
	return o
}

// NodeCost is one node's predicted busy-time accounting, in the same three
// categories the machine model reports (sagert.NodeStat).
type NodeCost struct {
	Compute sim.Duration
	Copy    sim.Duration
	Comm    sim.Duration
}

// ShardWeights returns the twin's per-node busy forecast: each node's
// predicted total busy time — compute, copy and communication — under
// protocol o, indexed by node.
func ShardWeights(t *gluegen.Tables, pl machine.Platform, o Options) ([]float64, error) {
	e, err := NewEvaluator(t, pl)
	if err != nil {
		return nil, err
	}
	p := e.Predict(o)
	w := make([]float64, len(p.Nodes))
	for i, nc := range p.Nodes {
		w[i] = float64(nc.Compute + nc.Copy + nc.Comm)
	}
	return w, nil
}

// Phases is a per-phase cost breakdown: total thread-occupied time summed
// over all threads and iterations, split the way the runtime's own phase
// trace splits it.
type Phases struct {
	Recv     sim.Duration // arrival waits excluded: receive overheads, assembly copies, credit returns
	Dispatch sim.Duration // function-table dispatch
	Compute  sim.Duration // library flops + buffer-management copies
	Send     sim.Duration // credit receives, pack copies, send overheads, wire serialisation
}

// Prediction is the twin's forecast of one run.
type Prediction struct {
	// Elapsed predicts sagert.Result.Elapsed: the total virtual time.
	Elapsed sim.Duration
	// AvgLatency predicts the mean source-start to sink-done time. In
	// pipelined mode this is the unloaded (steady-iteration) latency;
	// queueing delay while the pipeline is backed up is a known blind spot.
	AvgLatency sim.Duration
	// Period predicts the steady-state time between completed data sets.
	Period sim.Duration
	// FirstIteration is the makespan of a credit-free fill iteration.
	FirstIteration sim.Duration
	// SteadyIteration is the makespan of a steady-state iteration (credits
	// exhausted, producers pay the credit receive).
	SteadyIteration sim.Duration
	// BottleneckPeriod is the pipelined throughput bound: the largest
	// per-iteration demand on any single resource (a node's CPU, a node's
	// egress port, the shared fabric, one thread's occupied time).
	BottleneckPeriod sim.Duration
	// Iterations echoes the protocol.
	Iterations int
	// Nodes is the predicted per-node busy accounting for the whole run; on
	// clean runs it matches the DES's NodeStats exactly.
	Nodes []NodeCost
	// Phases is the per-phase occupied-time breakdown for the whole run.
	Phases Phases
}

// threadCost is one thread's library cost, priced once from the plan's
// charge-only blocks.
type threadCost struct {
	flops     float64
	copyBytes int // funclib buffer-management bytes, before optimisation
	inBytes   int // total input-partition bytes (in-place optimisation credit)
}

// Evaluator predicts runs of one set of runtime tables on one platform.
// Build it once; Predict and PredictAssign are cheap, pure, and safe to call
// concurrently (scratch state is pooled), which is what lets the GA use the
// twin as a fast fitness function.
type Evaluator struct {
	pl machine.Platform
	// plan is the lowering the runtimes execute: its threads are the tasks,
	// its edges the flows, each port's edge list the runtime's own receive or
	// send order.
	plan    *plan.Plan
	costs   []threadCost // per plan thread
	base    []int        // the tables' own thread->node assignment, genome order
	order   []int        // thread indices in execution (topological) order
	scratch sync.Pool    // *evalScratch
}

// NewEvaluator builds the twin's cost tables from verified runtime tables.
// The striping transfers in the tables are mapping-independent, so one
// evaluator prices any thread->node assignment via PredictAssign.
func NewEvaluator(t *gluegen.Tables, pl machine.Platform) (*Evaluator, error) {
	xp, err := plan.Build(t)
	if err != nil {
		return nil, fmt.Errorf("twin: %w", err)
	}
	if pl.Name != t.Platform {
		return nil, fmt.Errorf("twin: tables were generated for platform %q, predicting on %q", t.Platform, pl.Name)
	}
	e := &Evaluator{
		pl: pl, plan: xp,
		costs: make([]threadCost, len(xp.Threads)),
		base:  make([]int, len(xp.Threads)),
	}
	for ti := range xp.Threads {
		tp := &xp.Threads[ti]
		e.base[ti] = tp.Node
		ins := make(map[string]*funclib.Block, len(tp.Ins))
		for pi := range tp.Ins {
			ins[tp.Ins[pi].Entry.Name] = &tp.Ins[pi].Charge
			e.costs[ti].inBytes += tp.Ins[pi].Bytes()
		}
		outs := make(map[string]*funclib.Block, len(tp.Outs))
		for pi := range tp.Outs {
			outs[tp.Outs[pi].Entry.Name] = &tp.Outs[pi].Charge
		}
		ctx := &funclib.Context{FuncName: tp.Fn.Name, Params: tp.Fn.Params, Thread: tp.Index, Threads: tp.Fn.Threads}
		c := tp.Impl.Cost(ctx, ins, outs)
		e.costs[ti].flops, e.costs[ti].copyBytes = c.Flops, c.CopyBytes
	}
	for _, id := range t.Order {
		for th := 0; th < t.Functions[id].Threads; th++ {
			e.order = append(e.order, xp.First[id]+th)
		}
	}
	e.scratch.New = func() any { return e.newScratch() }
	return e, nil
}

// NumNodes reports the machine size the tables target.
func (e *Evaluator) NumNodes() int { return e.plan.Tables.NumNodes }

// Tasks reports the thread count — the genome length PredictAssign expects.
func (e *Evaluator) Tasks() int { return len(e.plan.Threads) }

// Flows reports the striped-transfer count.
func (e *Evaluator) Flows() int { return len(e.plan.Edges) }

// BaseAssign returns a copy of the tables' own thread->node assignment, in
// genome order (function table order, threads ascending).
func (e *Evaluator) BaseAssign() []int {
	out := make([]int, len(e.base))
	copy(out, e.base)
	return out
}

// MappingFromAssign converts a genome-order assignment into a model mapping
// (function names from the tables).
func (e *Evaluator) MappingFromAssign(assign []int) *model.Mapping {
	m := model.NewMapping()
	i := 0
	for fi := range e.plan.Tables.Functions {
		f := &e.plan.Tables.Functions[fi]
		nodes := make([]int, f.Threads)
		for th := range nodes {
			nodes[th] = assign[i]
			i++
		}
		m.Set(f.Name, nodes...)
	}
	return m
}

// LinkCost is the closed-form price of moving one message, split the way the
// machine model charges it.
type LinkCost struct {
	// CPU is time on the sending CPU: the software send overhead for a
	// remote transfer, or the local memory copy for a self-transfer.
	CPU sim.Duration
	// Ser is the wire serialisation time (holds the sender's egress port and
	// the thread, but not the CPU).
	Ser sim.Duration
	// Lat is the pipelined delivery latency (occupies nobody).
	Lat sim.Duration
	// Local marks a self-transfer priced as a memory copy (CPU is CopyBusy,
	// not CommBusy, and no envelope-free wire time exists).
	Local bool
	// Inter marks a cross-board transfer (subject to the shared fabric).
	Inter bool
}

// Total is the time the sending thread is occupied plus delivery latency:
// the earliest a receiver can observe the message after the send began.
func (l LinkCost) Total() sim.Duration { return l.CPU + l.Ser + l.Lat }

// PointToPoint prices one message of payloadBytes from node src to node dst
// on the platform, including the MPI envelope — exactly the terms
// machine.Node.Transfer charges for mpi.Rank.Send.
func PointToPoint(pl *machine.Platform, src, dst, payloadBytes int) LinkCost {
	wire := payloadBytes + mpi.EnvelopeBytes
	if src == dst {
		return LinkCost{CPU: pl.CopyTime(wire), Local: true}
	}
	if pl.SameBoard(src, dst) {
		return LinkCost{CPU: pl.SendOverhead, Ser: serialTime(wire, pl.IntraBW), Lat: pl.IntraLatency}
	}
	return LinkCost{CPU: pl.SendOverhead, Ser: serialTime(wire, pl.InterBW), Lat: pl.InterLatency, Inter: true}
}

// CreditCost prices one pipelining-credit return (an empty payload) from the
// consumer's node back to the producer's.
func CreditCost(pl *machine.Platform, consumerNode, producerNode int) LinkCost {
	return PointToPoint(pl, consumerNode, producerNode, 0)
}

// ComputeCost prices one thread invocation on a node: dispatch overhead,
// library flops at the node's speed, and buffer-management copies (which,
// like the machine model, do not scale with CPU speed).
func ComputeCost(pl *machine.Platform, dispatch sim.Duration, flops float64, copyBytes int, speed float64) (dispatchT, flopT, copyT sim.Duration) {
	flopT = pl.FlopTime(flops)
	if speed > 0 && speed != 1 {
		flopT = sim.Duration(float64(flopT) / speed)
	}
	return dispatch, flopT, pl.CopyTime(copyBytes)
}

// serialTime mirrors the machine model's wire serialisation price.
func serialTime(n int, bw float64) sim.Duration {
	if n <= 0 {
		return 0
	}
	return sim.Duration(float64(n) / bw * float64(time.Second))
}

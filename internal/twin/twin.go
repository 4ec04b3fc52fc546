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

// ShardWeights returns per-node load weights for seeding the sharded
// kernel's partitioner (sim/shard.Partition, via sagert.Options.ShardWeights):
// each node's predicted total busy time under protocol o. The twin's
// bottleneck decomposition puts the cut boundaries between the busy nodes
// instead of bisecting them, which balances the shards' event load. The
// weights only steer the partition — a byte-identical run falls out of any
// partition — so callers may freely ignore an error and pass nil (uniform).
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

// threadInfo is the static per-thread cost profile derived from the tables.
type threadInfo struct {
	fn        int // function table index
	thread    int
	flops     float64
	copyBytes int // funclib buffer-management bytes, before optimisation
	inBytes   int // total input-partition bytes (in-place optimisation credit)
	isSource  bool
	isSink    bool
	ins       []int // flow ids in the runtime's receive order
	outs      []int // flow ids in the runtime's send order
}

// flowInfo is one striped transfer between two threads.
type flowInfo struct {
	src, dst  int // thread indices
	bytes     int
	srcContig bool // region is contiguous in the producer's logical buffer
	dstContig bool // region is contiguous in the consumer's logical buffer
}

// Evaluator predicts runs of one set of runtime tables on one platform.
// Build it once; Predict and PredictAssign are cheap, pure, and safe to call
// concurrently (scratch state is pooled), which is what lets the GA use the
// twin as a fast fitness function.
type Evaluator struct {
	pl       machine.Platform
	numNodes int
	threads  []threadInfo
	flows    []flowInfo
	base     []int // the tables' own thread->node assignment, genome order
	order    []int // thread indices in execution (topological) order
	fns      []fnMeta
	scratch  sync.Pool // *evalScratch
}

type fnMeta struct {
	name    string
	threads int
}

// NewEvaluator builds the twin's cost tables from verified runtime tables.
// The striping transfers in the tables are mapping-independent, so one
// evaluator prices any thread->node assignment via PredictAssign.
func NewEvaluator(t *gluegen.Tables, pl machine.Platform) (*Evaluator, error) {
	if err := t.Verify(); err != nil {
		return nil, fmt.Errorf("twin: refusing unverified tables: %w", err)
	}
	if pl.Name != t.Platform {
		return nil, fmt.Errorf("twin: tables were generated for platform %q, predicting on %q", t.Platform, pl.Name)
	}
	e := &Evaluator{pl: pl, numNodes: t.NumNodes}

	firstThread := make([]int, len(t.Functions))
	n := 0
	for fi := range t.Functions {
		firstThread[fi] = n
		n += t.Functions[fi].Threads
		e.fns = append(e.fns, fnMeta{name: t.Functions[fi].Name, threads: t.Functions[fi].Threads})
	}
	e.threads = make([]threadInfo, n)
	e.base = make([]int, n)

	// Global flow table: one entry per (buffer, transfer), with the
	// contiguity of the region in both endpoint logical buffers — the exact
	// predicate the runtime uses to decide whether a pack or assembly copy
	// is charged.
	flowID := make([][]int, len(t.Buffers))
	for bi := range t.Buffers {
		b := &t.Buffers[bi]
		src := &t.Functions[b.SrcFn]
		dst := &t.Functions[b.DstFn]
		srcPort := portEntry(src.Outs, b.SrcPort)
		dstPort := portEntry(dst.Ins, b.DstPort)
		if srcPort == nil || dstPort == nil {
			return nil, fmt.Errorf("twin: buffer %d references missing ports", b.ID)
		}
		ids := make([]int, len(b.Transfers))
		for ti, x := range b.Transfers {
			sreg, err := model.Partition(srcPort.Striping, srcPort.Rows, srcPort.Cols, src.Threads, x.SrcThread)
			if err != nil {
				return nil, err
			}
			dreg, err := model.Partition(dstPort.Striping, dstPort.Rows, dstPort.Cols, dst.Threads, x.DstThread)
			if err != nil {
				return nil, err
			}
			ids[ti] = len(e.flows)
			e.flows = append(e.flows, flowInfo{
				src:       firstThread[b.SrcFn] + x.SrcThread,
				dst:       firstThread[b.DstFn] + x.DstThread,
				bytes:     x.Bytes,
				srcContig: funclib.ContiguousIn(x.Region, sreg),
				dstContig: funclib.ContiguousIn(x.Region, dreg),
			})
		}
		flowID[bi] = ids
	}

	// Per-thread cost profiles and flow schedules, in the runtime's own
	// order: input ports in table order, each port's buffers in table order,
	// each buffer's transfers in table order.
	for fi := range t.Functions {
		fe := &t.Functions[fi]
		impl, err := funclib.Lookup(fe.Kind)
		if err != nil {
			return nil, err
		}
		for th := 0; th < fe.Threads; th++ {
			ti := firstThread[fi] + th
			info := &e.threads[ti]
			info.fn, info.thread = fi, th
			info.isSource = len(fe.Ins) == 0
			info.isSink = len(fe.Outs) == 0
			e.base[ti] = fe.Nodes[th]

			ins := make(map[string]*funclib.Block, len(fe.Ins))
			for pi := range fe.Ins {
				pe := &fe.Ins[pi]
				reg, err := model.Partition(pe.Striping, pe.Rows, pe.Cols, fe.Threads, th)
				if err != nil {
					return nil, err
				}
				ins[pe.Name] = &funclib.Block{Region: reg}
				info.inBytes += reg.Elems() * pe.ElemBytes
				for _, bufID := range pe.Buffers {
					b := &t.Buffers[bufID]
					if b.DstFn != fe.ID || b.DstPort != pe.Name {
						continue
					}
					for xi := range b.Transfers {
						if b.Transfers[xi].DstThread == th {
							info.ins = append(info.ins, flowID[bufID][xi])
						}
					}
				}
			}
			outs := make(map[string]*funclib.Block, len(fe.Outs))
			for pi := range fe.Outs {
				pe := &fe.Outs[pi]
				reg, err := model.Partition(pe.Striping, pe.Rows, pe.Cols, fe.Threads, th)
				if err != nil {
					return nil, err
				}
				outs[pe.Name] = &funclib.Block{Region: reg}
				for _, bufID := range pe.Buffers {
					b := &t.Buffers[bufID]
					if b.SrcFn != fe.ID || b.SrcPort != pe.Name {
						continue
					}
					for xi := range b.Transfers {
						if b.Transfers[xi].SrcThread == th {
							info.outs = append(info.outs, flowID[bufID][xi])
						}
					}
				}
			}
			ctx := &funclib.Context{FuncName: fe.Name, Params: fe.Params, Thread: th, Threads: fe.Threads}
			c := impl.Cost(ctx, ins, outs)
			info.flops, info.copyBytes = c.Flops, c.CopyBytes
		}
	}

	for _, id := range t.Order {
		for th := 0; th < t.Functions[id].Threads; th++ {
			e.order = append(e.order, firstThread[id]+th)
		}
	}
	e.scratch.New = func() any { return e.newScratch() }
	return e, nil
}

// NumNodes reports the machine size the tables target.
func (e *Evaluator) NumNodes() int { return e.numNodes }

// Tasks reports the thread count — the genome length PredictAssign expects.
func (e *Evaluator) Tasks() int { return len(e.threads) }

// Flows reports the striped-transfer count.
func (e *Evaluator) Flows() int { return len(e.flows) }

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
	for _, f := range e.fns {
		nodes := make([]int, f.threads)
		for th := range nodes {
			nodes[th] = assign[i]
			i++
		}
		m.Set(f.name, nodes...)
	}
	return m
}

// portEntry finds a port by name.
func portEntry(ports []gluegen.PortEntry, name string) *gluegen.PortEntry {
	for i := range ports {
		if ports[i].Name == name {
			return &ports[i]
		}
	}
	return nil
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

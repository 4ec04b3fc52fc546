// Package atot reproduces the SAGE Architecture Trades and Optimization
// Tool's mapping capability (§1.1): "the genetic algorithm based
// partitioning and mapping capability of AToT assigns the application tasks
// to the multi-processor, heterogeneous architecture. AToT can be employed
// for total design optimization, which includes load balancing of CPU
// resources, optimizing over latency constraints, communication minimization
// and scheduling of CPUs and busses."
//
// The package provides an analytic cost model over (application, mapping,
// platform) triples — per-node load, communication volume priced by the
// fabric, and a critical-path latency estimate via list scheduling — plus a
// seeded, deterministic genetic algorithm that searches thread-to-node
// assignments against that model, and greedy/round-robin baselines for
// comparison.
package atot

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/funclib"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/sim"
)

// task identifies one thread of one function.
type task struct {
	fn     *model.Function
	thread int
}

// flow is one precomputed data movement between threads (mapping
// independent: derived purely from port striping).
type flow struct {
	srcFn, srcThread int // function IDs and thread indices
	dstFn, dstThread int
	bytes            int
}

// Evaluator prices mappings of one application on one platform. Build it
// once; Evaluate is called per GA candidate.
type Evaluator struct {
	App      *model.App
	Platform machine.Platform
	NumNodes int

	tasks []task
	// taskTime[fnID][thread] is the per-iteration busy time of a thread on
	// a baseline-speed node.
	taskTime map[int][]sim.Duration
	flows    []flow
	order    []*model.Function
	// speeds are per-node CPU multipliers (heterogeneous targets); nil
	// means homogeneous.
	speeds []float64

	// Memoized hot-path tables, built once (GA fitness calls evalGenome tens
	// of thousands of times; nothing below may allocate or hash per call):
	taskIdx  map[[2]int]int    // (fnID, thread) -> dense task index
	fnSlot   map[int]int       // fnID -> dense function index
	taskBase []int             // [fnSlot] first task index of the function
	taskNode [][]sim.Duration  // [task][node] speed-scaled busy time
	flowSrc  []int             // [flow] source task index
	flowDst  []int             // [flow] destination task index
	flowCost [][3]sim.Duration // [flow] {same-node copy, intra-board, inter-board}
	incoming [][]int           // [fnSlot] indices of flows into the function
	board    []int             // [node] board id
	scratch  sync.Pool         // *evalScratch, shared by parallel fitness workers
}

// evalScratch holds one fitness evaluation's working arrays; pooled so
// concurrent GA workers neither allocate per genome nor share state.
type evalScratch struct {
	nodeBusy []sim.Duration
	nodeFree []sim.Duration
	ready    [][]sim.Duration // [fnSlot][thread]
	done     [][]sim.Duration
}

// SetNodeSpeeds installs per-node CPU speed multipliers matching the ones
// the simulated machine will run with (sagert.Options.NodeSpeeds), so the
// mapper optimises for the actual heterogeneous hardware.
func (e *Evaluator) SetNodeSpeeds(speeds []float64) {
	e.speeds = speeds
	e.buildTaskNode()
}

// nodeTime scales a baseline task time by the target node's speed.
func (e *Evaluator) nodeTime(d sim.Duration, node int) sim.Duration {
	if node < len(e.speeds) && e.speeds[node] > 0 {
		return sim.Duration(float64(d) / e.speeds[node])
	}
	return d
}

// NewEvaluator prepares the mapping-independent parts of the cost model.
func NewEvaluator(app *model.App, pl machine.Platform, numNodes int) (*Evaluator, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if err := funclib.ValidateApp(app); err != nil {
		return nil, err
	}
	order, err := app.TopoOrder()
	if err != nil {
		return nil, err
	}
	e := &Evaluator{
		App: app, Platform: pl, NumNodes: numNodes,
		taskTime: map[int][]sim.Duration{},
		order:    order,
	}
	var sc costScratch
	for _, f := range app.Functions {
		times := make([]sim.Duration, f.Threads)
		for th := 0; th < f.Threads; th++ {
			d, err := e.threadTime(f, th, &sc)
			if err != nil {
				return nil, err
			}
			times[th] = d
			e.tasks = append(e.tasks, task{fn: f, thread: th})
		}
		e.taskTime[f.ID] = times
	}
	if err := e.buildFlows(); err != nil {
		return nil, err
	}
	e.buildTables()
	return e, nil
}

// buildTables precomputes every mapping-independent lookup the hot
// evaluation path needs, replacing per-call map construction and pricing
// arithmetic with indexed loads.
func (e *Evaluator) buildTables() {
	e.taskIdx = make(map[[2]int]int, len(e.tasks))
	for i, t := range e.tasks {
		e.taskIdx[[2]int{t.fn.ID, t.thread}] = i
	}
	e.fnSlot = make(map[int]int, len(e.App.Functions))
	e.taskBase = make([]int, len(e.App.Functions))
	base := 0
	for si, f := range e.App.Functions {
		e.fnSlot[f.ID] = si
		e.taskBase[si] = base
		base += f.Threads
	}
	e.board = make([]int, e.NumNodes)
	for n := 0; n < e.NumNodes; n++ {
		e.board[n] = e.Platform.Board(n)
	}
	e.flowSrc = make([]int, len(e.flows))
	e.flowDst = make([]int, len(e.flows))
	e.flowCost = make([][3]sim.Duration, len(e.flows))
	e.incoming = make([][]int, len(e.App.Functions))
	pl := &e.Platform
	for fi, fl := range e.flows {
		e.flowSrc[fi] = e.taskIdx[[2]int{fl.srcFn, fl.srcThread}]
		e.flowDst[fi] = e.taskIdx[[2]int{fl.dstFn, fl.dstThread}]
		intraSer := sim.Duration(float64(fl.bytes) / pl.IntraBW * 1e9)
		interSer := sim.Duration(float64(fl.bytes) / pl.InterBW * 1e9)
		e.flowCost[fi] = [3]sim.Duration{
			pl.CopyTime(fl.bytes),
			pl.SendOverhead + pl.RecvOverhead + pl.IntraLatency + intraSer,
			pl.SendOverhead + pl.RecvOverhead + pl.InterLatency + interSer,
		}
		slot := e.fnSlot[fl.dstFn]
		e.incoming[slot] = append(e.incoming[slot], fi)
	}
	e.buildTaskNode()
	e.scratch.New = func() any { return e.newScratch() }
}

// buildTaskNode (re)computes the per-(task, node) busy-time table; rerun
// when the node speeds change.
func (e *Evaluator) buildTaskNode() {
	if e.taskIdx == nil {
		return // NewEvaluator still assembling; buildTables will call back
	}
	e.taskNode = make([][]sim.Duration, len(e.tasks))
	for i, t := range e.tasks {
		row := make([]sim.Duration, e.NumNodes)
		base := e.taskTime[t.fn.ID][t.thread]
		for n := 0; n < e.NumNodes; n++ {
			row[n] = e.nodeTime(base, n)
		}
		e.taskNode[i] = row
	}
}

func (e *Evaluator) newScratch() *evalScratch {
	s := &evalScratch{
		nodeBusy: make([]sim.Duration, e.NumNodes),
		nodeFree: make([]sim.Duration, e.NumNodes),
		ready:    make([][]sim.Duration, len(e.App.Functions)),
		done:     make([][]sim.Duration, len(e.App.Functions)),
	}
	for si, f := range e.App.Functions {
		s.ready[si] = make([]sim.Duration, f.Threads)
		s.done[si] = make([]sim.Duration, f.Threads)
	}
	return s
}

// flowTime prices flow fi between two nodes from the precomputed
// three-category table (same node / same board / cross-board).
func (e *Evaluator) flowTime(fi, srcNode, dstNode int) sim.Duration {
	switch {
	case srcNode == dstNode:
		return e.flowCost[fi][0]
	case e.board[srcNode] == e.board[dstNode]:
		return e.flowCost[fi][1]
	default:
		return e.flowCost[fi][2]
	}
}

// costScratch is threadTime's room, reused thread after thread: a thread's
// charge-only port blocks, the slots Cost takes them in and its context.
type costScratch struct {
	blocks []funclib.Block
	slots  []*funclib.Block
	ctx    funclib.Context
}

// threadTime estimates one thread's per-iteration compute time from the
// function library cost model.
func (e *Evaluator) threadTime(f *model.Function, th int, sc *costScratch) (sim.Duration, error) {
	impl, err := funclib.Lookup(f.Kind)
	if err != nil {
		return 0, err
	}
	// ValidateApp matched every port to one of the kind's: each has a
	// position on its side.
	place := func(ports []*model.Port, reqs []funclib.PortReq, slots []*funclib.Block, blocks []funclib.Block) error {
		for i, p := range ports {
			reg, err := p.Partition(th)
			if err != nil {
				return err
			}
			blocks[i] = funclib.Block{Region: reg}
			slots[funclib.Position(reqs, p.Name)] = &blocks[i]
		}
		return nil
	}
	k, n := len(f.Inputs), len(f.Inputs)+len(f.Outputs)
	sc.blocks, sc.slots = slices.Grow(sc.blocks[:0], n)[:n], slices.Grow(sc.slots[:0], n)[:n]
	if err := place(f.Inputs, impl.In, sc.slots[:k], sc.blocks[:k]); err != nil {
		return 0, err
	}
	if err := place(f.Outputs, impl.Out, sc.slots[k:], sc.blocks[k:]); err != nil {
		return 0, err
	}
	sc.ctx = funclib.Context{FuncName: f.Name, Params: f.Params, Thread: th, Threads: f.Threads}
	c := impl.Cost(&sc.ctx, sc.slots[:k:k], sc.slots[k:])
	return e.Platform.FlopTime(c.Flops) + e.Platform.CopyTime(c.CopyBytes), nil
}

// buildFlows derives the data movements from the striping relationships on
// each arc (the same computation the glue generator performs).
func (e *Evaluator) buildFlows() error {
	for _, arc := range e.App.Arcs {
		sp, dp := arc.From, arc.To
		sf, df := sp.Fn, dp.Fn
		eb, err := sp.Type.Elem.WireBytes()
		if err != nil {
			return err
		}
		for j := 0; j < df.Threads; j++ {
			dreg, err := dp.Partition(j)
			if err != nil {
				return err
			}
			if sp.Striping == model.Replicated {
				e.flows = append(e.flows, flow{
					srcFn: sf.ID, srcThread: j % sf.Threads,
					dstFn: df.ID, dstThread: j,
					bytes: dreg.Elems() * eb,
				})
				continue
			}
			for i := 0; i < sf.Threads; i++ {
				sreg, err := sp.Partition(i)
				if err != nil {
					return err
				}
				x := sreg.Intersect(dreg)
				if x.Empty() {
					continue
				}
				e.flows = append(e.flows, flow{
					srcFn: sf.ID, srcThread: i,
					dstFn: df.ID, dstThread: j,
					bytes: x.Elems() * eb,
				})
			}
		}
	}
	return nil
}

// transferTime prices one flow under a node assignment.
func (e *Evaluator) transferTime(f flow, srcNode, dstNode int) sim.Duration {
	pl := &e.Platform
	if srcNode == dstNode {
		return pl.CopyTime(f.bytes)
	}
	var bw float64
	var lat sim.Duration
	if pl.SameBoard(srcNode, dstNode) {
		bw, lat = pl.IntraBW, pl.IntraLatency
	} else {
		bw, lat = pl.InterBW, pl.InterLatency
	}
	ser := sim.Duration(float64(f.bytes) / bw * 1e9)
	return pl.SendOverhead + pl.RecvOverhead + lat + ser
}

// Cost is the evaluated quality of a mapping (lower is better).
type Cost struct {
	// MaxNodeBusy is the busiest node's per-iteration time (load balance).
	MaxNodeBusy sim.Duration
	// Comm is the total communication time summed over flows.
	Comm sim.Duration
	// CriticalPath is the list-scheduled end-to-end latency estimate.
	CriticalPath sim.Duration
	// Total is the weighted objective.
	Total float64
}

// Weights combines the objectives; zero-valued weights fall back to the
// defaults (1, 1, 1).
type Weights struct {
	Load, Comm, Latency float64
	// LatencyBound, when positive, adds a steep penalty for estimated
	// critical paths beyond the bound ("optimizing over latency
	// constraints").
	LatencyBound sim.Duration
}

func (w Weights) withDefaults() Weights {
	if w.Load == 0 && w.Comm == 0 && w.Latency == 0 {
		w.Load, w.Comm, w.Latency = 1, 1, 1
	}
	return w
}

// genome is a flat thread->node assignment in e.tasks order.
type genome []int

// mappingFromGenome converts a genome to a model mapping.
func (e *Evaluator) mappingFromGenome(g genome) *model.Mapping {
	m := model.NewMapping()
	i := 0
	for _, f := range e.App.Functions {
		nodes := make([]int, f.Threads)
		for th := 0; th < f.Threads; th++ {
			nodes[th] = g[i]
			i++
		}
		m.Set(f.Name, nodes...)
	}
	return m
}

// genomeFromMapping flattens a mapping (which must be valid for the app).
func (e *Evaluator) genomeFromMapping(m *model.Mapping) (genome, error) {
	var g genome
	for _, f := range e.App.Functions {
		nodes, ok := m.Assign[f.Name]
		if !ok || len(nodes) != f.Threads {
			return nil, fmt.Errorf("atot: mapping incomplete for %q", f.Name)
		}
		g = append(g, nodes...)
	}
	return g, nil
}

// MappingFromAssign converts a flat thread->node assignment (App.Functions
// order, threads ascending — the GA's genome layout, shared with
// twin.Evaluator.PredictAssign) into a model mapping.
func (e *Evaluator) MappingFromAssign(assign []int) (*model.Mapping, error) {
	if len(assign) != len(e.tasks) {
		return nil, fmt.Errorf("atot: assignment has %d entries, want %d", len(assign), len(e.tasks))
	}
	return e.mappingFromGenome(assign), nil
}

// Evaluate prices a mapping.
func (e *Evaluator) Evaluate(m *model.Mapping, w Weights) (Cost, error) {
	g, err := e.genomeFromMapping(m)
	if err != nil {
		return Cost{}, err
	}
	return e.evalGenome(g, w.withDefaults()), nil
}

// evalGenome prices one genome. It is pure with respect to the Evaluator
// (scratch state comes from a pool), so evaluations may run concurrently;
// the GA's scoring workers each hold one scratch for a whole search and
// call evalGenomeInto.
func (e *Evaluator) evalGenome(g genome, w Weights) Cost {
	s := e.scratch.Get().(*evalScratch)
	c := e.evalGenomeInto(g, w, s)
	e.scratch.Put(s)
	return c
}

func (e *Evaluator) evalGenomeInto(g genome, w Weights, s *evalScratch) Cost {
	nodeBusy := s.nodeBusy
	for i := range nodeBusy {
		nodeBusy[i] = 0
	}
	for i := range e.tasks {
		nodeBusy[g[i]] += e.taskNode[i][g[i]]
	}
	var comm sim.Duration
	so, ro := e.Platform.SendOverhead, e.Platform.RecvOverhead
	for fi := range e.flows {
		src, dst := g[e.flowSrc[fi]], g[e.flowDst[fi]]
		comm += e.flowTime(fi, src, dst)
		// Communication also occupies the endpoints.
		nodeBusy[src] += so
		nodeBusy[dst] += ro
	}
	var maxBusy sim.Duration
	for _, b := range nodeBusy {
		if b > maxBusy {
			maxBusy = b
		}
	}
	cp := e.criticalPath(g, s)
	c := Cost{MaxNodeBusy: maxBusy, Comm: comm, CriticalPath: cp}
	c.Total = w.Load*float64(maxBusy) + w.Comm*float64(comm) + w.Latency*float64(cp)
	if w.LatencyBound > 0 && cp > w.LatencyBound {
		c.Total += 10 * float64(cp-w.LatencyBound)
	}
	return c
}

// criticalPath list-schedules one iteration: each thread starts when its
// inputs have arrived AND its processor is free (threads sharing a node
// serialise), and transfers start when the producing thread finishes.
func (e *Evaluator) criticalPath(g genome, s *evalScratch) sim.Duration {
	// ready[fnSlot][thread] = earliest start; done[fnSlot][thread] = finish.
	for si := range s.ready {
		r, d := s.ready[si], s.done[si]
		for i := range r {
			r[i], d[i] = 0, 0
		}
	}
	nodeFree := s.nodeFree
	for i := range nodeFree {
		nodeFree[i] = 0
	}
	var finish sim.Duration
	for _, f := range e.order {
		slot := e.fnSlot[f.ID]
		ready := s.ready[slot]
		for _, fi := range e.incoming[slot] {
			fl := &e.flows[fi]
			src, dst := g[e.flowSrc[fi]], g[e.flowDst[fi]]
			arrive := s.done[e.fnSlot[fl.srcFn]][fl.srcThread] + e.flowTime(fi, src, dst)
			if arrive > ready[fl.dstThread] {
				ready[fl.dstThread] = arrive
			}
		}
		base := e.taskBase[slot]
		doneRow := s.done[slot]
		for th := 0; th < f.Threads; th++ {
			ti := base + th
			node := g[ti]
			start := ready[th]
			if nodeFree[node] > start {
				start = nodeFree[node]
			}
			end := start + e.taskNode[ti][node]
			doneRow[th] = end
			nodeFree[node] = end
			if end > finish {
				finish = end
			}
		}
	}
	return finish
}

// ScheduledTask is one entry of the estimated execution schedule.
type ScheduledTask struct {
	Fn     string
	Thread int
	Node   int
	Start  sim.Duration
	End    sim.Duration
}

// EstimateSchedule list-schedules one iteration of the mapped application
// and returns per-task start/end estimates sorted by start time ("scheduling
// of CPUs and busses").
func (e *Evaluator) EstimateSchedule(m *model.Mapping) ([]ScheduledTask, error) {
	g, err := e.genomeFromMapping(m)
	if err != nil {
		return nil, err
	}
	s := e.scratch.Get().(*evalScratch)
	defer e.scratch.Put(s)
	for si := range s.ready {
		r, d := s.ready[si], s.done[si]
		for i := range r {
			r[i], d[i] = 0, 0
		}
	}
	nodeFree := s.nodeFree
	for i := range nodeFree {
		nodeFree[i] = 0
	}
	var out []ScheduledTask
	for _, f := range e.order {
		slot := e.fnSlot[f.ID]
		ready := s.ready[slot]
		for _, fi := range e.incoming[slot] {
			fl := &e.flows[fi]
			src, dst := g[e.flowSrc[fi]], g[e.flowDst[fi]]
			arrive := s.done[e.fnSlot[fl.srcFn]][fl.srcThread] + e.flowTime(fi, src, dst)
			if arrive > ready[fl.dstThread] {
				ready[fl.dstThread] = arrive
			}
		}
		base := e.taskBase[slot]
		doneRow := s.done[slot]
		for th := 0; th < f.Threads; th++ {
			ti := base + th
			node := g[ti]
			start := ready[th]
			if nodeFree[node] > start {
				start = nodeFree[node]
			}
			end := start + e.taskNode[ti][node]
			doneRow[th] = end
			nodeFree[node] = end
			out = append(out, ScheduledTask{
				Fn: f.Name, Thread: th, Node: node,
				Start: start, End: end,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Fn != out[j].Fn {
			return out[i].Fn < out[j].Fn
		}
		return out[i].Thread < out[j].Thread
	})
	return out, nil
}

package twin

import (
	"repro/internal/sim"
)

// evalScratch is one prediction's working state; pooled so concurrent GA
// fitness workers neither allocate per genome nor share state.
type evalScratch struct {
	nodeFree []sim.Duration // per-node CPU reservation within the iteration
	arrive   []sim.Duration // per-flow earliest receive time
	sendDone []sim.Duration // per-flow send completion (local handoff time)
	first    iterAcc
	steady   iterAcc
}

// iterAcc accumulates one iteration flavour's exact cost totals.
type iterAcc struct {
	compute     []sim.Duration // per node, mirrors machine ComputeBusy
	copy        []sim.Duration // per node, mirrors machine CopyBusy
	comm        []sim.Duration // per node, mirrors machine CommBusy
	cpu         []sim.Duration // per node, CPU-resource demand (busy() charges)
	egress      []sim.Duration // per node, wire serialisation out of the node
	interSer    sim.Duration
	phases      Phases
	maxOccupied sim.Duration
	makespan    sim.Duration
	sinkEnd     sim.Duration
}

func (a *iterAcc) init(nodes int) {
	a.compute = make([]sim.Duration, nodes)
	a.copy = make([]sim.Duration, nodes)
	a.comm = make([]sim.Duration, nodes)
	a.cpu = make([]sim.Duration, nodes)
	a.egress = make([]sim.Duration, nodes)
}

func (a *iterAcc) reset() {
	for i := range a.compute {
		a.compute[i], a.copy[i], a.comm[i], a.cpu[i], a.egress[i] = 0, 0, 0, 0, 0
	}
	a.interSer = 0
	a.phases = Phases{}
	a.maxOccupied, a.makespan, a.sinkEnd = 0, 0, 0
}

func (e *Evaluator) newScratch() *evalScratch {
	s := &evalScratch{
		nodeFree: make([]sim.Duration, e.NumNodes()),
		arrive:   make([]sim.Duration, len(e.plan.Edges)),
		sendDone: make([]sim.Duration, len(e.plan.Edges)),
	}
	s.first.init(e.NumNodes())
	s.steady.init(e.NumNodes())
	return s
}

// iterate list-schedules one iteration under assign and fills a with its
// exact cost totals. Threads walk in the tables' execution order; each
// thread starts once its node's CPU reservation frees (co-located threads
// serialise their busy work, arrival waits overlap), then replays the
// runtime's own sequence: receive transfers in table order (wait for
// arrival, receive overhead, assembly copy for strided regions, credit
// return), dispatch, flops and buffer copies, then send transfers in table
// order (steady iterations first consume a banked credit, strided regions
// pay a pack copy, the wire send posts the flow's arrival time).
func (e *Evaluator) iterate(assign []int, o *Options, steady bool, s *evalScratch, a *iterAcc) {
	a.reset()
	nf := s.nodeFree
	for i := range nf {
		nf[i] = 0
	}
	pl := &e.pl
	edges := e.plan.Edges
	for _, ti := range e.order {
		tp, info := &e.plan.Threads[ti], &e.costs[ti]
		node := assign[ti]
		speed := 1.0
		if node < len(o.NodeSpeeds) && o.NodeSpeeds[node] > 0 {
			speed = o.NodeSpeeds[node]
		}
		start := nf[node]
		t := start
		var cpu, occ sim.Duration

		// --- receive phase -----------------------------------------------
		for pi := range tp.Ins {
			for _, fi := range tp.Ins[pi].Edges {
				f := &edges[fi]
				srcNode := assign[f.Src]
				if o.OptimizedBuffers && srcNode == node {
					// Optimised local handoff: one copy, no messaging stack.
					if s.sendDone[fi] > t {
						t = s.sendDone[fi]
					}
					d := pl.CopyTime(f.X.Bytes)
					t += d
					cpu += d
					occ += d
					a.copy[node] += d
					a.phases.Recv += d
				} else {
					if s.arrive[fi] > t {
						t = s.arrive[fi]
					}
					d := pl.RecvOverhead
					t += d
					cpu += d
					occ += d
					a.comm[node] += d
					a.phases.Recv += d
					if !f.DstContig {
						c := pl.CopyTime(f.X.Bytes)
						t += c
						cpu += c
						occ += c
						a.copy[node] += c
						a.phases.Recv += c
					}
				}
				// Return a pipelining credit to the producer.
				lc := CreditCost(pl, node, srcNode)
				t += lc.CPU + lc.Ser
				cpu += lc.CPU
				occ += lc.CPU + lc.Ser
				if lc.Local {
					a.copy[node] += lc.CPU
				} else {
					a.comm[node] += lc.CPU + lc.Ser
					a.egress[node] += lc.Ser
					if lc.Inter {
						a.interSer += lc.Ser
					}
				}
				a.phases.Recv += lc.CPU + lc.Ser
			}
		}

		// --- dispatch + compute ------------------------------------------
		cb := info.copyBytes
		if o.OptimizedBuffers && !tp.Source && !tp.Sink {
			cb -= info.inBytes
			if cb < 0 {
				cb = 0
			}
		}
		dispatchT, flopT, copyT := ComputeCost(pl, o.DispatchOverhead, info.flops, cb, speed)
		t += dispatchT + flopT + copyT
		cpu += dispatchT + flopT + copyT
		occ += dispatchT + flopT + copyT
		a.compute[node] += dispatchT + flopT
		a.copy[node] += copyT
		a.phases.Dispatch += dispatchT
		a.phases.Compute += flopT + copyT

		// --- send phase ---------------------------------------------------
		for pi := range tp.Outs {
			for _, fi := range tp.Outs[pi].Edges {
				f := &edges[fi]
				dstNode := assign[f.Dst]
				if steady {
					// Credits exhausted: consume one banked by the consumer in a
					// previous iteration — a receive overhead, no wait.
					d := pl.RecvOverhead
					t += d
					cpu += d
					occ += d
					a.comm[node] += d
					a.phases.Send += d
				}
				if o.OptimizedBuffers && dstNode == node {
					s.sendDone[fi] = t
					continue
				}
				if !f.SrcContig {
					c := pl.CopyTime(f.X.Bytes)
					t += c
					cpu += c
					occ += c
					a.copy[node] += c
					a.phases.Send += c
				}
				lc := PointToPoint(pl, node, dstNode, f.X.Bytes)
				t += lc.CPU + lc.Ser
				cpu += lc.CPU
				occ += lc.CPU + lc.Ser
				if lc.Local {
					a.copy[node] += lc.CPU
				} else {
					a.comm[node] += lc.CPU + lc.Ser
					a.egress[node] += lc.Ser
					if lc.Inter {
						a.interSer += lc.Ser
					}
				}
				a.phases.Send += lc.CPU + lc.Ser
				s.sendDone[fi] = t
				s.arrive[fi] = t + lc.Lat
			}
		}

		nf[node] = start + cpu
		a.cpu[node] += cpu
		if occ > a.maxOccupied {
			a.maxOccupied = occ
		}
		if t > a.makespan {
			a.makespan = t
		}
		if tp.Sink && t > a.sinkEnd {
			a.sinkEnd = t
		}
	}
	if a.sinkEnd == 0 {
		a.sinkEnd = a.makespan
	}
}

// bottleneck computes the pipelined steady-state period bound: the largest
// per-iteration demand on any single serial resource.
func (e *Evaluator) bottleneck(a *iterAcc) sim.Duration {
	p := a.maxOccupied
	for n := range a.cpu {
		if a.cpu[n] > p {
			p = a.cpu[n]
		}
		if a.egress[n] > p {
			p = a.egress[n]
		}
	}
	if c := e.pl.FabricConcurrency; c > 0 {
		if f := a.interSer / sim.Duration(c); f > p {
			p = f
		}
	}
	return p
}

// Predict forecasts a run of the tables' own mapping.
func (e *Evaluator) Predict(o Options) *Prediction {
	return e.PredictAssign(e.base, o)
}

// PredictAssign forecasts a run under an alternative thread->node
// assignment (genome order: function table order, threads ascending). It
// panics on a malformed assignment — like the GA's genomes, assignments are
// produced by code, not users. Safe for concurrent use.
func (e *Evaluator) PredictAssign(assign []int, o Options) *Prediction {
	o = o.withDefaults()
	s := e.acquire(assign)
	defer e.scratch.Put(s)
	fill, ss := e.run(assign, &o, s)

	p := &Prediction{
		Iterations:       o.Iterations,
		FirstIteration:   fill.makespan,
		SteadyIteration:  ss.makespan,
		BottleneckPeriod: e.bottleneck(ss),
		Nodes:            make([]NodeCost, e.NumNodes()),
	}
	f, r := splitIterations(o.Iterations, o.BufferSlots)
	fd, rd := sim.Duration(f), sim.Duration(r)
	for n := range p.Nodes {
		p.Nodes[n] = NodeCost{
			Compute: fd*fill.compute[n] + rd*ss.compute[n],
			Copy:    fd*fill.copy[n] + rd*ss.copy[n],
			Comm:    fd*fill.comm[n] + rd*ss.comm[n],
		}
	}
	p.Phases = Phases{
		Recv:     fd*fill.phases.Recv + rd*ss.phases.Recv,
		Dispatch: fd*fill.phases.Dispatch + rd*ss.phases.Dispatch,
		Compute:  fd*fill.phases.Compute + rd*ss.phases.Compute,
		Send:     fd*fill.phases.Send + rd*ss.phases.Send,
	}
	p.AvgLatency = (fd*fill.sinkEnd + rd*ss.sinkEnd) / sim.Duration(o.Iterations)

	if o.Sequential {
		p.Elapsed = fd*fill.makespan + rd*ss.makespan
		if o.Iterations == 1 {
			p.Period = fill.sinkEnd
		} else {
			// sinkDone[i] = (sum of iteration lengths before i) + that
			// iteration's sink end; the period is the mean gap.
			lastLen, lastSink := fill.makespan, fill.sinkEnd
			if r > 0 {
				lastLen, lastSink = ss.makespan, ss.sinkEnd
			}
			total := fd*fill.makespan + rd*ss.makespan - lastLen + lastSink
			p.Period = (total - fill.sinkEnd) / sim.Duration(o.Iterations-1)
		}
		return p
	}

	if o.Iterations == 1 {
		p.Elapsed = fill.makespan
		p.Period = fill.sinkEnd
		return p
	}
	// Iterations 2..f still run credit-free, so they recur at the fill
	// bottleneck; only the remaining r pay the steady (credit-consuming) one.
	p.Elapsed = fill.makespan +
		sim.Duration(f-1)*e.bottleneck(fill) +
		rd*p.BottleneckPeriod
	p.Period = p.BottleneckPeriod
	return p
}

// PredictElapsed is the allocation-free fast path for GA fitness: it returns
// only the predicted total virtual time.
func (e *Evaluator) PredictElapsed(assign []int, o Options) sim.Duration {
	o = o.withDefaults()
	s := e.acquire(assign)
	defer e.scratch.Put(s)
	fill, ss := e.run(assign, &o, s)
	f, r := splitIterations(o.Iterations, o.BufferSlots)
	if o.Sequential {
		return sim.Duration(f)*fill.makespan + sim.Duration(r)*ss.makespan
	}
	if o.Iterations == 1 {
		return fill.makespan
	}
	return fill.makespan +
		sim.Duration(f-1)*e.bottleneck(fill) +
		sim.Duration(r)*e.bottleneck(ss)
}

// run executes the fill-iteration walk and, when the protocol outlives the
// credit bank, the steady-state walk; with credits to spare the fill
// accumulator doubles as the steady one.
func (e *Evaluator) run(assign []int, o *Options, s *evalScratch) (fill, ss *iterAcc) {
	e.iterate(assign, o, false, s, &s.first)
	if o.Iterations > o.BufferSlots {
		e.iterate(assign, o, true, s, &s.steady)
		return &s.first, &s.steady
	}
	return &s.first, &s.first
}

// splitIterations divides a run into credit-free fill iterations and steady
// iterations that pay the credit receive.
func splitIterations(iterations, slots int) (fill, steady int) {
	fill = iterations
	if fill > slots {
		fill = slots
	}
	return fill, iterations - fill
}

func (e *Evaluator) acquire(assign []int) *evalScratch {
	if len(assign) != len(e.plan.Threads) {
		panic("twin: assignment length does not match the task count")
	}
	for _, n := range assign {
		if n < 0 || n >= e.NumNodes() {
			panic("twin: assignment maps a thread outside the machine")
		}
	}
	return e.scratch.Get().(*evalScratch)
}

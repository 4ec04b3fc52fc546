package stream

import (
	"fmt"

	"repro/internal/atot"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/twin"
)

// This file is the mid-run remapping machinery: the controller process that
// watches the fault injector degrade nodes and plans a new mapping, and the
// quiesce-drain-remap-resume protocol the threads execute to install it.
//
// The protocol keeps the cut consistent without global synchronisation
// primitives:
//
//  1. quiesce — the source stops admitting frames.
//  2. drain — the source waits until every admitted frame has completed at
//     the sink (the drain handshake), so no data message is in flight
//     anywhere.
//  3. remap — the source emits a remap marker slot through the OLD topology.
//     Each thread, on processing the marker, forwards it to its consumers
//     (still old topology), then receives back its outstanding pipelining
//     credits (they were sent to its old node; per-link FIFO guarantees
//     they arrive before any post-marker traffic matters), migrates its
//     working set to its new node if reassigned, and flips its epoch
//     pointer.
//  4. resume — the source migrates itself last, flips, and admits again.
//
// Because every thread flips at the same slot boundary and the pipeline is
// empty at the marker, pre-marker traffic uses old nodes on both sides and
// post-marker traffic new nodes on both sides — no message is ever sent to
// an endpoint the peer has abandoned.

// doRemap executes one pending remap from the source thread, at a frame
// boundary.
func (r *runner) doRemap(st *threadState) {
	next := r.pendingAssign
	trigger := r.pendingTrigger
	r.pendingAssign = nil
	tr := r.mach.Trace()

	// Quiesce + drain: stop admitting, wait for the pipeline to empty.
	quiesceStart := st.p.Now()
	r.drainTarget = r.admitted
	if r.framesDone >= r.drainTarget {
		r.drainTarget = -1
	} else {
		drainStart := st.p.Now()
		r.drainCh.Recv(st.p)
		if tr.Enabled() {
			tr.StreamSpan(st.my, trace.StreamTrack, "drain", drainStart, st.p.Now())
		}
	}

	migrated := 0
	for fi := range next {
		for th := range next[fi] {
			if r.curAssign[fi][th] != next[fi][th] {
				migrated++
			}
		}
	}

	// Publish the epoch and push the marker through the old topology; the
	// source's own marker handling (credit drain, self-migration, flip) is
	// the same remapStep every consumer runs.
	r.remapAssigns = append(r.remapAssigns, next)
	idx := len(r.remapAssigns) - 1
	r.emitMarker(st, slotRec{kind: slotRemap, arg: idx})
	r.remapStep(st, idx)
	r.curAssign = next

	stall := st.p.Now().Sub(quiesceStart)
	r.remaps = append(r.remaps, RemapEvent{
		At: quiesceStart, Stall: stall, Trigger: trigger, Migrated: migrated,
		Assign: next,
	})
	if tr.Enabled() {
		tr.StreamSpan(st.my, trace.StreamTrack, fmt.Sprintf("quiesce node %d", trigger), quiesceStart, st.p.Now())
		tr.StreamPoint(st.my, fmt.Sprintf("resume after %d migrations", migrated), st.p.Now())
	}
}

// remapStep is a thread's side of the remap marker (the source calls it
// directly after emitting; consumers reach it from consumerMain, which has
// already forwarded the marker downstream). Credits are drained from the old
// node before moving: outstanding credit returns were addressed there, and
// abandoning them would deflate the pipeline depth forever.
func (r *runner) remapStep(st *threadState, idx int) {
	next := r.remapAssigns[idx]
	r.drainCredits(st)
	newNode := next[st.tp.Fn.ID][st.tp.Index]
	if newNode != st.my {
		r.migrate(st, newNode)
	}
	st.cur = next
}

// drainCredits receives every outstanding credit return, restoring each
// edge's ledger to the full BufferSlots. The pipeline is empty (post-drain),
// so every consumer has already sent these; the receives block at most on
// wire latency.
func (r *runner) drainCredits(st *threadState) {
	for pi := range st.tp.Outs {
		for _, ei := range st.tp.Outs[pi].Edges {
			e := &r.plan.Edges[ei]
			for r.credits[ei] < r.cfg.BufferSlots {
				st.rank.Recv(r.nodeOf(st, e.Dst), e.CreditTag())
				r.credits[ei]++
			}
		}
	}
}

// migrate moves the thread's working set to its new node and re-attaches its
// endpoint there: a bulk transfer of the port regions, the arrival wait, and
// the install copy on the far side.
func (r *runner) migrate(st *threadState, newNode int) {
	tr := r.mach.Trace()
	start := st.p.Now()
	old := st.my
	arrival := st.node.Transfer(st.p, newNode, st.stateBytes)
	if arrival > st.p.Now() {
		st.p.SleepUntil(arrival)
	}
	st.my = newNode
	st.rank = r.world.Attach(newNode, st.p)
	st.node = r.mach.Node(newNode)
	st.node.Memcpy(st.p, st.stateBytes)
	if tr.Enabled() {
		tr.StreamSpan(st.my, st.track, fmt.Sprintf("migrate %d->%d %dB", old, newNode, st.stateBytes), start, st.p.Now())
	}
}

// --- controller --------------------------------------------------------------

// controller is the remapping policy process: it samples the injector's
// stall verdicts on a virtual-time tick, and when a node's sliding window
// shows it degraded, re-plans the mapping with the twin-fitness AToT search
// and hands the assignment to the source.
type controller struct {
	cfg RemapConfig
	aev *atot.Evaluator
	tev *twin.Evaluator
	r   *runner

	triggered  map[int]bool
	remapsDone int
}

func (c *controller) main(p *sim.Proc) {
	r := c.r
	inj := r.mach.Faults()
	if !inj.Enabled() {
		return // nothing can degrade, nothing to watch
	}
	nodes := r.cfg.Tables.NumNodes
	c.triggered = map[int]bool{}
	window := make([][]bool, nodes)
	for {
		if r.sourceDone || r.err != nil || c.remapsDone >= c.cfg.MaxRemaps {
			return
		}
		p.Sleep(c.cfg.ControlInterval)
		if r.sourceDone || r.err != nil {
			return
		}
		if r.pendingAssign != nil {
			continue // previous plan not yet consumed
		}
		now := p.Now()
		trigger := -1
		for n := 0; n < nodes; n++ {
			w := append(window[n], inj.NodeStalled(n, now))
			if len(w) > c.cfg.Window {
				w = w[1:]
			}
			window[n] = w
			if trigger >= 0 || len(w) < c.cfg.Window || c.triggered[n] {
				continue
			}
			stalled := 0
			for _, s := range w {
				if s {
					stalled++
				}
			}
			if float64(stalled) < c.cfg.StallFraction*float64(len(w)) {
				continue
			}
			if c.hostsThreads(n) {
				trigger = n
			}
		}
		if trigger < 0 {
			continue
		}
		next, err := c.replan(trigger)
		if err != nil {
			r.fail(fmt.Errorf("stream: remap planning: %w", err))
			return
		}
		p.Sleep(c.cfg.ReplanCost)
		c.triggered[trigger] = true
		c.remapsDone++
		r.pendingAssign = next
		r.pendingTrigger = trigger
		tr := r.mach.Trace()
		if tr.Enabled() {
			tr.StreamPoint(trigger, fmt.Sprintf("remap planned off node %d", trigger), p.Now())
		}
	}
}

// hostsThreads reports whether the current epoch places any thread on node n
// — remapping away from an idle node is pointless.
func (c *controller) hostsThreads(n int) bool {
	for _, nodes := range c.r.curAssign {
		for _, nd := range nodes {
			if nd == n {
				return true
			}
		}
	}
	return false
}

// replan runs the AToT genetic search with the analytical twin as fitness,
// pricing candidates on a machine whose degraded node runs at SpeedPenalty
// of its configured speed. Everything is seeded; the result is a pure
// function of (config, trigger), so replays are byte-identical.
func (c *controller) replan(trigger int) ([][]int, error) {
	r := c.r
	nodes := r.cfg.Tables.NumNodes
	speeds := make([]float64, nodes)
	for i := range speeds {
		speeds[i] = 1
		if i < len(r.cfg.NodeSpeeds) && r.cfg.NodeSpeeds[i] > 0 {
			speeds[i] = r.cfg.NodeSpeeds[i]
		}
	}
	speeds[trigger] *= c.cfg.SpeedPenalty
	c.aev.SetNodeSpeeds(speeds)
	twinOpts := twin.Options{
		// A small pipelined horizon: enough iterations for the bottleneck
		// period to dominate the prediction, cheap enough to score a whole
		// GA population mid-stream.
		Iterations:       4,
		DispatchOverhead: r.cfg.DispatchOverhead,
		BufferSlots:      r.cfg.BufferSlots,
		NodeSpeeds:       speeds,
	}
	gaCfg := atot.GAConfig{
		Population:  c.cfg.Population,
		Generations: c.cfg.Generations,
		Seed:        c.cfg.GASeed,
		Parallelism: 1, // inside a sim turn; the trajectory is width-invariant anyway
		Fitness: func(assign []int) float64 {
			return float64(c.tev.PredictElapsed(assign, twinOpts))
		},
	}
	cands, _, err := atot.MapGAK(c.aev, gaCfg, 1)
	if err != nil {
		return nil, err
	}
	m, err := c.aev.MappingFromAssign(cands[0])
	if err != nil {
		return nil, err
	}
	next := make([][]int, len(r.cfg.Tables.Functions))
	for fi := range r.cfg.Tables.Functions {
		fe := &r.cfg.Tables.Functions[fi]
		nodes, ok := m.Assign[fe.Name]
		if !ok || len(nodes) != fe.Threads {
			return nil, fmt.Errorf("replanned mapping incomplete for %q", fe.Name)
		}
		next[fi] = append([]int(nil), nodes...)
	}
	return next, nil
}

package stream

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/atot"
	"repro/internal/fault"
	"repro/internal/gluegen"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/plan"
	"repro/internal/sagert"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/twin"
)

// Config describes one streaming run: the generated runtime tables, the
// client-class mix that drives the source, and the optional fault plan and
// remapping controller.
type Config struct {
	// Tables are the glue generator's runtime tables; the initial mapping is
	// the tables' own thread->node assignment.
	Tables *gluegen.Tables
	// App is the model the tables were generated from. Required when Remap
	// is set (the controller re-runs the AToT search over it); ignored
	// otherwise.
	App *model.App
	// Platform is the machine the tables were generated for.
	Platform machine.Platform
	// Classes is the client mix; at least one class.
	Classes []Class
	// Seed drives every arrival process (per-class sub-streams are derived
	// from it).
	Seed int64
	// BufferSlots is the per-transfer pipelining credit (default 2).
	BufferSlots int
	// DispatchOverhead is the per-invocation function-table dispatch cost
	// (default sagert.DefaultDispatchOverhead).
	DispatchOverhead sim.Duration
	// NodeSpeeds are per-node CPU speed multipliers (heterogeneous machines).
	NodeSpeeds []float64
	// Faults, when non-nil and non-empty, installs the deterministic fault
	// injector. The MPI layer's resilient send (bounded retry, forced
	// delivery after the budget) guarantees every message still arrives, so
	// the streaming protocol needs no receive timeouts even under drop plans.
	Faults *fault.Plan
	// Remap, when non-nil, starts the remapping controller: it watches the
	// injector's stall windows, re-plans the mapping with the twin-fitness
	// AToT search when a node degrades, and migrates threads mid-run.
	Remap *RemapConfig
	// Collector, when non-nil, receives the structured trace: sagert-style
	// per-thread phases plus the stream schema (admit/shed/late instants,
	// backlog and qdepth gauges, credit-stall spans, and the
	// quiesce/drain/migrate/resume remap protocol).
	Collector *trace.Collector
	// Backlog, when non-nil, is called from the source with each sampled
	// admission-queue depth — a host-side live gauge (the serve daemon's
	// per-worker queue depth). It observes the run and must not influence
	// it; virtual-time results are identical with or without it.
	Backlog func(frames int)
	// Cancel aborts the run when closed (sim.Kernel.SetCancel); Run returns
	// ErrCanceled.
	Cancel <-chan struct{}
	// CancelEvery is the dispatched-event interval between cancellation
	// polls (default sim.DefaultCancelEvery).
	CancelEvery int
}

// RemapConfig tunes the mid-run remapping controller. Zero fields select
// defaults.
type RemapConfig struct {
	// ControlInterval is the controller's sampling period (default 500µs of
	// virtual time).
	ControlInterval sim.Duration
	// Window is the per-node sliding sample window (default 8).
	Window int
	// StallFraction triggers a remap when at least this fraction of a full
	// window observed the node inside a stall (default 0.5).
	StallFraction float64
	// MaxRemaps bounds how many remaps the controller may trigger
	// (default 1).
	MaxRemaps int
	// SpeedPenalty is the speed multiplier the re-planner assumes for a
	// degraded node (default 0.25): the search is pushed off the node
	// without forbidding it outright.
	SpeedPenalty float64
	// Population and Generations size the GA re-plan (defaults 32 and 40 —
	// the controller runs mid-stream, so the budget is the interactive one
	// sage serve uses, not the offline AToT default).
	Population, Generations int
	// GASeed seeds the re-plan search (default 1).
	GASeed int64
	// ReplanCost is the virtual time the controller charges for running the
	// search (default 200µs) — planning is not free on a real machine.
	ReplanCost sim.Duration
}

func (rc *RemapConfig) withDefaults() RemapConfig {
	out := *rc
	if out.ControlInterval <= 0 {
		out.ControlInterval = 500 * time.Microsecond
	}
	if out.Window <= 0 {
		out.Window = 8
	}
	if out.StallFraction <= 0 {
		out.StallFraction = 0.5
	}
	if out.MaxRemaps <= 0 {
		out.MaxRemaps = 1
	}
	if out.SpeedPenalty <= 0 {
		out.SpeedPenalty = 0.25
	}
	if out.Population <= 0 {
		out.Population = 32
	}
	if out.Generations <= 0 {
		out.Generations = 40
	}
	if out.GASeed == 0 {
		out.GASeed = 1
	}
	if out.ReplanCost <= 0 {
		out.ReplanCost = 200 * time.Microsecond
	}
	return out
}

// ErrCanceled is returned (wrapped) by Run when Config.Cancel aborted the
// run. Test with errors.Is.
var ErrCanceled = errors.New("stream: run canceled")

// FrameStat is one offered frame's fate, in schedule order.
type FrameStat struct {
	// Class indexes Config.Classes; Index is the per-class sequence number.
	Class, Index int
	// Arrival is the scheduled arrival, Admit when the source actually began
	// processing the frame, Done when the last sink thread completed it.
	Arrival, Admit, Done sim.Time
	// Shed marks a frame dropped at admission (its deadline passed while the
	// pipeline's backpressure held the source). Admit and Done stay zero.
	Shed bool
	// Late marks a completed frame whose latency (Done - Arrival) exceeded
	// its class SLO.
	Late bool
}

// Latency is the frame's arrival-to-completion time (0 for shed frames).
func (f *FrameStat) Latency() sim.Duration {
	if f.Shed || f.Done == 0 {
		return 0
	}
	return f.Done.Sub(f.Arrival)
}

// RemapEvent records one execution of the quiesce-drain-remap-resume
// protocol.
type RemapEvent struct {
	// At is the moment the source began quiescing; Stall is the admission
	// gap until it resumed (quiesce + drain + migration).
	At    sim.Time
	Stall sim.Duration
	// Trigger is the degraded node that tripped the controller.
	Trigger int
	// Migrated counts the threads whose node changed.
	Migrated int
	// Assign is the new per-function thread->node assignment, in
	// function-table order.
	Assign [][]int
}

// Result reports a streaming run.
type Result struct {
	// Frames holds every offered frame's fate, in schedule order.
	Frames []FrameStat
	// Remaps records the controller's remapping events, in order.
	Remaps []RemapEvent
	// Elapsed is the run's total virtual time (the controller's final tick
	// may extend it slightly past the last frame).
	Elapsed sim.Time
	// LastDone is the completion time of the last frame — the throughput
	// denominator.
	LastDone sim.Time
	// MaxBacklog is the largest number of frames that had arrived but were
	// not yet admitted — the admission queue's high-water mark under
	// backpressure.
	MaxBacklog int
	// CreditStall is the total virtual time threads spent blocked waiting
	// for pipelining credits (the backpressure integral).
	CreditStall sim.Duration
	// Dispatches is the kernel event count.
	Dispatches uint64
	// NodeStats reports per-node busy time (same shape as the batch
	// runtime's result, so callers can summarise either uniformly).
	NodeStats []NodeStat
}

// NodeStat summarises one node's activity over the run.
type NodeStat struct {
	Node        int
	ComputeBusy sim.Duration
	CopyBusy    sim.Duration
	CommBusy    sim.Duration
	Utilization float64
}

// Run executes the streaming scenario on a fresh simulated machine. Like
// every runner in this repository it is fully deterministic: the same Config
// yields the identical Result on every host.
func Run(cfg Config) (*Result, error) {
	if cfg.Tables == nil {
		return nil, fmt.Errorf("stream: nil tables")
	}
	xp, err := plan.Build(cfg.Tables)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if cfg.Platform.Name != cfg.Tables.Platform {
		return nil, fmt.Errorf("stream: tables were generated for platform %q, running on %q", cfg.Tables.Platform, cfg.Platform.Name)
	}
	if len(cfg.Classes) == 0 {
		return nil, fmt.Errorf("stream: no classes")
	}
	sources := 0
	for fi := range cfg.Tables.Functions {
		fe := &cfg.Tables.Functions[fi]
		if len(fe.Ins) == 0 {
			sources++
			if fe.Threads != 1 {
				return nil, fmt.Errorf("stream: source function %q has %d threads; the streaming protocol needs a single admission point", fe.Name, fe.Threads)
			}
			if len(fe.Outs) == 0 {
				return nil, fmt.Errorf("stream: function %q is both source and sink; nothing to stream", fe.Name)
			}
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("stream: app has %d source functions, want exactly 1", sources)
	}
	if !cfg.Faults.Empty() {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("stream: invalid fault plan: %w", err)
		}
		if err := cfg.Faults.CheckNodes(cfg.Tables.NumNodes); err != nil {
			return nil, fmt.Errorf("stream: fault plan does not fit the machine: %w", err)
		}
	}
	if cfg.BufferSlots < 1 {
		cfg.BufferSlots = 2
	}
	if cfg.DispatchOverhead <= 0 {
		cfg.DispatchOverhead = sagert.DefaultDispatchOverhead
	}

	schedule, err := BuildSchedule(cfg.Classes, cfg.Seed)
	if err != nil {
		return nil, err
	}

	var ctl *controller
	if cfg.Remap != nil {
		if cfg.App == nil {
			return nil, fmt.Errorf("stream: remapping needs Config.App (the controller re-plans over the model)")
		}
		rc := cfg.Remap.withDefaults()
		aev, err := atot.NewEvaluator(cfg.App, cfg.Platform, cfg.Tables.NumNodes)
		if err != nil {
			return nil, fmt.Errorf("stream: remap evaluator: %w", err)
		}
		tev, err := twin.NewEvaluator(cfg.Tables, cfg.Platform)
		if err != nil {
			return nil, fmt.Errorf("stream: remap twin: %w", err)
		}
		ctl = &controller{cfg: rc, aev: aev, tev: tev}
	}

	k := sim.NewKernel()
	defer k.Shutdown()
	mach := machine.New(k, cfg.Platform, cfg.Tables.NumNodes)
	mach.SetNodeSpeeds(cfg.NodeSpeeds)
	mach.SetTrace(cfg.Collector)
	mach.SetFaults(cfg.Faults.NewInjector())
	world := mpi.NewWorld(mach)

	r := &runner{
		cfg:      &cfg,
		plan:     xp,
		mach:     mach,
		world:    world,
		schedule: schedule,
		frames:   make([]FrameStat, len(schedule)),
		doneCnt:  make([]int, len(schedule)),
		drainCh:  sim.NewChan[struct{}](k, "stream.drain"),
		ctl:      ctl,
	}
	for si, f := range schedule {
		r.frames[si] = FrameStat{Class: f.Class, Index: f.Index, Arrival: f.Arrival}
	}
	r.initEpoch()
	r.spawn(k)
	if ctl != nil {
		ctl.r = r
		k.Spawn("stream.controller", ctl.main)
	}
	if cfg.Cancel != nil {
		k.SetCancel(cfg.Cancel, cfg.CancelEvery)
	}
	if err := k.Run(); err != nil {
		return nil, fmt.Errorf("stream: execution failed: %w", err)
	}
	if k.Canceled() {
		return nil, fmt.Errorf("%w at virtual time %v", ErrCanceled, k.Now())
	}
	if r.err != nil {
		return nil, r.err
	}
	mach.TraceNodeTotals()

	res := &Result{
		Frames:      r.frames,
		Remaps:      r.remaps,
		Elapsed:     k.Now(),
		MaxBacklog:  r.maxBacklog,
		CreditStall: r.creditStall,
		Dispatches:  k.Dispatched(),
	}
	for i := range r.frames {
		if r.frames[i].Done > res.LastDone {
			res.LastDone = r.frames[i].Done
		}
	}
	res.NodeStats = make([]NodeStat, mach.NumNodes())
	for i := range res.NodeStats {
		t := mach.Totals(i)
		res.NodeStats[i] = NodeStat{
			Node: i, ComputeBusy: t.ComputeBusy, CopyBusy: t.CopyBusy,
			CommBusy: t.CommBusy, Utilization: t.Utilization(k.Now()),
		}
	}
	return res, nil
}

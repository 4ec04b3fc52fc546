// Package sagert is the SAGE run-time kernel of §2: it executes the
// glue-code generator's runtime tables on the simulated multicomputer. The
// kernel is "responsible for all sequencing of functions, data striping, and
// buffer management": every thread of every function-table entry runs as a
// simulated process on its mapped node, receives its striped input regions
// into per-function logical buffers, dispatches the library function by its
// table ID, and sends output regions onward according to the buffers'
// striding schedules.
//
// The overhead the paper measures for auto-generated code arises here
// mechanistically, not as a fudge factor: the kernel pays a dispatch cost
// per function invocation, assembles inputs into private logical buffers
// (extra copies relative to hand-coded in-place processing — §3.4: "the SAGE
// run-time buffer management scheme assigns unique logical buffers to the
// data per function which can cause extra data access times"), packs each
// outgoing region separately, and moves data with generic point-to-point
// transfers instead of the platform's tuned collectives. All of that is charged
// in virtual time. The host carrying the samples for verification shares one
// address space, moves each sample once per transfer and transforms it in
// place where its thread owns it — off the kernel's goroutine: the step
// decides where samples go, and one task per thread and compute iteration
// moves and transforms them once its producers' tasks have (samples.go). It
// carries none at all for a caller that reads only timings
// (Options.ComputeIterations, NoSamples; DESIGN.md §14).
//
// Pipelining across iterations uses per-transfer credits (double buffering
// by default), so a source cannot run unboundedly ahead of its consumers —
// the runtime's buffer management in action.
//
// Like the paper's table-driven kernel, a function thread is not a program
// with a stack but a step over its table entry: a stackless simulated
// process (sim.Kernel.SpawnStep) whose walk over its plan.Thread is an
// explicit state machine (step.go). The kernel runs it inline at every wake,
// and it blocks only through the Begin/Resume halves of the sim, machine and
// mpi operations, so no event of a run is a process switch — under faults,
// optimised buffers, the Sequential barrier, pacing and tracing alike.
package sagert

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/gluegen"
	"repro/internal/isspl"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Options tunes a runtime execution.
type Options struct {
	// Iterations is the number of data sets to process (>= 1).
	Iterations int
	// ComputeIterations is how many initial iterations move and transform
	// real samples (for verification); the rest charge identical costs
	// without touching data. The zero value means 1; NoSamples (any negative
	// value) means none: a caller that reads only timings — every Result
	// field but Output(s) — gets exactly those timings, traces included, and
	// the run moves no sample and allocates no sink matrix. Skipping the
	// first data set also skips the kinds' Compute and whatever it would have
	// refused, so NoSamples is for tables whose model passed
	// funclib.ValidateApp (gluegen.Generate's output always has): there,
	// Compute cannot fail. Elsewhere a failing Compute does not stop the
	// simulation: Run reports the failure after the kernel drains (the
	// earliest in the order the kernel reached the threads' computes).
	ComputeIterations int
	// DispatchOverhead is the per-invocation cost of the function-table
	// dispatch and thread scheduling. Zero selects the default.
	DispatchOverhead sim.Duration
	// BufferSlots is the per-transfer pipelining credit (default 2: double
	// buffering).
	BufferSlots int
	// Sequential processes one data set at a time: every function thread
	// synchronises at an iteration barrier, so no pipelining occurs and
	// latency equals period. This is the like-for-like mode used when
	// comparing against the hand-coded benchmarks, which run a sequential
	// measurement loop (§3.3).
	Sequential bool
	// OptimizedBuffers enables the future-work optimisation the paper's
	// conclusion announces ("Work is currently underway to improve the
	// performance of the glue code generation component that will reach
	// levels of 90% of hand coded performance"): node-local transfers pass
	// by reference (one copy instead of pack+assemble) and the library
	// computes in place where legal, skipping the input-to-output copy.
	OptimizedBuffers bool
	// NodeSpeeds applies per-node CPU speed multipliers to the simulated
	// machine (heterogeneous architectures); missing entries default to 1.
	NodeSpeeds []float64
	// InputPeriod, when positive, paces the data source in real time:
	// data set i becomes available at virtual time i*InputPeriod, the
	// arrival pattern of a sensor front-end. Sources that cannot keep up
	// (backpressure from the pipeline) accumulate overrun, reported in
	// Result.MaxOverrun.
	InputPeriod sim.Duration
	// Collector, when non-nil, receives structured trace spans for the
	// whole run: per-thread function phases (recv/compute/send), per-port
	// transfer activity with byte counts, buffer-credit stalls, MPI
	// collective spans, and the sim kernel's process/wait events. One
	// collector serves one run. See package repro/internal/trace.
	Collector *trace.Collector
	// ProbeAll is ignored: the Collector records every function's phases,
	// whatever its model's probe property says.
	//
	// Deprecated: the benchmark's ct512t class (benchmark/des.go) is the one
	// setter left; ROADMAP item 1(c) drops that line, and then this field
	// goes.
	ProbeAll bool
	// Faults, when non-nil and non-empty, installs a deterministic fault
	// injector on the simulated machine and switches the runtime into its
	// resilient mode: striped transfers retry with backoff (at the MPI
	// layer), data receives and credit waits use timeouts, and — with
	// Resilience.Degraded — transfer schedules re-sequence around stalled
	// peers. The plan is validated against the table's node count.
	Faults *fault.Plan
	// Resilience tunes the resilient mode's timeouts and overcommit budget;
	// zero fields take fault.Resilience defaults. Ignored without Faults.
	Resilience fault.Resilience
	// Shards is ignored: every run executes on the one kernel (DESIGN.md
	// §12 says why there is no sharded one).
	//
	// Deprecated: the benchmark's wide1024 shard2 class (benchmark/des.go)
	// is the one caller left; ROADMAP item 1(c) drops that class, and then
	// this field goes.
	Shards int
	// ShardWeights is ignored, like Shards.
	//
	// Deprecated: kept only for the same caller as Shards, and deleted with
	// it.
	ShardWeights []float64
	// Cancel, when non-nil, aborts the run as soon as the channel is closed:
	// the kernel polls it between dispatched events (sim.Kernel.SetCancel),
	// halts, and Run returns ErrCanceled instead of a result. The deferred
	// Kernel.Shutdown then releases every parked process goroutine, so a
	// canceled run leaks nothing and a fresh kernel afterwards produces
	// byte-identical results — the mid-run-abort contract the sage serve
	// daemon's per-request deadlines rely on. Polling happens outside
	// virtual time, so arming cancellation changes no reported measurement,
	// not even Result.Dispatches.
	Cancel <-chan struct{}
	// CancelEvery is the dispatched-event interval between cancellation
	// polls. Zero selects sim.DefaultCancelEvery. Ignored without Cancel.
	CancelEvery int
}

// NoSamples is the Options.ComputeIterations of a timing-only run.
const NoSamples = -1

// ErrCanceled is returned (wrapped) by Run when Options.Cancel aborted the
// run before completion. Test with errors.Is.
var ErrCanceled = errors.New("sagert: run canceled")

// DefaultDispatchOverhead is the table-dispatch cost used when Options does
// not override it (calibrated to a 1999-era RTOS task activation).
const DefaultDispatchOverhead = 25 * time.Microsecond

func (o *Options) withDefaults() Options {
	out := *o
	if out.Iterations < 1 {
		out.Iterations = 1
	}
	switch {
	case out.ComputeIterations == 0:
		out.ComputeIterations = 1
	case out.ComputeIterations < 0:
		out.ComputeIterations = 0
	}
	if out.ComputeIterations > out.Iterations {
		out.ComputeIterations = out.Iterations
	}
	if out.DispatchOverhead <= 0 {
		out.DispatchOverhead = DefaultDispatchOverhead
	}
	if out.BufferSlots < 1 {
		out.BufferSlots = 2
	}
	out.Resilience = out.Resilience.WithDefaults()
	return out
}

// Result reports an execution.
type Result struct {
	// Latencies[i] is data-set i's source-start to sink-complete time
	// (§3.3: "latency corresponds to the time from when the first data
	// leaves the data source to the time the final result is output to the
	// data sink").
	Latencies []sim.Duration
	// Period is the steady-state time between completed data sets (§3.3:
	// "a period is defined to be the time between input data sets").
	Period sim.Duration
	// Output is the first sink function's final data set from the last
	// compute iteration, assembled across sink threads (nil if the app has
	// no sink_matrix, or the run carried no samples: Options.NoSamples).
	Output *isspl.Matrix
	// Outputs holds the same per sink function name (applications may fan
	// out to several sinks); empty on a run that carried no samples.
	Outputs map[string]*isspl.Matrix
	// Elapsed is the total virtual time of the run.
	Elapsed sim.Time
	// MaxOverrun is the largest delay between a data set's scheduled
	// real-time arrival (Options.InputPeriod) and the moment the source
	// could actually begin processing it; zero when unpaced or keeping up.
	MaxOverrun sim.Duration
	// Dispatches is the number of kernel events the run executed — the
	// denominator benchmark harnesses use for events/sec and allocs/event.
	Dispatches uint64
	// Switches is how many of those events resumed a process other than the
	// one executing the event loop (sim.Kernel.Switches) — what the run paid
	// in coroutine round trips. Every function thread is a stackless process
	// (a step machine, not a coroutine), so a run pays none: Switches is 0
	// at any Options. It stays as the gate that keeps it so; the daemon does
	// not emit it.
	Switches uint64
	// NodeStats reports per-node busy time.
	NodeStats []NodeStat
}

// NodeStat summarises one node's activity.
type NodeStat struct {
	Node        int
	ComputeBusy sim.Duration
	CopyBusy    sim.Duration
	CommBusy    sim.Duration
	Utilization float64
}

// AvgLatency returns the mean latency across iterations.
func (r *Result) AvgLatency() sim.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	var sum sim.Duration
	for _, l := range r.Latencies {
		sum += l
	}
	return sum / sim.Duration(len(r.Latencies))
}

// Run executes the tables on a fresh simulated machine of the given
// platform.
func Run(tables *gluegen.Tables, pl machine.Platform, opts Options) (*Result, error) {
	return run(tables, pl, opts, runHooks{})
}

// runHooks let a test drive the function threads another way — the
// coroutine oracle — and observe the kernel. Run passes none.
type runHooks struct {
	spawn func(r *runner, k *sim.Kernel) // replaces (*runner).spawn
	setup func(r *runner, k *sim.Kernel) // once the run is built, before its threads spawn
}

func run(tables *gluegen.Tables, pl machine.Platform, opts Options, hooks runHooks) (*Result, error) {
	o := opts.withDefaults()
	xp, err := plan.Build(tables)
	if err != nil {
		return nil, fmt.Errorf("sagert: %w", err)
	}
	if pl.Name != tables.Platform {
		return nil, fmt.Errorf("sagert: tables were generated for platform %q, running on %q (regenerate the glue code)", tables.Platform, pl.Name)
	}
	if !o.Faults.Empty() {
		if err := o.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("sagert: invalid fault plan: %w", err)
		}
		if err := o.Faults.CheckNodes(tables.NumNodes); err != nil {
			return nil, fmt.Errorf("sagert: fault plan does not fit the machine: %w", err)
		}
	}

	k := sim.NewKernel()
	// Release any process goroutines left parked by a failed or stopped run
	// (runner errors call Stop mid-execution); without this every failed run
	// leaks one goroutine per function thread.
	defer k.Shutdown()
	mach := machine.New(k, pl, tables.NumNodes)
	mach.SetNodeSpeeds(o.NodeSpeeds)
	mach.SetTrace(o.Collector)
	mach.SetFaults(o.Faults.NewInjector())
	world := mpi.NewWorld(mach)
	r := &runner{
		plan: xp, opts: o, mach: mach, world: world,
		sourceStart: make([]sim.Time, o.Iterations),
		sinkDone:    make([]sim.Time, o.Iterations),
		credits:     make([]int32, len(xp.Edges)),
	}
	for i := range r.credits {
		r.credits[i] = int32(o.BufferSlots)
	}
	if mach.Faults().Enabled() {
		r.overcommit = make([]int32, len(xp.Edges))
	}
	if mach.Trace().Enabled() {
		r.nameXfers()
	}
	r.buildLocalQueues(k)
	r.collectOutput()
	if o.Sequential {
		r.iterBarrier = sim.NewBarrier(k, "iteration", len(xp.Threads))
	}
	if hooks.setup != nil {
		hooks.setup(r, k)
	}
	if hooks.spawn != nil {
		hooks.spawn(r, k)
	} else {
		r.spawn(k)
	}
	if o.Cancel != nil {
		k.SetCancel(o.Cancel, o.CancelEvery)
	}
	if o.ComputeIterations > 0 {
		r.samples = newSamples(r)
	}
	err = k.Run()
	var taskErr error
	if r.samples != nil {
		// A halted kernel leaves no result to verify: drop the tasks that
		// have not started, wait for the running ones.
		taskErr = r.samples.join(err != nil || k.Canceled())
	}
	if err != nil {
		return nil, fmt.Errorf("sagert: execution failed: %w", err)
	}
	if k.Canceled() {
		return nil, fmt.Errorf("%w at virtual time %v", ErrCanceled, k.Now())
	}
	if taskErr != nil {
		return nil, taskErr
	}
	mach.TraceNodeTotals()
	return r.result(k), nil
}

// Package experiments reproduces the paper's evaluation (§3) end to end:
// Table 1.0 (hand-coded vs SAGE auto-generated code for the Parallel 2D FFT
// and Distributed Corner Turn), the §3.4 two-node corner-turn anomaly, the
// §4 aggregate efficiency claim (including the announced future-work
// optimisation), the cross-vendor comparison the paper takes from MITRE, the
// portability claim (one model, regenerated per platform), and a generation
// study for Figure 1.0. Each experiment returns a structured result with a
// Format method that prints rows shaped like the paper's tables.
//
// Measurement protocol (§3.3): each configuration is "executed ten times
// where each execution consists of a 100 iterations" and the reported value
// averages all of them. The simulator is deterministic, so the repetitions
// are literal re-executions of identical virtual work; iterations after the
// first move no samples but charge identical virtual time (see
// internal/handcoded and internal/sagert). Period and latency follow the
// paper's definitions: period is the time between completed data sets,
// latency is source-to-sink time for one data set.
//
// Sweeps execute their independent simulation runs on a bounded worker pool
// (Protocol.Parallelism, default GOMAXPROCS) and aggregate results in input
// order. Each run owns a private sim.Kernel, machine and RNG seed, so
// parallel output is byte-identical to sequential output; only the host
// wall-clock changes.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/gluegen"
	"repro/internal/handcoded"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/pool"
	"repro/internal/sagert"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/twin"
)

// Protocol fixes the measurement parameters of §3.3.
type Protocol struct {
	Repetitions int // paper: 10
	Iterations  int // paper: 100 per repetition
	// Parallelism bounds the worker pool that fans independent simulation
	// runs across host cores (each run owns its own sim.Kernel and
	// machine). 0 selects runtime.GOMAXPROCS; 1 forces sequential
	// execution. Results are aggregated in input order, so every value of
	// Parallelism produces byte-identical output — virtual time never
	// depends on host concurrency.
	Parallelism int
	// Trace, when non-nil, collects structured traces of every simulation
	// run the experiment performs: each repetition of each sweep cell gets
	// its own trace.Collector (one collector per sim.Kernel, so pooled runs
	// never share mutable state), and the collectors are merged into Trace
	// in sweep order after the worker pool drains. Tracing therefore never
	// perturbs results and produces identical output at any Parallelism.
	Trace *trace.Trace
	// Faults, when non-nil and non-empty, applies a deterministic fault plan
	// to every simulation run of the experiment: the shared immutable plan
	// is instantiated as a fresh injector per run (per kernel), so pooled
	// runs share no mutable state and results stay byte-identical at any
	// Parallelism. Hand-coded baselines get the MPI retry protocol; SAGE
	// runs additionally get the resilient runtime mode.
	Faults *fault.Plan
	// Shards requests conservative sharded execution inside each SAGE
	// simulation run (sagert.Options.Shards): one run's event processing
	// spreads across up to Shards cores, byte-identical to the sequential
	// kernel. Orthogonal to Parallelism, which fans out whole runs; Shards
	// helps when a single huge run dominates the wall clock. Runs that
	// cannot shard soundly (shared-fabric platforms, Sequential-mode
	// comparisons) silently ignore it.
	Shards int
}

// Paper is the full §3.3 protocol.
func Paper() Protocol { return Protocol{Repetitions: 10, Iterations: 100} }

// Quick is a reduced protocol for unit tests and smoke runs.
func Quick() Protocol { return Protocol{Repetitions: 2, Iterations: 5} }

func (p Protocol) withDefaults() Protocol {
	if p.Repetitions < 1 {
		p.Repetitions = 1
	}
	if p.Iterations < 1 {
		p.Iterations = 1
	}
	return p
}

// AppKind selects a benchmark application.
type AppKind string

const (
	AppFFT2D      AppKind = "2D FFT"
	AppCornerTurn AppKind = "Corner Turn"
)

// BuildApp constructs the application model for a kind; exported so the
// real-execution driver (sage-exec) can evaluate the same model with the
// sequential oracle it diffs the generated program against.
func BuildApp(kind AppKind, n, threads int) (*model.App, error) {
	return buildApp(kind, n, threads)
}

// buildApp constructs the application model for a kind.
func buildApp(kind AppKind, n, threads int) (*model.App, error) {
	switch kind {
	case AppFFT2D:
		return apps.FFT2D(n, threads)
	case AppCornerTurn:
		return apps.CornerTurn(n, threads)
	default:
		return nil, fmt.Errorf("experiments: unknown app %q", kind)
	}
}

// runHand executes the hand-coded baseline under the protocol and returns
// the average per-data-set time. The hand-coded benchmarks process data
// sets in a sequential loop, so their period equals their latency.
func runHand(kind AppKind, pl machine.Platform, nodes, n int, proto Protocol) (sim.Duration, []*trace.Collector, error) {
	var total sim.Duration
	var cols []*trace.Collector
	for rep := 0; rep < proto.Repetitions; rep++ {
		cfg := handcoded.Config{Platform: pl, Nodes: nodes, N: n, Iterations: proto.Iterations, Seed: 1,
			Faults: proto.Faults}
		if proto.Trace != nil {
			cfg.Trace = trace.New(fmt.Sprintf("hand %s %s n=%d nodes=%d rep%d", kind, pl.Name, n, nodes, rep))
			cols = append(cols, cfg.Trace)
		}
		var res *handcoded.Result
		var err error
		switch kind {
		case AppFFT2D:
			res, err = handcoded.FFT2D(cfg)
		case AppCornerTurn:
			res, err = handcoded.CornerTurn(cfg)
		default:
			return 0, nil, fmt.Errorf("experiments: unknown app %q", kind)
		}
		if err != nil {
			return 0, nil, err
		}
		total += res.AvgLatency()
	}
	return total / sim.Duration(proto.Repetitions), cols, nil
}

// GenerateTables builds the model, maps it (one worker thread per node,
// source and sink on node 0 — the deployment of §3.3's manual mapping
// step), and runs the Alter glue generator.
func GenerateTables(kind AppKind, pl machine.Platform, nodes, n int) (*gluegen.Output, error) {
	app, err := buildApp(kind, n, nodes)
	if err != nil {
		return nil, err
	}
	mapping, err := model.SpreadParallel(app, nodes)
	if err != nil {
		return nil, err
	}
	return gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: pl, NumNodes: nodes})
}

// GenerateTablesWide builds tables for topologies wider than one function:
// the app gets an explicit worker-thread count (the runtime caps a single
// function at 128 threads) and the functions are staggered across the
// machine (model.StaggerParallel), so a 1024-node platform is genuinely
// populated instead of piling every stage onto nodes 0..threads-1.
func GenerateTablesWide(kind AppKind, pl machine.Platform, nodes, threads, n int) (*gluegen.Output, error) {
	app, err := buildApp(kind, n, threads)
	if err != nil {
		return nil, err
	}
	mapping, err := model.StaggerParallel(app, nodes)
	if err != nil {
		return nil, err
	}
	return gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: pl, NumNodes: nodes})
}

// runSage generates glue code and executes it under the protocol, returning
// the average per-data-set time. For the hand-coded comparison the runtime
// runs in Sequential mode (one data set at a time, like the hand-coded
// measurement loop); the runtime's pipelined throughput is studied
// separately by RunPipeline.
func runSage(kind AppKind, pl machine.Platform, nodes, n int, proto Protocol, opts sagert.Options) (sim.Duration, []*trace.Collector, error) {
	out, err := GenerateTables(kind, pl, nodes, n)
	if err != nil {
		return 0, nil, err
	}
	var total sim.Duration
	var cols []*trace.Collector
	for rep := 0; rep < proto.Repetitions; rep++ {
		o := opts
		o.Iterations = proto.Iterations
		o.ComputeIterations = sagert.NoSamples // only AvgLatency and the trace are read
		o.Sequential = true
		o.Faults = proto.Faults
		if proto.Faults.HasStalls() {
			// Stall plans engage the degraded-mode transfer re-sequencing.
			o.Resilience.Degraded = true
		}
		if proto.Trace != nil {
			o.Collector = trace.New(fmt.Sprintf("sage %s %s n=%d nodes=%d rep%d", kind, pl.Name, n, nodes, rep))
			cols = append(cols, o.Collector)
		}
		applyShards(proto, out.Tables, pl, &o)
		res, err := sagert.Run(out.Tables, pl, o)
		if err != nil {
			return 0, nil, err
		}
		total += res.AvgLatency()
	}
	return total / sim.Duration(proto.Repetitions), cols, nil
}

// applyShards copies the protocol's shard request into one run's options,
// seeding the partitioner with the analytical twin's per-node busy forecast
// (twin.ShardWeights) so the shard cuts land between the busy nodes. The
// weights only steer the partition — any partition is byte-identical — so a
// twin error just falls back to uniform weights.
func applyShards(proto Protocol, tables *gluegen.Tables, pl machine.Platform, o *sagert.Options) {
	if proto.Shards <= 1 {
		return
	}
	o.Shards = proto.Shards
	if w, err := twin.ShardWeights(tables, pl, twin.Options{
		Iterations: o.Iterations, DispatchOverhead: o.DispatchOverhead,
		BufferSlots: o.BufferSlots, Sequential: o.Sequential,
		OptimizedBuffers: o.OptimizedBuffers, NodeSpeeds: o.NodeSpeeds,
	}); err == nil {
		o.ShardWeights = w
	}
}

// Row is one line of a hand-vs-SAGE comparison table.
type Row struct {
	App       AppKind
	N         int
	Nodes     int
	Hand      sim.Duration
	Sage      sim.Duration
	PctOfHand float64 // 100 * Hand / Sage, the paper's "% of Hand Coded"
}

// Table1 is the reproduction of Table 1.0.
type Table1 struct {
	Platform string
	Protocol Protocol
	Rows     []Row
	// Averages per application and overall, in "% of hand coded".
	FFTAvg, CTAvg, OverallAvg float64
}

// Table1Config parameterises the grid; zero values select the paper's.
type Table1Config struct {
	Platform machine.Platform
	Sizes    []int // paper: 256, 512, 1024
	Nodes    []int // paper: 4, 8
	Protocol Protocol
	Options  sagert.Options
}

func (c Table1Config) withDefaults() Table1Config {
	if c.Platform.Name == "" {
		c.Platform = platforms.CSPI()
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{256, 512, 1024}
	}
	if len(c.Nodes) == 0 {
		c.Nodes = []int{4, 8}
	}
	c.Protocol = c.Protocol.withDefaults()
	return c
}

// RunTable1 executes the Table 1.0 grid. The grid's cells are independent
// simulations, so they fan out across the Protocol.Parallelism worker pool;
// rows and averages are aggregated in grid order regardless of which cell
// finishes first.
func RunTable1(cfg Table1Config) (*Table1, error) {
	c := cfg.withDefaults()
	out := &Table1{Platform: c.Platform.Name, Protocol: c.Protocol}
	type cell struct {
		kind     AppKind
		n, nodes int
	}
	var cells []cell
	for _, kind := range []AppKind{AppFFT2D, AppCornerTurn} {
		for _, n := range c.Sizes {
			for _, nodes := range c.Nodes {
				cells = append(cells, cell{kind, n, nodes})
			}
		}
	}
	type cellOut struct {
		row  Row
		cols []*trace.Collector
	}
	outs, err := pool.Run(c.Protocol.Parallelism, len(cells), func(i int) (cellOut, error) {
		cl := cells[i]
		hand, hcols, err := runHand(cl.kind, c.Platform, cl.nodes, cl.n, c.Protocol)
		if err != nil {
			return cellOut{}, fmt.Errorf("experiments: %s n=%d nodes=%d hand: %w", cl.kind, cl.n, cl.nodes, err)
		}
		sage, scols, err := runSage(cl.kind, c.Platform, cl.nodes, cl.n, c.Protocol, c.Options)
		if err != nil {
			return cellOut{}, fmt.Errorf("experiments: %s n=%d nodes=%d sage: %w", cl.kind, cl.n, cl.nodes, err)
		}
		return cellOut{
			row: Row{App: cl.kind, N: cl.n, Nodes: cl.nodes, Hand: hand, Sage: sage,
				PctOfHand: 100 * float64(hand) / float64(sage)},
			cols: append(hcols, scols...),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	mergeTrace(c.Protocol.Trace, outs, func(co cellOut) []*trace.Collector { return co.cols })
	// The Trace pointer is an output channel, not a protocol parameter:
	// keep it out of the result so traced and untraced tables compare equal.
	out.Protocol.Trace = nil
	var fftSum, ctSum float64
	var fftN, ctN int
	for _, co := range outs {
		r := co.row
		out.Rows = append(out.Rows, r)
		if r.App == AppFFT2D {
			fftSum += r.PctOfHand
			fftN++
		} else {
			ctSum += r.PctOfHand
			ctN++
		}
	}
	if fftN > 0 {
		out.FFTAvg = fftSum / float64(fftN)
	}
	if ctN > 0 {
		out.CTAvg = ctSum / float64(ctN)
	}
	if fftN+ctN > 0 {
		out.OverallAvg = (fftSum + ctSum) / float64(fftN+ctN)
	}
	return out, nil
}

// Format renders the table in the shape of the paper's Table 1.0.
func (t *Table1) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1.0 — Comparison of hand-coded and auto-generated code for %s\n", t.Platform)
	fmt.Fprintf(&b, "(protocol: %d executions x %d iterations, averaged)\n\n", t.Protocol.Repetitions, t.Protocol.Iterations)
	fmt.Fprintf(&b, "%-12s %-11s %6s  %14s %14s %14s\n", "Application", "Array Size", "Nodes", "Hand Coded", "SAGE AutoGen", "% of Hand")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-12s %-11s %6d  %14v %14v %13.1f%%\n",
			r.App, fmt.Sprintf("%d x %d", r.N, r.N), r.Nodes, r.Hand, r.Sage, r.PctOfHand)
	}
	fmt.Fprintf(&b, "\nAverages: 2D FFT %.1f%%   Corner Turn %.1f%%   Overall %.1f%% of hand-coded\n",
		t.FFTAvg, t.CTAvg, t.OverallAvg)
	return b.String()
}

// mergeTrace folds the per-run collectors produced by pooled jobs into the
// protocol's Trace in input (sweep) order, after the pool has drained. Each
// collector was filled by exactly one kernel's goroutine, so this single
// post-pool pass is the only cross-run touch point — no locking, and the
// merged trace is identical at any parallelism. No-op when tracing is off.
func mergeTrace[T any](t *trace.Trace, results []T, cols func(T) []*trace.Collector) {
	if t == nil {
		return
	}
	for _, r := range results {
		for _, c := range cols(r) {
			t.Add(c)
		}
	}
}

// Package bench pins the virtual-time fingerprint of a fixed matrix of
// end-to-end runs: FFT sizes and a corner turn (traced and untraced,
// faulted and clean), a 1024-node wide-topology pair priced both by the
// discrete-event simulator and by the analytical twin, a 1024-node Mercury
// pair run sequentially and on the sharded kernel, a mixed-class streaming
// case on the stream runtime, and the generated program run on real data.
//
// Each case contributes one line — virtual elapsed time, kernel dispatches
// and, for the real-execution case, the SHA-256 of its output — that must be
// identical on every host, at every pool width and on every run. The
// package's tests compare the full matrix with the committed
// testdata/fingerprint.golden: a mismatch means simulated behaviour changed.
// Host speed is measured by the repo benchmark (benchmark/), not here.
package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/codegen"
	"repro/internal/codegen/rtl"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/gluegen"
	"repro/internal/machine"
	"repro/internal/platforms"
	"repro/internal/sagert"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/twin"
)

// faultPlanText is the canonical fault plan for faulted matrix cases:
// a light uniform drop rate plus one node stall, which together exercise
// retry, timeout and degraded-mode re-sequencing paths.
const faultPlanText = `seed 9
drop link=* rate=0.1
stall node=1 at=200us for=500us
`

// Case is one cell of the matrix.
type Case struct {
	Name       string
	App        experiments.AppKind
	N          int // matrix size (side length)
	Nodes      int
	Iterations int
	Traced     bool
	Faulted    bool
	// Threads overrides the per-function worker-thread count. Zero means
	// threads = Nodes (the classic matrix); nonzero selects the wide-topology
	// staggered mapping, for node counts beyond the 128-thread runtime cap.
	Threads int
	// Twin prices the case with the closed-form analytical twin instead of
	// running the discrete-event simulator. VirtualNS is then the predicted
	// elapsed time and Dispatches is zero (no events exist to dispatch).
	Twin bool
	// Stream runs the case on the streaming runtime instead of the batch
	// one: a fixed mixed-class arrival mix offering Iterations frames in
	// total. VirtualNS is then the streaming run's elapsed virtual time.
	Stream bool
	// Platform names the target platform from the registry. Empty means
	// CSPI, the classic matrix target.
	Platform string
	// Shards runs the simulation on the sharded kernel (sagert's
	// Options.Shards). The fingerprint is identical at any shard count.
	// Zero or one means sequential.
	Shards int
	// Exec runs the case as a real program instead of a simulation: the
	// tables are lowered into the generated goroutines-and-channels runtime
	// (internal/codegen) and executed on actual data. OutputHash then
	// fingerprints the bitwise output; no virtual time or dispatches exist.
	Exec bool
}

// Result is one executed case: its deterministic outputs only.
type Result struct {
	Name       string
	VirtualNS  int64
	Dispatches uint64
	// OutputHash is the SHA-256 of the canonical sink-output text of an exec
	// case (the generated program is bitwise reproducible); empty otherwise.
	OutputHash string
}

// Matrix returns the fixed matrix: FFT 256/512/1024 and corner turn 512,
// each traced and untraced, faulted and clean, on 8 nodes; a 1024-node
// wide-topology pair pricing the same tables with the DES and with the
// analytical twin; a 1024-node Mercury pair running the same simulation
// sequentially and on 8 shards; one streaming and one real-execution case.
func Matrix() []Case {
	type appCell struct {
		app experiments.AppKind
		n   int
	}
	apps := []appCell{
		{experiments.AppFFT2D, 256},
		{experiments.AppFFT2D, 512},
		{experiments.AppFFT2D, 1024},
		{experiments.AppCornerTurn, 512},
	}
	const nodes, iters = 8, 5
	var cases []Case
	for _, a := range apps {
		short := "fft"
		if a.app == experiments.AppCornerTurn {
			short = "ct"
		}
		for _, faulted := range []bool{false, true} {
			for _, traced := range []bool{false, true} {
				name := fmt.Sprintf("%s%d", short, a.n)
				if faulted {
					name += ".faulted"
				} else {
					name += ".clean"
				}
				if traced {
					name += ".traced"
				}
				cases = append(cases, Case{
					Name: name, App: a.app, N: a.n, Nodes: nodes,
					Iterations: iters, Traced: traced, Faulted: faulted,
				})
			}
		}
	}
	// Wide-topology pair: identical tables on 1024 nodes, priced once by the
	// DES and once by the twin. Per-function threads stay under the runtime's
	// 128-thread cap; the staggered mapping spreads the pipeline stages into
	// distinct node bands so the topology is genuinely wide.
	const xlN, xlThreads, xlNodes = 1024, 128, 1024
	for _, twin := range []bool{false, true} {
		kind := "des"
		if twin {
			kind = "twin"
		}
		cases = append(cases, Case{
			Name: fmt.Sprintf("fft%d.xl%d.%s", xlN, xlNodes, kind),
			App:  experiments.AppFFT2D, N: xlN, Threads: xlThreads, Nodes: xlNodes,
			Iterations: iters, Twin: twin,
		})
	}
	// Sharded pair: the same wide workload on Mercury — a crossbar platform
	// with per-node fabric resources, so the conservative sharder can split
	// it — run once sequentially and once on 8 shards. Their lines must
	// match exactly: sharding is byte-identical by contract.
	for _, shards := range []int{1, 8} {
		name := fmt.Sprintf("fft%d.xlm%d.des", xlN, xlNodes)
		if shards > 1 {
			name += fmt.Sprintf(".s%d", shards)
		}
		cases = append(cases, Case{
			Name: name, App: experiments.AppFFT2D, N: xlN, Threads: xlThreads,
			Nodes: xlNodes, Iterations: iters, Platform: "Mercury", Shards: shards,
		})
	}
	cases = append(cases,
		Case{Name: "stream128.mixed", App: experiments.AppFFT2D, N: 128, Nodes: nodes, Iterations: 120, Stream: true},
		Case{Name: "fft256.exec", App: experiments.AppFFT2D, N: 256, Nodes: nodes, Iterations: iters, Exec: true},
	)
	return cases
}

// Run executes the cases in order.
func Run(cases []Case) ([]Result, error) {
	rs := make([]Result, 0, len(cases))
	for _, c := range cases {
		var (
			res Result
			err error
		)
		switch {
		case c.Twin:
			res, err = runTwin(c)
		case c.Stream:
			res, err = runStream(c)
		case c.Exec:
			res, err = runExec(c)
		default:
			res, err = runSim(c)
		}
		if err != nil {
			return nil, fmt.Errorf("bench: case %s: %w", c.Name, err)
		}
		res.Name = c.Name
		rs = append(rs, res)
	}
	return rs, nil
}

// Fingerprint formats results one line per case:
// "name virtual_ns=… dispatches=…", plus " output=<sha256>" for exec cases.
func Fingerprint(rs []Result) string {
	var out []byte
	for _, r := range rs {
		out = fmt.Appendf(out, "%s virtual_ns=%d dispatches=%d", r.Name, r.VirtualNS, r.Dispatches)
		if r.OutputHash != "" {
			out = fmt.Appendf(out, " output=%s", r.OutputHash)
		}
		out = append(out, '\n')
	}
	return string(out)
}

// casePlatform resolves the case's target platform; empty selects CSPI.
func casePlatform(c Case) (machine.Platform, error) {
	if c.Platform == "" {
		return platforms.CSPI(), nil
	}
	return platforms.ByName(c.Platform)
}

// caseTables builds the generated tables for a sim, twin or exec case.
func caseTables(c Case) (*gluegen.Output, error) {
	pl, err := casePlatform(c)
	if err != nil {
		return nil, err
	}
	if c.Threads > 0 {
		return experiments.GenerateTablesWide(c.App, pl, c.Nodes, c.Threads, c.N)
	}
	return experiments.GenerateTables(c.App, pl, c.Nodes, c.N)
}

func runSim(c Case) (Result, error) {
	pl, err := casePlatform(c)
	if err != nil {
		return Result{}, err
	}
	out, err := caseTables(c)
	if err != nil {
		return Result{}, err
	}
	opts := sagert.Options{Iterations: c.Iterations, Shards: c.Shards}
	if c.Shards > 1 {
		// Seed the shard partitioner with the twin's per-node busy forecast,
		// the same steering sage run uses; partition choice is wall-clock-only.
		if w, werr := twin.ShardWeights(out.Tables, pl, twin.Options{Iterations: c.Iterations}); werr == nil {
			opts.ShardWeights = w
		}
	}
	if c.Faulted {
		plan, err := fault.ParsePlan(faultPlanText)
		if err != nil {
			return Result{}, err
		}
		opts.Faults = plan
		opts.Resilience.Degraded = plan.HasStalls()
	}
	if c.Traced {
		opts.Collector = trace.New(c.Name)
		opts.ProbeAll = true
	}
	run, err := sagert.Run(out.Tables, pl, opts)
	if err != nil {
		return Result{}, err
	}
	return Result{VirtualNS: int64(run.Elapsed), Dispatches: run.Dispatches}, nil
}

// runTwin prices a case with the analytical twin: VirtualNS is the
// predicted elapsed time, and no event is ever created.
func runTwin(c Case) (Result, error) {
	pl, err := casePlatform(c)
	if err != nil {
		return Result{}, err
	}
	out, err := caseTables(c)
	if err != nil {
		return Result{}, err
	}
	ev, err := twin.NewEvaluator(out.Tables, pl)
	if err != nil {
		return Result{}, err
	}
	pred := ev.Predict(twin.Options{Iterations: c.Iterations})
	return Result{VirtualNS: int64(pred.Elapsed)}, nil
}

// runStream runs the streaming runtime on a fixed 3:1 interactive/batch
// class mix offering Iterations frames in total.
func runStream(c Case) (Result, error) {
	interactive := (c.Iterations*3 + 3) / 4
	batch := c.Iterations - interactive
	sc := &stream.Scenario{
		App: "fft2d", N: c.N, Threads: 2, Nodes: c.Nodes, Seed: 7,
		Classes: []stream.Class{
			{Name: "interactive", Process: "poisson", Rate: 400, Frames: interactive, SLOMs: 50},
			{Name: "batch", Process: "gamma", Rate: 100, Shape: 4, Frames: batch, Weight: 2},
		},
	}
	cfg, err := sc.Build()
	if err != nil {
		return Result{}, err
	}
	run, err := stream.Run(cfg)
	if err != nil {
		return Result{}, err
	}
	return Result{VirtualNS: int64(run.Elapsed), Dispatches: run.Dispatches}, nil
}

// runExec lowers the case's tables into the generated real-execution
// runtime and runs them on actual data: one goroutine per SAGE thread,
// buffered-channel lanes, function-library kernels on []complex128. The
// result is the SHA-256 of the canonical output text, identical on every
// host and at every GOMAXPROCS.
func runExec(c Case) (Result, error) {
	out, err := caseTables(c)
	if err != nil {
		return Result{}, err
	}
	prog, err := codegen.Plan(out.Tables, c.Iterations)
	if err != nil {
		return Result{}, err
	}
	run, err := rtl.Execute(prog)
	if err != nil {
		return Result{}, err
	}
	var text bytes.Buffer
	if err := run.WriteText(&text); err != nil {
		return Result{}, err
	}
	sum := sha256.Sum256(text.Bytes())
	return Result{OutputHash: hex.EncodeToString(sum[:])}, nil
}

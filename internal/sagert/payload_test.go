package sagert_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/conformance"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/sagert"
	"repro/internal/trace"
)

// allocBytes reports the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAllocCeilingChargeOnlyIterations pins the payload path's central
// property: only compute iterations hold sample storage. Four charge-only
// iterations on top of the one compute iteration of an fft2d 512 on 8 nodes
// add bookkeeping, not blocks.
func TestAllocCeilingChargeOnlyIterations(t *testing.T) {
	pl := platforms.CSPI()
	out, err := experiments.GenerateTables(experiments.AppFFT2D, pl, 8, 512)
	if err != nil {
		t.Fatal(err)
	}
	run := func(iters int) func() {
		return func() {
			if _, err := sagert.Run(out.Tables, pl, sagert.Options{Iterations: iters}); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(1)() // warm one-time state outside the measurement
	one, five := allocBytes(run(1)), allocBytes(run(5))
	if float64(five) >= 1.25*float64(one) {
		t.Fatalf("5-iteration run allocates %d bytes, 1-iteration run %d: ratio %.2f, want < 1.25",
			five, one, float64(five)/float64(one))
	}
	// One compute iteration holds at most four matrices' worth of samples;
	// TestAllocCeilingFFT512 pins the one it holds today. Corner-turn tiles
	// travel in their producer's block, read through its pitch, and the
	// sink's payloads land in the output.
	matrix := uint64(512 * 512 * 16)
	t.Logf("1-iteration run allocates %.2f matrices, 5-iteration run %.2f", float64(one)/float64(matrix), float64(five)/float64(matrix))
	if one > 4*matrix {
		t.Fatalf("1-iteration run allocates %d bytes, more than 4 matrices (%d)", one, 4*matrix)
	}

	// The bookkeeping-dominated shape (the repo benchmark's wide1024: 4224
	// lanes over 1024 Mercury nodes, little payload). Building the execution
	// plan and running three iterations took 13.7 MB when every lane was
	// stored twice, as a per-side transfer copy, and credits lived in
	// per-thread maps; one edge per lane and per-edge slices take 12.2 MB
	// (13.5 under the race detector, hence the bar and the best of three).
	wpl := platforms.Mercury()
	app, err := apps.FFT2D(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.StaggerParallel(app, 1024)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := gluegen.Generate(gluegen.Input{App: app, Mapping: m, Platform: wpl, NumNodes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	runWide := func() {
		if _, err := sagert.Run(wide.Tables, wpl, sagert.Options{Iterations: 3}); err != nil {
			t.Fatal(err)
		}
	}
	runWide()
	got := min(allocBytes(runWide), allocBytes(runWide), allocBytes(runWide))
	if got > 13_700_000 {
		t.Fatalf("1024-node run allocates %d bytes, more than the 13.7 MB it took before the shared plan", got)
	}
}

// TestAllocCeilingFFT512 pins what one data set of an fft2d 512 on 8 CSPI
// nodes costs sagert: one matrix. The source's block lies in the sink's
// result (funclib.ResultBacked: its readers, fft_rows transforming the row
// stripes it adopts where they lie and fft_cols landing its tiles from them,
// all precede the sink), and so does fft_cols's: its tiles arrive at their
// places in its column stripe of the result, which it transforms there,
// through the result's pitch, and the sink finds it all in place. One
// megabyte covers the plan and the run's bookkeeping. A second matrix —
// fft_cols assembling its tiles into blocks of its own — fails it.
func TestAllocCeilingFFT512(t *testing.T) {
	pl := platforms.CSPI()
	out, err := experiments.GenerateTables(experiments.AppFFT2D, pl, 8, 512)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := sagert.Run(out.Tables, pl, sagert.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm one-time state outside the measurement
	const matrix = 512 * 512 * 16
	got := allocBytes(run)
	t.Logf("one run allocates %d bytes, %.2f matrices", got, float64(got)/matrix)
	if got > matrix+1<<20 {
		t.Fatalf("one run allocates %d bytes, more than one matrix and 1 MB (%d)", got, matrix+1<<20)
	}
}

// aliasingTables loads a corpus case built to stress payload aliasing and
// generates its tables. fanout-cornerturn: a two-thread source fanned out to
// a replicated stage (every consumer thread is handed views of the same
// source blocks) and to a column-striped stage (strided tiles), then a corner
// turn and a replicated two-thread sink. fanout-inplace: one source block
// fanned out to two in-place kinds that adopt the same rows — shared, so
// neither may write them — followed by in-place kinds that own their input,
// by exclusive adoption and by assembly, and do.
func aliasingTables(t *testing.T, name string) (*conformance.Case, *gluegen.Tables) {
	t.Helper()
	c, err := conformance.ReadCaseFile("../conformance/testdata/corpus/" + name + ".case")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := platforms.ByName(c.Platform)
	if err != nil {
		t.Fatal(err)
	}
	out, err := gluegen.Generate(gluegen.Input{App: c.App, Mapping: c.Mapping, Platform: pl, NumNodes: c.Nodes})
	if err != nil {
		t.Fatal(err)
	}
	return c, out.Tables
}

// TestPayloadViewsMatchOracle runs the fan-out corner turn with three
// pipelined compute iterations — so views of iteration i are still being read
// while iteration i+1 is produced — clean and faulted (a retried or
// force-delivered message resends the same view). Every run must equal the
// sequential oracle bit for bit; under -race the sample tasks, which run
// beside the kernel, also prove no thread writes what another still reads.
func TestPayloadViewsMatchOracle(t *testing.T) { viewsMatchOracle(t, "fanout-cornerturn") }

// TestInPlaceViewsMatchOracle: the same runs of the in-place fan-out. The
// oracle computes out of place, so it is the independent check that a kind
// handed a shared view left it alone and one handed its own block lost
// nothing by transforming it where it lay.
func TestInPlaceViewsMatchOracle(t *testing.T) { viewsMatchOracle(t, "fanout-inplace") }

func viewsMatchOracle(t *testing.T, name string) {
	c, tables := aliasingTables(t, name)
	pl, _ := platforms.ByName(c.Platform)
	const computeIters = 3
	want, err := conformance.Oracle(c.App, computeIters-1)
	if err != nil {
		t.Fatal(err)
	}
	for _, faulted := range []bool{false, true} {
		opts := sagert.Options{Iterations: computeIters + 1, ComputeIterations: computeIters}
		if faulted {
			opts.Faults = c.Faults
			opts.Resilience = fault.Resilience{Degraded: true}
		}
		t.Run(fmt.Sprintf("faulted=%v", faulted), func(t *testing.T) {
			res, err := sagert.Run(tables, pl, opts)
			if err != nil {
				t.Fatal(err)
			}
			if d := conformance.CompareOutputs(want, res.Outputs); d != "" {
				t.Fatal(d)
			}
		})
	}
}

// TestNoSamplesChangesNothingElse: a run that carries no samples reports what
// the default run — samples through the first data set — reports, down to the
// trace bytes, and assembles no output; so does a run that carries samples
// through every data set, several iterations' sample tasks in flight at once.
// Over every corpus case and 64 generated ones, clean and faulted (degraded
// re-sequencing on), untraced and traced; every
// other case paces its source, so MaxOverrun has something to say.
func TestNoSamplesChangesNothingElse(t *testing.T) {
	files, err := filepath.Glob("../conformance/testdata/corpus/*.case")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus cases (%v)", err)
	}
	var cases []*conformance.Case
	for _, f := range files {
		c, err := conformance.ReadCaseFile(f)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, c)
	}
	for seed := int64(0); seed < 64; seed++ {
		c, err := conformance.Generate(seed, conformance.GenConfig{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, c)
	}
	type report struct {
		res    *sagert.Result
		chrome []byte
	}
	run := func(c *conformance.Case, tables *gluegen.Tables, opts sagert.Options, traced bool) report {
		t.Helper()
		pl, _ := platforms.ByName(c.Platform)
		if traced {
			opts.Collector = trace.New(c.App.Name)
		}
		res, err := sagert.Run(tables, pl, opts)
		if err != nil {
			t.Fatalf("%s seed %d, %+v: %v", c.App.Name, c.Seed, opts, err)
		}
		var chrome bytes.Buffer
		if traced {
			tr := trace.NewTrace()
			tr.Add(opts.Collector)
			if err := tr.WriteChrome(&chrome); err != nil {
				t.Fatal(err)
			}
		}
		return report{res, chrome.Bytes()}
	}
	for ci, c := range cases {
		pl, err := platforms.ByName(c.Platform)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := gluegen.Generate(gluegen.Input{App: c.App, Mapping: c.Mapping, Platform: pl, NumNodes: c.Nodes})
		if err != nil {
			t.Fatal(err)
		}
		sinks := len(conformance.SinkNames(c.App))
		paced := ci%2 == 1
		for _, faulted := range []bool{false, true} {
			if faulted && c.Faults.Empty() {
				continue
			}
			for _, traced := range []bool{false, true} {
				opts := sagert.Options{Iterations: c.Iterations + 1}
				if faulted {
					opts.Faults = c.Faults
					opts.Resilience = fault.Resilience{Degraded: true}
				}
				if paced {
					opts.InputPeriod = 40 * time.Microsecond
				}
				sampled := run(c, gen.Tables, opts, traced)
				opts.ComputeIterations = opts.Iterations
				every := run(c, gen.Tables, opts, traced)
				opts.ComputeIterations = sagert.NoSamples
				bare := run(c, gen.Tables, opts, traced)

				where := fmt.Sprintf("%s seed %d faulted=%v paced=%v traced=%v", c.App.Name, c.Seed, faulted, paced, traced)
				if sampled.res.Output == nil || len(sampled.res.Outputs) != sinks {
					t.Fatalf("%s: the default run assembled %d of %d sinks", where, len(sampled.res.Outputs), sinks)
				}
				if bare.res.Output != nil || len(bare.res.Outputs) != 0 {
					t.Fatalf("%s: a run without samples assembled %d sink matrices", where, len(bare.res.Outputs))
				}
				want := *sampled.res
				want.Output, want.Outputs = nil, bare.res.Outputs
				if !reflect.DeepEqual(&want, bare.res) {
					t.Fatalf("%s: results differ\nsampled %+v\nno samples %+v", where, want, *bare.res)
				}
				if !bytes.Equal(sampled.chrome, bare.chrome) {
					t.Fatalf("%s: trace bytes differ (%d vs %d)", where, len(sampled.chrome), len(bare.chrome))
				}
				if len(every.res.Outputs) != sinks {
					t.Fatalf("%s: the every-iteration run assembled %d of %d sinks", where, len(every.res.Outputs), sinks)
				}
				want = *every.res
				want.Output, want.Outputs = nil, bare.res.Outputs
				if !reflect.DeepEqual(&want, bare.res) {
					t.Fatalf("%s: results differ\nevery iteration sampled %+v\nno samples %+v", where, want, *bare.res)
				}
				if !bytes.Equal(every.chrome, bare.chrome) {
					t.Fatalf("%s: trace bytes differ with every iteration sampled (%d vs %d)", where, len(every.chrome), len(bare.chrome))
				}
			}
		}
	}
}

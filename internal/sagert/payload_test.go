package sagert_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/conformance"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/sagert"
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
	// One compute iteration holds the blocks a kind writes or indexes densely
	// (source out, fft_rows out, fft_cols in and out) plus the assembled
	// output: five matrices' worth, so six is the bar. Corner-turn tiles
	// travel as pitched views and the sink's payloads land in the output.
	matrix := uint64(512 * 512 * 16)
	t.Logf("1-iteration run allocates %.2f matrices, 5-iteration run %.2f", float64(one)/float64(matrix), float64(five)/float64(matrix))
	if one > 6*matrix {
		t.Fatalf("1-iteration run allocates %d bytes, more than 6 matrices (%d)", one, 6*matrix)
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

// fanTurnTables loads the corpus case built to stress payload aliasing — a
// two-thread source fanned out to a replicated stage (every consumer thread
// is handed views of the same source blocks) and to a column-striped stage
// (strided tiles), then a corner turn and a replicated two-thread sink — and
// generates its tables.
func fanTurnTables(t *testing.T) (*conformance.Case, *gluegen.Tables) {
	t.Helper()
	c, err := conformance.ReadCaseFile("../conformance/testdata/corpus/fanout-cornerturn.case")
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

// TestPayloadViewsMatchOracle runs the aliasing case with three pipelined
// compute iterations — so views of iteration i are still being read while
// iteration i+1 is produced — on the sequential and the sharded kernel,
// clean and faulted (a retried or force-delivered message resends the same
// view). Every run must equal the sequential oracle bit for bit; under -race
// the sharded runs also prove no thread writes what another still reads.
func TestPayloadViewsMatchOracle(t *testing.T) {
	c, tables := fanTurnTables(t)
	pl, _ := platforms.ByName(c.Platform)
	const computeIters = 3
	want, err := conformance.Oracle(c.App, computeIters-1)
	if err != nil {
		t.Fatal(err)
	}
	for _, faulted := range []bool{false, true} {
		for _, shards := range []int{1, 2, 8} {
			opts := sagert.Options{Iterations: computeIters + 1, ComputeIterations: computeIters, Shards: shards}
			if faulted {
				opts.Faults = c.Faults
				opts.Resilience = fault.Resilience{Degraded: true}
			}
			t.Run(fmt.Sprintf("faulted=%v/shards=%d", faulted, shards), func(t *testing.T) {
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
}

package rtl_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/codegen"
	"repro/internal/codegen/rtl"
	"repro/internal/conformance"
	"repro/internal/experiments"
	"repro/internal/gluegen"
	"repro/internal/platforms"
)

// TestPayloadViewsAcrossGOMAXPROCS executes the corpus case built to stress
// payload aliasing (replicated fan-out of shared views, strided corner-turn
// tiles, a replicated two-thread sink) as real goroutines, serialised on one
// P and spread over eight. Every iteration must equal the sequential oracle
// bit for bit; under -race the run also proves that no goroutine writes a
// block another still reads through a view.
func TestPayloadViewsAcrossGOMAXPROCS(t *testing.T) {
	c, err := conformance.ReadCaseFile("../../conformance/testdata/corpus/fanout-cornerturn.case")
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
	const iters = 6
	prog, err := codegen.Plan(out.Tables, iters)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			res, err := rtl.Execute(prog)
			if err != nil {
				t.Fatal(err)
			}
			for it := 0; it < iters; it++ {
				want, err := conformance.Oracle(c.App, it)
				if err != nil {
					t.Fatal(err)
				}
				if d := conformance.CompareOutputs(want, res.Iters[it]); d != "" {
					t.Fatalf("iteration %d: %s", it, d)
				}
			}
		})
	}
}

// TestAllocCeilingExecute pins what one more iteration of an fft2d 256 on 8
// threads costs the real-execution runtime: the blocks a kind writes or
// indexes densely (source out, fft_rows out, fft_cols in and out) and that
// iteration's result matrix — five matrices' worth, so six is the bar. Sends
// (views, contiguous or pitched), whole-partition receives and the sink (its
// payloads land in the result) add none.
func TestAllocCeilingExecute(t *testing.T) {
	const n = 256
	gen, err := experiments.GenerateTables(experiments.AppFFT2D, platforms.CSPI(), 8, n)
	if err != nil {
		t.Fatal(err)
	}
	bytesFor := func(iters int) uint64 {
		prog, err := codegen.Plan(gen.Tables, iters)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := rtl.Execute(prog); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	bytesFor(1) // warm one-time state outside the measurement
	perIter := (bytesFor(5) - bytesFor(1)) / 4
	matrix := uint64(n * n * 16)
	t.Logf("one more iteration allocates %.2f matrices", float64(perIter)/float64(matrix))
	if perIter > 6*matrix {
		t.Fatalf("one more iteration allocates %d bytes, more than 6 matrices (%d)", perIter, 6*matrix)
	}
}

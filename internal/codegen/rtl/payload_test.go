package rtl_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/codegen"
	"repro/internal/codegen/rtl"
	"repro/internal/conformance"
	"repro/internal/experiments"
	"repro/internal/gluegen"
	"repro/internal/plan"
	"repro/internal/platforms"
)

// TestPayloadViewsAcrossGOMAXPROCS executes the corpus case built to stress
// payload aliasing (replicated fan-out of shared views, strided corner-turn
// tiles, a replicated two-thread sink) as real goroutines, serialised on one
// P and spread over eight. Every iteration must equal the sequential oracle
// bit for bit; under -race the run also proves that no goroutine writes a
// block another still reads through a view.
func TestPayloadViewsAcrossGOMAXPROCS(t *testing.T) { viewsAcrossGOMAXPROCS(t, "fanout-cornerturn") }

// TestInPlaceAcrossGOMAXPROCS: the same for the in-place fan-out — kinds that
// adopt shared views (and must not write them) ahead of kinds that own their
// input (and do). The oracle computes out of place, so it is the independent
// check.
func TestInPlaceAcrossGOMAXPROCS(t *testing.T) { viewsAcrossGOMAXPROCS(t, "fanout-inplace") }

func viewsAcrossGOMAXPROCS(t *testing.T, name string) {
	c, err := conformance.ReadCaseFile("../../conformance/testdata/corpus/" + name + ".case")
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

// TestOwnedInputsMatchPlan: rtl decides which threads compute in place from
// the Program's own transfers, sagert reads plan.Build's decision off the
// tables; over the corpus and 64 generated graphs the two are the same
// decision, thread for thread.
func TestOwnedInputsMatchPlan(t *testing.T) {
	files, err := filepath.Glob("../../conformance/testdata/corpus/*.case")
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
		c, err := conformance.Generate(seed, conformance.GenConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, c)
	}
	inPlace := 0
	for _, c := range cases {
		pl, err := platforms.ByName(c.Platform)
		if err != nil {
			t.Fatal(err)
		}
		out, err := gluegen.Generate(gluegen.Input{App: c.App, Mapping: c.Mapping, Platform: pl, NumNodes: c.Nodes})
		if err != nil {
			t.Fatal(err)
		}
		xp, err := plan.Build(out.Tables)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := codegen.Plan(out.Tables, 1)
		if err != nil {
			t.Fatal(err)
		}
		owned, err := rtl.OwnedInputs(prog)
		if err != nil {
			t.Fatal(err)
		}
		if len(owned) != len(xp.Threads) {
			t.Fatalf("%s seed %d: %d program threads, %d plan threads", c.App.Name, c.Seed, len(owned), len(xp.Threads))
		}
		for ti := range xp.Threads {
			if owned[ti] {
				inPlace++
			}
			if owned[ti] != xp.Threads[ti].InPlace {
				t.Errorf("%s seed %d: %s[%d]: rtl in place %v, plan %v", c.App.Name, c.Seed,
					prog.Threads[ti].Fn, prog.Threads[ti].Thread, owned[ti], xp.Threads[ti].InPlace)
			}
		}
	}
	if inPlace == 0 {
		t.Fatal("no thread of any case computes in place")
	}
}

// TestAllocCeilingExecute pins what one more iteration of an fft2d 256 on 8
// threads costs the real-execution runtime once its storage is warm: that
// iteration's result matrix, so 1.25 is the bar. The blocks the source writes
// (fft_rows transforms the row stripes it adopts where they lie) and the
// blocks fft_cols assembles its tiles into (and transforms in place) are the
// layout's, Slots of each for the whole run, reused by iteration number.
// Sends (views, contiguous or pitched), whole-partition receives, in-place
// computes and the sink (its payloads land in the result) add none.
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
	warm := rtl.DefaultSlots // every storage holds all its blocks from here on
	bytesFor(warm)           // warm one-time state outside the measurement
	perIter := (bytesFor(warm+4) - bytesFor(warm)) / 4
	matrix := uint64(n * n * 16)
	t.Logf("one more iteration allocates %.2f matrices", float64(perIter)/float64(matrix))
	if perIter > 5*matrix/4 {
		t.Fatalf("one more iteration allocates %d bytes, more than 1.25 matrices (%d)", perIter, 5*matrix/4)
	}
}

// reuseCases plans the corpus and 64 generated graphs at Slots s and
// Iterations 3·s, so that every storage hands each of its blocks out again.
func reuseCases(t *testing.T, s int) (cases []*conformance.Case, progs []*rtl.Program) {
	t.Helper()
	files, err := filepath.Glob("../../conformance/testdata/corpus/*.case")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus cases (%v)", err)
	}
	for _, f := range files {
		c, err := conformance.ReadCaseFile(f)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, c)
	}
	for seed := int64(0); seed < 64; seed++ {
		c, err := conformance.Generate(seed, conformance.GenConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, c)
	}
	for _, c := range cases {
		pl, err := platforms.ByName(c.Platform)
		if err != nil {
			t.Fatal(err)
		}
		out, err := gluegen.Generate(gluegen.Input{App: c.App, Mapping: c.Mapping, Platform: pl, NumNodes: c.Nodes})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := codegen.Plan(out.Tables, 3*s)
		if err != nil {
			t.Fatal(err)
		}
		prog.Slots = s
		progs = append(progs, prog)
	}
	return cases, progs
}

// TestRecycledBlocksMatchOracle runs every reuse case with each recycled
// block that the layout does not clear filled with NaN first: a transfer
// set the layout wrongly believes covers its partition, or a block reused
// while a reader still needs it, changes a sink bit. Every iteration must
// equal the sequential oracle bitwise, and every case must have recycled a
// block — the corpus draws only 1–3 iterations, where reuse need never run —
// and some recycled block must have skipped its clearing.
func TestRecycledBlocksMatchOracle(t *testing.T) {
	var poisoned int64
	for _, s := range []int{1, 2} {
		cases, progs := reuseCases(t, s)
		for i, prog := range progs {
			c := cases[i]
			res, recycled, p, err := rtl.ExecutePoisoned(prog)
			poisoned += p
			if err != nil {
				t.Fatalf("%s seed %d slots %d: %v", c.App.Name, c.Seed, s, err)
			}
			if recycled == 0 {
				t.Errorf("%s seed %d slots %d: %d iterations recycled no block", c.App.Name, c.Seed, s, prog.Iterations)
			}
			for it := range prog.Iterations {
				want, err := conformance.Oracle(c.App, it)
				if err != nil {
					t.Fatal(err)
				}
				if d := conformance.CompareOutputs(want, res.Iters[it]); d != "" {
					t.Fatalf("%s seed %d slots %d iteration %d: %s", c.App.Name, c.Seed, s, it, d)
				}
			}
		}
	}
	if poisoned == 0 {
		t.Fatal("no recycled block skipped clearing: the poison checked nothing")
	}
	t.Logf("%d recycled blocks poisoned", poisoned)
}

// TestReadersCoverEveryReceive holds the reader sets to their definition at
// run time: whatever storage a received payload lies in, the receiving
// thread is one of its readers. The corpus's in-place fan-outs
// (fanout-inplace, fanout-cornerturn) send views of a storage on through a
// thread that adopted it and computes in place, so a reader set that stops
// at the first hop fails here.
func TestReadersCoverEveryReceive(t *testing.T) {
	for _, s := range []int{1, 2} {
		cases, progs := reuseCases(t, s)
		for i, prog := range progs {
			checked, bad, err := rtl.ReceivesOutsideReaders(prog)
			if err != nil {
				t.Fatal(err)
			}
			if checked == 0 {
				t.Errorf("%s seed %d: no payload checked", cases[i].App.Name, cases[i].Seed)
			}
			for _, b := range bad {
				t.Errorf("%s seed %d slots %d: %s", cases[i].App.Name, cases[i].Seed, s, b)
			}
		}
	}
}

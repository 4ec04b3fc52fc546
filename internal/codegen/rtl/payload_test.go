package rtl_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/codegen"
	"repro/internal/codegen/rtl"
	"repro/internal/conformance"
	"repro/internal/experiments"
	"repro/internal/funclib"
	"repro/internal/gluegen"
	"repro/internal/model"
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

// TestAllocCeilingExecute pins what an fft2d 256 on 8 threads costs the
// real-execution runtime. One more iteration once its storage is warm costs
// that iteration's result matrix, so 1.25 is the bar. A whole run of I
// iterations holds what the plan's layouts (plan.Layouts) say it does: I
// result matrices, and min(Slots, I) blocks of every storage; 5 % more is
// the bar. Today that is I matrices and no storage at all: the source writes
// its block into the result (funclib.ResultBacked), where fft_rows
// transforms the row stripes it adopts and fft_cols its column stripes, on
// the tiles it finds there. Sends (the producer's block itself),
// whole-partition receives (the block or a view of it), in-place computes
// and the sink add nothing.
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
	// planned is what the layouts say a run of iters iterations holds.
	planned := func(iters int) uint64 {
		xp, err := plan.Build(gen.Tables)
		if err != nil {
			t.Fatal(err)
		}
		const sample = 16 // one complex128
		var b int
		for _, s := range xp.Sinks {
			b += iters * s.Rows * s.Cols * sample
		}
		blocks := min(rtl.DefaultSlots, iters)
		for ti, l := range xp.Layouts() {
			tp := &xp.Threads[ti]
			for pi, s := range l.Ins {
				if s != nil {
					b += blocks * tp.Ins[pi].Region.Elems() * sample
				}
			}
			for pi, s := range l.Outs {
				if s != nil {
					b += blocks * tp.Outs[pi].Region.Elems() * sample
				}
			}
		}
		return uint64(b)
	}
	warm := rtl.DefaultSlots // every storage holds all its blocks from here on
	bytesFor(warm)           // warm one-time state outside the measurement
	whole := bytesFor(warm + 4)
	perIter := (whole - bytesFor(warm)) / 4
	matrix := uint64(n * n * 16)
	t.Logf("one more iteration allocates %.2f matrices, a run of %d %.2f (the layouts hold %.2f)",
		float64(perIter)/float64(matrix), warm+4, float64(whole)/float64(matrix), float64(planned(warm+4))/float64(matrix))
	if perIter > 5*matrix/4 {
		t.Fatalf("one more iteration allocates %d bytes, more than 1.25 matrices (%d)", perIter, 5*matrix/4)
	}
	if bar := planned(warm+4) * 105 / 100; whole > bar {
		t.Fatalf("a run of %d iterations allocates %d bytes, more than its layouts hold and 5%% (%d)", warm+4, whole, bar)
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

// TestRecycledBlocksMatchOracle runs every reuse case, at Slots 1, 2 and 3,
// with each recycled block that the plan does not clear filled with NaN
// first: a transfer set the plan wrongly believes covers its partition, or a
// block reused while a reader still needs it, changes a sink bit. Every
// iteration must equal the sequential oracle bitwise. Every case that still
// has a storage must have recycled a block — the corpus draws only 1–3
// iterations, where reuse need never run — and some case must; a case whose
// every buffer lies in a result (a source feeding its sink) has none. Some
// recycled block must have skipped its clearing.
func TestRecycledBlocksMatchOracle(t *testing.T) {
	var poisoned, withStorage int64
	for _, s := range []int{1, 2, 3} {
		cases, progs := reuseCases(t, s)
		for i, prog := range progs {
			c := cases[i]
			res, seen, err := rtl.ExecutePoisoned(prog)
			poisoned += seen.Poisoned
			if err != nil {
				t.Fatalf("%s seed %d slots %d: %v", c.App.Name, c.Seed, s, err)
			}
			storages := 0
			for _, th := range prog.Threads {
				for _, pp := range slices.Concat(th.Ins, th.Outs) {
					if pp.Storage != nil {
						storages++
					}
				}
			}
			if storages > 0 {
				withStorage++
				if seen.Recycled == 0 {
					t.Errorf("%s seed %d slots %d: %d iterations recycled none of %d storages' blocks",
						c.App.Name, c.Seed, s, prog.Iterations, storages)
				}
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
	if withStorage == 0 {
		t.Fatal("no case has a storage: the recycling checked nothing")
	}
	if poisoned == 0 {
		t.Fatal("no recycled block skipped clearing: the poison checked nothing")
	}
	t.Logf("%d cases with storage, %d recycled blocks poisoned", withStorage, poisoned)
}

// turnCases builds generated cases in which transpose_block feeds a consumer
// that is not a sink and fans out: a source, a transpose_block, a row-wise op
// on the turn's output, and either a second op on it or a sink tapping it,
// every loose end sunk — random sizes, stripings, thread counts, mappings
// and platforms. The turn's output is a storage of its own, and its tiles
// cover its partition, so a recycled one skips its clearing.
func turnCases(t *testing.T, count int) []*conformance.Case {
	t.Helper()
	var cases []*conformance.Case
	for seed := range int64(count) {
		rng := rand.New(rand.NewSource(seed))
		n := []int{2, 4, 8, 16}[rng.Intn(4)]
		app := model.NewApp(fmt.Sprintf("turnfan_%d", seed))
		mt, err := app.AddType(&model.DataType{Name: "m", Rows: n, Cols: n, Elem: model.ElemComplex})
		if err != nil {
			t.Fatal(err)
		}
		threads := func(s model.StripeKind) int {
			if s == model.Replicated {
				return 1 + rng.Intn(3)
			}
			return 1 + rng.Intn(min(4, n))
		}
		rowStripe := func() model.StripeKind { return []model.StripeKind{model.ByRows, model.Replicated}[rng.Intn(2)] }
		connect := func(src, dst string) {
			if _, err := app.Connect(src, "out", dst, "in"); err != nil {
				t.Fatal(err)
			}
		}
		sink := func(name, from string) {
			s := []model.StripeKind{model.ByRows, model.ByCols, model.Replicated}[rng.Intn(3)]
			app.AddFunction(&model.Function{Name: name, Kind: "sink_matrix", Threads: threads(s)}).AddInput("in", mt, s)
			connect(from, name)
		}
		s := []model.StripeKind{model.ByRows, model.ByCols, model.Replicated}[rng.Intn(3)]
		app.AddFunction(&model.Function{Name: "src", Kind: "source_matrix", Threads: threads(s),
			Params: map[string]any{"seed": 1 + rng.Intn(1000)}}).AddOutput("out", mt, s)
		turn := app.AddFunction(&model.Function{Name: "turn", Kind: "transpose_block", Threads: threads(model.ByCols)})
		turn.AddInput("in", mt, model.ByCols)
		turn.AddOutput("out", mt, model.ByRows)
		connect("src", "turn")
		op := func(name string) {
			kind := []string{"scale", "identity", "mag2", "fft_rows", "window_rows"}[rng.Intn(5)]
			s := rowStripe()
			f := app.AddFunction(&model.Function{Name: name, Kind: kind, Threads: threads(s)})
			switch kind {
			case "scale":
				f.Params = map[string]any{"factor": []float64{0.5, -1, 2}[rng.Intn(3)]}
			case "window_rows":
				f.Params = map[string]any{"window": []string{"hann", "hamming", "blackman"}[rng.Intn(3)]}
			}
			f.AddInput("in", mt, s)
			f.AddOutput("out", mt, s)
			connect("turn", name)
			sink(name+"_sink", name)
		}
		op("a")
		if rng.Intn(2) == 0 {
			op("b")
		} else {
			sink("tap", "turn")
		}
		app.AssignIDs()
		if err := app.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := funclib.ValidateApp(app); err != nil {
			t.Fatal(err)
		}
		nodes := 1 + rng.Intn(8)
		mapping := model.NewMapping()
		for _, f := range app.Functions {
			ns := make([]int, f.Threads)
			for i := range ns {
				ns[i] = rng.Intn(nodes)
			}
			mapping.Set(f.Name, ns...)
		}
		names := platforms.Names()
		cases = append(cases, &conformance.Case{
			Seed: seed, Platform: names[rng.Intn(len(names))], Nodes: nodes, Iterations: 3,
			App: app, Mapping: mapping, Perm: rng.Perm(nodes),
		})
	}
	return cases
}

// TestTransposedLandingMatchesOracle holds a turn's transposed landing to the
// sequential oracle where its output is a recycled storage: the generated
// turn cases at Slots 1 and 2 and Iterations 3·Slots, every recycled block
// that skips its clearing NaN-poisoned, every iteration bitwise. Some of the
// poisoned blocks must be the turns' outputs. Each case also passes the
// conformance checker's variants (sim, replay, generated program and the rest).
func TestTransposedLandingMatchesOracle(t *testing.T) {
	cases := turnCases(t, 32)
	var transposed int64
	for _, c := range cases {
		if f := c.Check(conformance.CheckOptions{}); f != nil {
			t.Fatalf("%s: %s", c.App.Name, f)
		}
		pl, err := platforms.ByName(c.Platform)
		if err != nil {
			t.Fatal(err)
		}
		out, err := gluegen.Generate(gluegen.Input{App: c.App, Mapping: c.Mapping, Platform: pl, NumNodes: c.Nodes})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []int{1, 2} {
			prog, err := codegen.Plan(out.Tables, 3*s)
			if err != nil {
				t.Fatal(err)
			}
			prog.Slots = s
			res, seen, err := rtl.ExecutePoisoned(prog)
			if err != nil {
				t.Fatalf("%s slots %d: %v", c.App.Name, s, err)
			}
			transposed += seen.Transposed
			for it := range prog.Iterations {
				want, err := conformance.Oracle(c.App, it)
				if err != nil {
					t.Fatal(err)
				}
				if d := conformance.CompareOutputs(want, res.Iters[it]); d != "" {
					t.Fatalf("%s slots %d iteration %d: %s", c.App.Name, s, it, d)
				}
			}
		}
	}
	if transposed == 0 {
		t.Fatal("no recycled transposed output skipped its clearing: the poison checked nothing")
	}
	t.Logf("%d cases, %d recycled transposed outputs poisoned", len(cases), transposed)
}

// TestReadersCoverEveryReceive holds the reader sets and the result rule to
// their definitions at run time: whatever storage a received payload lies
// in, the receiving thread is one of its readers; a payload that lies in an
// iteration's result matrix is received by that sink's threads, or — when
// the storage there is hosted, its views going beyond the sink — by threads
// that precede every sink thread. Both kinds of result receipt must occur.
// The corpus's in-place fan-outs (fanout-inplace, fanout-cornerturn) send
// views of a storage on through a thread that adopted it and computes in
// place, so a reader set that stops at the first hop fails here.
func TestReadersCoverEveryReceive(t *testing.T) {
	bySink, byOthers := 0, 0
	for _, s := range []int{1, 2} {
		cases, progs := reuseCases(t, s)
		for i, prog := range progs {
			checked, sink, others, bad, err := rtl.ReceivesOutsideReaders(prog)
			if err != nil {
				t.Fatal(err)
			}
			bySink, byOthers = bySink+sink, byOthers+others
			if checked == 0 {
				t.Errorf("%s seed %d: no payload checked", cases[i].App.Name, cases[i].Seed)
			}
			for _, b := range bad {
				t.Errorf("%s seed %d slots %d: %s", cases[i].App.Name, cases[i].Seed, s, b)
			}
		}
	}
	if bySink == 0 || byOthers == 0 {
		t.Fatalf("result payloads: %d received by a sink, %d by a preceding thread: a clause checked nothing", bySink, byOthers)
	}
	t.Logf("result payloads: %d received by a sink, %d by a preceding thread", bySink, byOthers)
}

// TestAdoptionOfAWiderBlock: a send hands over the producer's block and the
// lane names the region, so a port whose one lane covers its partition
// adopts a region of a wider block as a view of it. fft2d 64 with a 1-thread
// source and a 4-thread fft_rows on four CSPI nodes: each fft_rows thread
// receives the source's whole block and its own 16-row stripe as the region,
// adopts that stripe as a dense view of the block, transforms it there and
// sends it on — so fft_cols receives, from fft_rows thread j, a block over
// j's stripe whose first sample is that of the stripe in the source's block.
// Every iteration's sink bits equal the oracle's.
func TestAdoptionOfAWiderBlock(t *testing.T) {
	app, err := apps.FFT2D(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	pl := platforms.CSPI()
	m, err := model.SpreadParallel(app, 4)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := gluegen.Generate(gluegen.Input{App: app, Mapping: m, Platform: pl, NumNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	const iters = 3
	prog, err := codegen.Plan(gen.Tables, iters)
	if err != nil {
		t.Fatal(err)
	}
	whole := model.Region{Rows: 64, Cols: 64}
	var mu sync.Mutex
	stripes := map[*complex128]model.Region{} // each stripe fft_rows received, by its first sample in the source's block
	var cols []*funclib.Block                 // what fft_cols received from fft_rows
	res, err := rtl.ExecuteReceiving(prog, func(ti int, b *funclib.Block, reg model.Region) {
		mu.Lock()
		defer mu.Unlock()
		switch th := &prog.Threads[ti]; th.Fn {
		case "fft_rows":
			if b.Region != whole || reg != th.Ins[0].Region {
				t.Errorf("fft_rows[%d] received %v carrying %v, want the source's %v carrying its %v", th.Thread, b.Region, reg, whole, th.Ins[0].Region)
				return
			}
			stripes[&b.Data[reg.R0*64]] = reg // b is the source's block: dense, 64 wide
		case "fft_cols":
			cols = append(cols, b)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range cols {
		if reg, ok := stripes[&b.Data[0]]; !ok || b.Region != reg || len(b.Data) != reg.Elems() {
			t.Fatalf("fft_cols received %v, no adopted stripe of a source block", b.Region)
		}
	}
	if len(cols) != iters*4*4 {
		t.Fatalf("fft_cols received %d payloads, want %d", len(cols), iters*4*4)
	}
	for it := range iters {
		want, err := conformance.Oracle(app, it)
		if err != nil {
			t.Fatal(err)
		}
		if d := conformance.CompareOutputs(want, res.Iters[it]); d != "" {
			t.Fatalf("iteration %d: %s", it, d)
		}
	}
}

package conformance

import (
	"testing"

	"repro/internal/codegen"
	"repro/internal/fault"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/platforms"
)

// Explicit degenerate shapes the random generator only hits occasionally:
// the minimal two-task app, 1x1 matrices, thread count equal to the striped
// extent, single-row and single-column vectors, fan-out diamonds, and a
// double arc from one output port into one fan-in function. Each is run
// through the complete differential check (oracle, replay, sequential,
// optimized, traced, faulted, permuted). These graphs shook out the
// striping-mismatch validation gap locked down in funclib's tests.

// degenCase wraps an app in a runnable conformance case: round-robin mapping
// over the nodes, CSPI platform, a reversal permutation, and a light
// always-on drop plan.
func degenCase(t *testing.T, app *model.App, nodes int) *Case {
	t.Helper()
	app.AssignIDs()
	if err := app.Validate(); err != nil {
		t.Fatalf("degenerate app invalid: %v", err)
	}
	mapping := model.NewMapping()
	n := 0
	for _, f := range app.Functions {
		ns := make([]int, f.Threads)
		for i := range ns {
			ns[i] = n % nodes
			n++
		}
		mapping.Set(f.Name, ns...)
	}
	perm := make([]int, nodes)
	for i := range perm {
		perm[i] = nodes - 1 - i
	}
	c := &Case{
		Seed:       -1,
		Platform:   "CSPI",
		Nodes:      nodes,
		Iterations: 2,
		App:        app,
		Mapping:    mapping,
		Perm:       perm,
		Faults: &fault.Plan{
			Seed: 5,
			Drops: []fault.DropRule{{
				Link: fault.LinkSel{Src: fault.AllLinks, Dst: fault.AllLinks},
				Rate: 0.2,
				Win:  fault.Window{From: 0, To: fault.Forever},
			}},
		},
	}
	if !c.valid() {
		t.Fatal("degenerate case does not validate")
	}
	return c
}

func mustCheck(t *testing.T, c *Case) {
	t.Helper()
	if fail := c.Check(CheckOptions{}); fail != nil {
		t.Fatalf("degenerate case failed: %s", fail)
	}
	// Every degenerate graph must also round-trip the corpus format.
	back := c.Clone()
	if back.Tasks() != c.Tasks() || back.Arcs() != c.Arcs() {
		t.Fatalf("clone changed the graph: %d/%d -> %d/%d tasks/arcs",
			c.Tasks(), c.Arcs(), back.Tasks(), back.Arcs())
	}
}

// TestDirectSourceSink: the smallest expressible app — one source feeding one
// sink, 1x1 matrix — across two nodes.
func TestDirectSourceSink(t *testing.T) {
	app := model.NewApp("direct")
	mt, err := app.AddType(&model.DataType{Name: "m1x1", Rows: 1, Cols: 1, Elem: model.ElemComplex})
	if err != nil {
		t.Fatal(err)
	}
	src := app.AddFunction(&model.Function{Name: "src", Kind: "source_matrix", Threads: 1,
		Params: map[string]any{"seed": 3}})
	src.AddOutput("out", mt, model.ByCols)
	snk := app.AddFunction(&model.Function{Name: "snk", Kind: "sink_matrix", Threads: 1})
	snk.AddInput("in", mt, model.Replicated)
	if _, err := app.Connect("src", "out", "snk", "in"); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, degenCase(t, app, 2))
}

// TestThreadsEqualRows: every thread holds exactly one row (the partition
// boundary case where an off-by-one leaves a thread empty or overlapping).
func TestThreadsEqualRows(t *testing.T) {
	app := model.NewApp("fullsplit")
	mt, err := app.AddType(&model.DataType{Name: "m4x4", Rows: 4, Cols: 4, Elem: model.ElemComplex})
	if err != nil {
		t.Fatal(err)
	}
	src := app.AddFunction(&model.Function{Name: "src", Kind: "source_matrix", Threads: 4,
		Params: map[string]any{"seed": 8}})
	src.AddOutput("out", mt, model.ByRows)
	fft := app.AddFunction(&model.Function{Name: "fft", Kind: "fft_rows", Threads: 4})
	fft.AddInput("in", mt, model.ByRows)
	fft.AddOutput("out", mt, model.ByRows)
	snk := app.AddFunction(&model.Function{Name: "snk", Kind: "sink_matrix", Threads: 4})
	snk.AddInput("in", mt, model.ByRows)
	if _, err := app.Connect("src", "out", "fft", "in"); err != nil {
		t.Fatal(err)
	}
	if _, err := app.Connect("fft", "out", "snk", "in"); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, degenCase(t, app, 4))
}

// TestVectorShapes: single-row and single-column matrices through the
// orientation-sensitive kinds.
func TestVectorShapes(t *testing.T) {
	app := model.NewApp("vectors")
	rowT, err := app.AddType(&model.DataType{Name: "m1x8", Rows: 1, Cols: 8, Elem: model.ElemComplex})
	if err != nil {
		t.Fatal(err)
	}
	colT, err := app.AddType(&model.DataType{Name: "m8x1", Rows: 8, Cols: 1, Elem: model.ElemComplex})
	if err != nil {
		t.Fatal(err)
	}
	srcR := app.AddFunction(&model.Function{Name: "srcR", Kind: "source_matrix", Threads: 1,
		Params: map[string]any{"seed": 21}})
	srcR.AddOutput("out", rowT, model.ByRows)
	fftR := app.AddFunction(&model.Function{Name: "fftR", Kind: "fft_rows", Threads: 1})
	fftR.AddInput("in", rowT, model.ByRows)
	fftR.AddOutput("out", rowT, model.ByRows)
	snkR := app.AddFunction(&model.Function{Name: "snkR", Kind: "sink_matrix", Threads: 1})
	snkR.AddInput("in", rowT, model.Replicated)

	srcC := app.AddFunction(&model.Function{Name: "srcC", Kind: "source_matrix", Threads: 1,
		Params: map[string]any{"seed": 22}})
	srcC.AddOutput("out", colT, model.ByCols)
	fftC := app.AddFunction(&model.Function{Name: "fftC", Kind: "fft_cols", Threads: 1})
	fftC.AddInput("in", colT, model.ByCols)
	fftC.AddOutput("out", colT, model.ByCols)
	snkC := app.AddFunction(&model.Function{Name: "snkC", Kind: "sink_matrix", Threads: 1})
	snkC.AddInput("in", colT, model.Replicated)

	for _, arc := range [][4]string{
		{"srcR", "out", "fftR", "in"}, {"fftR", "out", "snkR", "in"},
		{"srcC", "out", "fftC", "in"}, {"fftC", "out", "snkC", "in"},
	} {
		if _, err := app.Connect(arc[0], arc[1], arc[2], arc[3]); err != nil {
			t.Fatal(err)
		}
	}
	mustCheck(t, degenCase(t, app, 3))
}

// TestFanOutDiamond: one source value feeds two different operator chains
// that rejoin in an add2 — the classic diamond.
func TestFanOutDiamond(t *testing.T) {
	app := model.NewApp("diamond")
	mt, err := app.AddType(&model.DataType{Name: "m4x6", Rows: 4, Cols: 6, Elem: model.ElemComplex})
	if err != nil {
		t.Fatal(err)
	}
	src := app.AddFunction(&model.Function{Name: "src", Kind: "source_matrix", Threads: 2,
		Params: map[string]any{"seed": 31}})
	src.AddOutput("out", mt, model.ByRows)
	left := app.AddFunction(&model.Function{Name: "left", Kind: "identity", Threads: 2})
	left.AddInput("in", mt, model.ByRows)
	left.AddOutput("out", mt, model.ByRows)
	right := app.AddFunction(&model.Function{Name: "right", Kind: "scale", Threads: 3,
		Params: map[string]any{"factor": -1.5}})
	right.AddInput("in", mt, model.ByCols)
	right.AddOutput("out", mt, model.ByCols)
	join := app.AddFunction(&model.Function{Name: "join", Kind: "add2", Threads: 2})
	join.AddInput("a", mt, model.ByRows)
	join.AddInput("b", mt, model.ByRows)
	join.AddOutput("out", mt, model.ByRows)
	snk := app.AddFunction(&model.Function{Name: "snk", Kind: "sink_matrix", Threads: 1})
	snk.AddInput("in", mt, model.Replicated)
	for _, arc := range [][4]string{
		{"src", "out", "left", "in"}, {"src", "out", "right", "in"},
		{"left", "out", "join", "a"}, {"right", "out", "join", "b"},
		{"join", "out", "snk", "in"},
	} {
		if _, err := app.Connect(arc[0], arc[1], arc[2], arc[3]); err != nil {
			t.Fatal(err)
		}
	}
	mustCheck(t, degenCase(t, app, 3))
}

// TestAdd2PortsListedBeforeTheirKind: a kind's ports are positions, not the
// order a model lists them in. The join declares its add2 operands b before
// a, so its tables and the generated program list them so (the receive
// order), while the plan places b's block at position 1 of the two Compute
// takes. The operands come from different chains, and the sinks must equal
// the oracle's bit for bit under sagert, the generated program and every
// variant of Check. (add2 sums, so a swap of its operands would not show in
// the sinks; the positions pin the mapping itself.)
func TestAdd2PortsListedBeforeTheirKind(t *testing.T) {
	app := model.NewApp("reversed")
	mt, err := app.AddType(&model.DataType{Name: "m4x6", Rows: 4, Cols: 6, Elem: model.ElemComplex})
	if err != nil {
		t.Fatal(err)
	}
	src := app.AddFunction(&model.Function{Name: "src", Kind: "source_matrix", Threads: 2,
		Params: map[string]any{"seed": 17}})
	src.AddOutput("out", mt, model.ByRows)
	sq := app.AddFunction(&model.Function{Name: "sq", Kind: "mag2", Threads: 2})
	sq.AddInput("in", mt, model.ByCols)
	sq.AddOutput("out", mt, model.ByCols)
	join := app.AddFunction(&model.Function{Name: "join", Kind: "add2", Threads: 2})
	join.AddInput("b", mt, model.ByRows)
	join.AddInput("a", mt, model.ByRows)
	join.AddOutput("out", mt, model.ByRows)
	snk := app.AddFunction(&model.Function{Name: "snk", Kind: "sink_matrix", Threads: 1})
	snk.AddInput("in", mt, model.Replicated)
	for _, arc := range [][4]string{
		{"src", "out", "sq", "in"}, {"src", "out", "join", "a"},
		{"sq", "out", "join", "b"}, {"join", "out", "snk", "in"},
	} {
		if _, err := app.Connect(arc[0], arc[1], arc[2], arc[3]); err != nil {
			t.Fatal(err)
		}
	}
	c := degenCase(t, app, 3)
	mustCheck(t, c)

	gen, err := gluegen.Generate(gluegen.Input{App: c.App, Mapping: c.Mapping, Platform: platforms.CSPI(), NumNodes: c.Nodes})
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(gen.Tables)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Plan(gen.Tables, 1)
	if err != nil {
		t.Fatal(err)
	}
	joins := 0
	for ti := range p.Threads {
		if tp := &p.Threads[ti]; tp.Fn.Name == "join" {
			joins++
			in := tp.Ins
			if in[0].Entry.Name != "b" || in[0].Pos != 1 || in[1].Entry.Name != "a" || in[1].Pos != 0 {
				t.Errorf("join[%d]: ports %s at %d, %s at %d; want b at 1, a at 0", tp.Index, in[0].Entry.Name, in[0].Pos, in[1].Entry.Name, in[1].Pos)
			}
			if got := prog.Threads[ti].Ins; got[0].Name != "b" || got[1].Name != "a" {
				t.Errorf("join[%d]: the program receives %s then %s; want the tables' order, b then a", tp.Index, got[0].Name, got[1].Name)
			}
		}
	}
	if joins != 2 {
		t.Fatalf("%d join threads, want 2", joins)
	}
}

// TestDoubleArcFanIn: both operands of an add2 drawn from the SAME output
// port — two arcs between one port pair's function, i.e. out = 2*in.
func TestDoubleArcFanIn(t *testing.T) {
	app := model.NewApp("doublearc")
	mt, err := app.AddType(&model.DataType{Name: "m1x8", Rows: 1, Cols: 8, Elem: model.ElemComplex})
	if err != nil {
		t.Fatal(err)
	}
	src := app.AddFunction(&model.Function{Name: "src", Kind: "source_matrix", Threads: 1,
		Params: map[string]any{"seed": 44}})
	src.AddOutput("out", mt, model.ByCols)
	dbl := app.AddFunction(&model.Function{Name: "dbl", Kind: "add2", Threads: 2})
	dbl.AddInput("a", mt, model.ByCols)
	dbl.AddInput("b", mt, model.ByCols)
	dbl.AddOutput("out", mt, model.ByCols)
	snk := app.AddFunction(&model.Function{Name: "snk", Kind: "sink_matrix", Threads: 1})
	snk.AddInput("in", mt, model.Replicated)
	for _, arc := range [][4]string{
		{"src", "out", "dbl", "a"}, {"src", "out", "dbl", "b"}, {"dbl", "out", "snk", "in"},
	} {
		if _, err := app.Connect(arc[0], arc[1], arc[2], arc[3]); err != nil {
			t.Fatal(err)
		}
	}
	mustCheck(t, degenCase(t, app, 2))
}

// TestReplicatedMultiThread: replicated ports with several threads — every
// thread holds the whole matrix, so transfers carry full copies and the
// runtime must not double-deliver.
func TestReplicatedMultiThread(t *testing.T) {
	app := model.NewApp("replicated")
	mt, err := app.AddType(&model.DataType{Name: "m3x5", Rows: 3, Cols: 5, Elem: model.ElemComplex})
	if err != nil {
		t.Fatal(err)
	}
	src := app.AddFunction(&model.Function{Name: "src", Kind: "source_matrix", Threads: 3,
		Params: map[string]any{"seed": 13}})
	src.AddOutput("out", mt, model.Replicated)
	sc := app.AddFunction(&model.Function{Name: "sc", Kind: "scale", Threads: 2,
		Params: map[string]any{"factor": 0.25}})
	sc.AddInput("in", mt, model.Replicated)
	sc.AddOutput("out", mt, model.Replicated)
	snk := app.AddFunction(&model.Function{Name: "snk", Kind: "sink_matrix", Threads: 2})
	snk.AddInput("in", mt, model.Replicated)
	if _, err := app.Connect("src", "out", "sc", "in"); err != nil {
		t.Fatal(err)
	}
	if _, err := app.Connect("sc", "out", "snk", "in"); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, degenCase(t, app, 3))
}

// TestStripeCountExceedsExtentRejected: more threads than striped rows/cols
// would leave some thread an empty partition; model validation must reject
// the app before any tool consumes it.
func TestStripeCountExceedsExtentRejected(t *testing.T) {
	app := model.NewApp("overstriped")
	mt, err := app.AddType(&model.DataType{Name: "m4x4", Rows: 4, Cols: 4, Elem: model.ElemComplex})
	if err != nil {
		t.Fatal(err)
	}
	src := app.AddFunction(&model.Function{Name: "src", Kind: "source_matrix", Threads: 5,
		Params: map[string]any{"seed": 1}})
	src.AddOutput("out", mt, model.ByRows)
	snk := app.AddFunction(&model.Function{Name: "snk", Kind: "sink_matrix", Threads: 1})
	snk.AddInput("in", mt, model.Replicated)
	if _, err := app.Connect("src", "out", "snk", "in"); err != nil {
		t.Fatal(err)
	}
	app.AssignIDs()
	if err := app.Validate(); err == nil {
		t.Fatal("5 threads striping 4 rows not rejected by model validation")
	}
}

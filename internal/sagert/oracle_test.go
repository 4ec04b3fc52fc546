package sagert

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/funclib"
	"repro/internal/gluegen"
	"repro/internal/isspl"
	"repro/internal/model"
	"repro/internal/platforms"
)

// This file is the runtime's strongest correctness test: it generates random
// pipeline applications (random stage kinds, striping choices, thread counts
// and mappings), pushes them through the full Alter-generate -> verify ->
// execute path, and compares the sink output against a sequential functional
// oracle that evaluates the same dataflow graph on whole matrices with no
// distribution at all. Any striping, transfer-scheduling or buffer-assembly
// bug shows up as a numerical mismatch.

// oracleEval runs the app functionally: every function executed once with
// replicated whole-matrix blocks, in topological order.
func oracleEval(t *testing.T, app *model.App, iterations int) *isspl.Matrix {
	t.Helper()
	order, err := app.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	// Values on arcs, keyed by the producing port.
	values := map[*model.Port]*funclib.Block{}
	var sinkOut *isspl.Matrix
	for iter := 0; iter < iterations; iter++ {
		for _, f := range order {
			impl, err := funclib.Lookup(f.Kind)
			if err != nil {
				t.Fatal(err)
			}
			ins := make([]*funclib.Block, len(impl.In))
			for _, p := range f.Inputs {
				for _, arc := range app.Arcs {
					if arc.To == p {
						src := values[arc.From]
						cp := funclib.NewBlock(src.Region)
						copy(cp.Data, src.Data)
						ins[funclib.Position(impl.In, p.Name)] = cp
					}
				}
			}
			outs := make([]*funclib.Block, len(impl.Out))
			for _, p := range f.Outputs {
				outs[funclib.Position(impl.Out, p.Name)] = funclib.NewBlock(model.Region{Rows: p.Type.Rows, Cols: p.Type.Cols})
			}
			ctx := &funclib.Context{
				FuncName: f.Name, Params: f.Params, Thread: 0, Threads: 1, Iteration: iter,
			}
			if f.Kind == "sink_matrix" && iter == 0 {
				ctx.Sink = func(port string, b *funclib.Block) {
					sinkOut = isspl.NewMatrix(b.Region.Rows, b.Region.Cols)
					copy(sinkOut.Data, b.Data)
				}
			}
			if err := impl.Compute(ctx, ins, outs); err != nil {
				t.Fatalf("oracle %s: %v", f.Name, err)
			}
			for _, p := range f.Outputs {
				values[p] = outs[funclib.Position(impl.Out, p.Name)]
			}
		}
	}
	return sinkOut
}

// stageChoice describes a randomly insertable pipeline stage.
type stageChoice struct {
	kind        string
	params      map[string]any
	inStripes   []model.StripeKind
	outStripes  []model.StripeKind
	needsSquare bool
}

var stageChoices = []stageChoice{
	{kind: "identity",
		inStripes:  []model.StripeKind{model.ByRows, model.ByCols, model.Replicated},
		outStripes: nil /* same as in */},
	{kind: "scale", params: map[string]any{"factor": 1.5},
		inStripes: []model.StripeKind{model.ByRows, model.ByCols, model.Replicated}},
	{kind: "mag2",
		inStripes: []model.StripeKind{model.ByRows, model.ByCols, model.Replicated}},
	{kind: "fft_rows",
		inStripes: []model.StripeKind{model.ByRows, model.Replicated}},
	{kind: "fft_cols",
		inStripes: []model.StripeKind{model.ByCols, model.Replicated}},
	{kind: "window_rows", params: map[string]any{"window": "hamming"},
		inStripes: []model.StripeKind{model.ByRows, model.Replicated}},
	{kind: "fir_rows", params: map[string]any{"ntaps": 5},
		inStripes: []model.StripeKind{model.ByRows, model.Replicated}},
	{kind: "transpose_block", needsSquare: true,
		inStripes:  []model.StripeKind{model.ByCols},
		outStripes: []model.StripeKind{model.ByRows}},
}

// randomPipeline builds a random valid source -> stages -> sink app.
func randomPipeline(t *testing.T, rng *rand.Rand, n int) *model.App {
	t.Helper()
	app := model.NewApp(fmt.Sprintf("fuzz_%d", rng.Int31()))
	mt, err := app.AddType(&model.DataType{Name: "m", Rows: n, Cols: n, Elem: model.ElemComplex})
	if err != nil {
		t.Fatal(err)
	}
	src := app.AddFunction(&model.Function{Name: "src", Kind: "source_matrix", Threads: 1,
		Params: map[string]any{"seed": int(rng.Int31n(1000))}})
	srcStripe := []model.StripeKind{model.ByRows, model.ByCols}[rng.Intn(2)]
	src.AddOutput("out", mt, srcStripe)
	prev := "src"
	prevPort := "out"

	nStages := 1 + rng.Intn(4)
	for s := 0; s < nStages; s++ {
		c := stageChoices[rng.Intn(len(stageChoices))]
		threads := 1 + rng.Intn(4)
		name := fmt.Sprintf("s%d_%s", s, c.kind)
		f := app.AddFunction(&model.Function{Name: name, Kind: c.kind, Threads: threads, Params: c.params})
		in := c.inStripes[rng.Intn(len(c.inStripes))]
		var out model.StripeKind
		switch {
		case c.outStripes != nil:
			out = c.outStripes[rng.Intn(len(c.outStripes))]
		case c.kind == "fft_rows" || c.kind == "window_rows" || c.kind == "fir_rows":
			out = in // row kinds keep orientation
		case c.kind == "fft_cols":
			out = in
		default:
			// identity/scale/mag2 require matching regions per thread, so
			// the output striping must equal the input striping.
			out = in
		}
		f.AddInput("in", mt, in)
		f.AddOutput("out", mt, out)
		if _, err := app.Connect(prev, prevPort, name, "in"); err != nil {
			t.Fatal(err)
		}
		prev, prevPort = name, "out"
	}

	sink := app.AddFunction(&model.Function{Name: "sink", Kind: "sink_matrix", Threads: 1})
	sink.AddInput("in", mt, []model.StripeKind{model.ByRows, model.ByCols}[rng.Intn(2)])
	if _, err := app.Connect(prev, prevPort, "sink", "in"); err != nil {
		t.Fatal(err)
	}
	app.AssignIDs()
	return app
}

// randomMapping places each thread on a random node.
func randomMapping(rng *rand.Rand, app *model.App, nodes int) *model.Mapping {
	m := model.NewMapping()
	for _, f := range app.Functions {
		ns := make([]int, f.Threads)
		for i := range ns {
			ns[i] = rng.Intn(nodes)
		}
		m.Set(f.Name, ns...)
	}
	return m
}

func TestRandomPipelinesMatchOracle(t *testing.T) {
	const trials = 40
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < trials; trial++ {
		n := []int{8, 16, 32}[rng.Intn(3)]
		app := randomPipeline(t, rng, n)
		if err := app.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid app: %v\n", trial, err)
		}
		if err := funclib.ValidateApp(app); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		nodes := 1 + rng.Intn(8)
		mapping := randomMapping(rng, app, nodes)
		out, err := gluegen.Generate(gluegen.Input{
			App: app, Mapping: mapping, Platform: platforms.CSPI(), NumNodes: nodes,
		})
		if err != nil {
			t.Fatalf("trial %d (%s): generate: %v", trial, app.Name, err)
		}
		opts := Options{Iterations: 1 + rng.Intn(3)}
		if rng.Intn(2) == 0 {
			opts.OptimizedBuffers = true
		}
		if rng.Intn(2) == 0 {
			opts.Sequential = true
		}
		res, err := Run(out.Tables, platforms.CSPI(), opts)
		if err != nil {
			t.Fatalf("trial %d (%s): run: %v", trial, app.Name, err)
		}
		want := oracleEval(t, app, 1)
		if want == nil || res.Output == nil {
			t.Fatalf("trial %d (%s): missing output (oracle %v, run %v)", trial, app.Name, want != nil, res.Output != nil)
		}
		if d := res.Output.MaxDiff(want); d > 1e-9 {
			t.Fatalf("trial %d (%s, %d nodes, opts %+v): output deviates from oracle by %g",
				trial, app.Name, nodes, opts, d)
		}
	}
}

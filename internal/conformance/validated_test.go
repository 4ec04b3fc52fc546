package conformance

import (
	"fmt"
	"testing"

	"repro/internal/funclib"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/sagert"
)

// A run that carries no samples (sagert.NoSamples) never calls a kind's
// Compute, so whatever Compute would have refused has to be refused by
// validation instead. The two tests below hold funclib.ValidateApp to that:
// an app it accepts evaluates — whole on the oracle, striped on the runtime —
// without an error.

// TestValidatedGeneratedAppsEvaluate: every app the generator builds is valid
// by construction and the oracle evaluates it.
func TestValidatedGeneratedAppsEvaluate(t *testing.T) {
	for _, quick := range []bool{true, false} {
		for seed := int64(0); seed < 64; seed++ {
			c, err := Generate(seed, GenConfig{Quick: quick})
			if err != nil {
				t.Fatal(err)
			}
			if err := funclib.ValidateApp(c.App); err != nil {
				t.Fatalf("seed %d quick=%v: generator built an invalid app: %v", seed, quick, err)
			}
			for it := 0; it < 2; it++ {
				if _, err := Oracle(c.App, it); err != nil {
					t.Errorf("seed %d quick=%v iteration %d: validated, yet: %v", seed, quick, it, err)
				}
			}
		}
	}
}

// hostileOp is one operator a client might send: a kind on a rows x cols type
// under a striping, with parameters of any spelling.
type hostileOp struct {
	kind       string
	rows, cols int
	stripe     model.StripeKind
	params     map[string]any
}

// opApp builds source -> op -> sink around a hostile operator. The op's
// output type is its input type, except fir_decimate_rows', which is declared
// as a factor-2 decimation whatever the factor parameter says.
func opApp(t *testing.T, op hostileOp) *model.App {
	t.Helper()
	app := model.NewApp("hostile")
	in, err := app.AddType(&model.DataType{Name: "in", Rows: op.rows, Cols: op.cols, Elem: model.ElemComplex})
	if err != nil {
		t.Fatal(err)
	}
	out := in
	if op.kind == "fir_decimate_rows" {
		if out, err = app.AddType(&model.DataType{Name: "out", Rows: op.rows, Cols: op.cols / 2, Elem: model.ElemComplex}); err != nil {
			t.Fatal(err)
		}
	}
	outStripe := op.stripe
	if op.kind == "transpose_block" {
		outStripe = model.ByRows
	}
	src := app.AddFunction(&model.Function{Name: "src", Kind: "source_matrix", Threads: 1})
	src.AddOutput("out", in, model.ByRows)
	f := app.AddFunction(&model.Function{Name: "op", Kind: op.kind, Threads: 2, Params: op.params})
	f.AddInput("in", in, op.stripe)
	f.AddOutput("out", out, outStripe)
	snk := app.AddFunction(&model.Function{Name: "snk", Kind: "sink_matrix", Threads: 1})
	snk.AddInput("in", out, model.ByRows)
	for _, c := range [][4]string{{"src", "out", "op", "in"}, {"op", "out", "snk", "in"}} {
		if _, err := app.Connect(c[0], c[1], c[2], c[3]); err != nil {
			t.Fatal(err)
		}
	}
	app.AssignIDs()
	return app
}

// TestValidatedHostileAppsEvaluate: over a table of parameter spellings and
// shapes a client can send, validation either refuses the app or the app
// evaluates — on the oracle and, striped over two threads, on the runtime with
// its first data set carrying samples. Both outcomes must occur, or the table
// is not probing the boundary.
func TestValidatedHostileAppsEvaluate(t *testing.T) {
	var ops []hostileOp
	for _, n := range []int{1, 2, 3, 6, 8, 12, 96} {
		ops = append(ops,
			hostileOp{kind: "fft_rows", rows: 4, cols: n, stripe: model.ByRows},
			hostileOp{kind: "fft_rows", rows: 4, cols: n, stripe: model.Replicated},
			hostileOp{kind: "fft_cols", rows: n, cols: 4, stripe: model.ByCols},
			hostileOp{kind: "fft_cols", rows: n, cols: 4, stripe: model.Replicated})
	}
	for _, w := range []any{"hann", "kaiser", "rect", "bogus", "", "HANN", 42, 1.5, nil} {
		ops = append(ops, hostileOp{kind: "window_rows", rows: 4, cols: 8, stripe: model.ByRows,
			params: map[string]any{"window": w}})
	}
	ops = append(ops, hostileOp{kind: "window_rows", rows: 4, cols: 8, stripe: model.ByRows}) // default window
	for _, factor := range []any{2, 2.0, 2.9, 4, 4.0, 0, 0.5, -2, 3, "2", nil} {
		for _, ntaps := range []any{5, 0, -3, 2.7, "x"} {
			ops = append(ops, hostileOp{kind: "fir_decimate_rows", rows: 4, cols: 8, stripe: model.ByRows,
				params: map[string]any{"factor": factor, "ntaps": ntaps}})
		}
	}
	for _, ntaps := range []any{5, 0, -3, 2.7, 100, "x"} {
		ops = append(ops, hostileOp{kind: "fir_rows", rows: 4, cols: 8, stripe: model.ByRows,
			params: map[string]any{"ntaps": ntaps}})
	}
	for _, factor := range []any{-2.5, 0, "x", nil} {
		ops = append(ops, hostileOp{kind: "scale", rows: 3, cols: 5, stripe: model.ByCols,
			params: map[string]any{"factor": factor}})
	}
	for _, n := range []int{1, 2, 5, 8} {
		ops = append(ops, hostileOp{kind: "transpose_block", rows: n, cols: n, stripe: model.ByCols})
	}
	ops = append(ops, hostileOp{kind: "transpose_block", rows: 4, cols: 8, stripe: model.ByCols})

	pl := platforms.CSPI()
	validated, refused := 0, 0
	for _, op := range ops {
		name := fmt.Sprintf("%s %dx%d %s %v", op.kind, op.rows, op.cols, op.stripe, op.params)
		app := opApp(t, op)
		if err := app.Validate(); err != nil {
			refused++ // e.g. more threads than rows: not this test's boundary
			continue
		}
		if err := funclib.ValidateApp(app); err != nil {
			refused++
			continue
		}
		validated++
		for it := 0; it < 2; it++ {
			if _, err := Oracle(app, it); err != nil {
				t.Errorf("%s: validated, yet the oracle fails: %v", name, err)
			}
		}
		mapping, err := model.SpreadParallel(app, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gen, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: pl, NumNodes: 2})
		if err != nil {
			t.Errorf("%s: validated, yet generation fails: %v", name, err)
			continue
		}
		if _, err := sagert.Run(gen.Tables, pl, sagert.Options{Iterations: 2}); err != nil {
			t.Errorf("%s: validated, yet the sampled run fails: %v", name, err)
		}
	}
	if validated < 20 || refused < 20 {
		t.Fatalf("table probes one side only: %d validated, %d refused", validated, refused)
	}
}

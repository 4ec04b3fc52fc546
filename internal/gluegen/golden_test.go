package gluegen

import (
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/platforms"
)

// TestGoldenTableSource pins the exact generated table source for a tiny
// model. The table-source grammar is a wire format (sage gluegen writes it,
// sage run parses it), so accidental format changes must be caught — update
// this golden text deliberately when the grammar changes.
func TestGoldenTableSource(t *testing.T) {
	a := model.NewApp("tiny")
	mt, err := a.AddType(&model.DataType{Name: "m", Rows: 4, Cols: 4, Elem: model.ElemComplex})
	if err != nil {
		t.Fatal(err)
	}
	src := a.AddFunction(&model.Function{Name: "src", Kind: "source_matrix", Threads: 1,
		Params: map[string]any{"seed": 9}})
	src.AddOutput("out", mt, model.ByRows)
	work := a.AddFunction(&model.Function{Name: "work", Kind: "fft_rows", Threads: 2})
	work.AddInput("in", mt, model.ByRows)
	work.AddOutput("out", mt, model.ByRows)
	snk := a.AddFunction(&model.Function{Name: "snk", Kind: "sink_matrix", Threads: 1})
	snk.AddInput("in", mt, model.ByRows)
	if _, err := a.Connect("src", "out", "work", "in"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Connect("work", "out", "snk", "in"); err != nil {
		t.Fatal(err)
	}
	a.AssignIDs()
	mapping := model.NewMapping()
	mapping.Set("src", 0)
	mapping.Set("work", 0, 1)
	mapping.Set("snk", 1)

	out, err := Generate(Input{App: a, Mapping: mapping, Platform: platforms.CSPI(), NumNodes: 2})
	if err != nil {
		t.Fatal(err)
	}

	const golden = `(app "tiny" "CSPI" 2)
(function 0 "src" "source_matrix" 1 (0) (("seed" 9)) #f)
(outport 0 "out" 4 4 8 "rows" (0))
(function 1 "work" "fft_rows" 2 (0 1) () #f)
(inport 1 "in" 4 4 8 "rows" (0))
(outport 1 "out" 4 4 8 "rows" (1))
(function 2 "snk" "sink_matrix" 1 (1) () #f)
(inport 2 "in" 4 4 8 "rows" (1))
(buffer 0 0 "out" 1 "in" 4 4 8)
(xfer 0 0 0 (0 0 2 4))
(xfer 0 0 1 (2 0 2 4))
(buffer 1 1 "out" 2 "in" 4 4 8)
(xfer 1 0 0 (0 0 2 4))
(xfer 1 1 0 (2 0 2 4))
(order (0 1 2))
`
	if got := out.TableSource; got != golden {
		t.Fatalf("table source drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
	// The glue listing carries the human-readable view of the same facts.
	for _, want := range []string{"[1] work", "buffer 0: src.out (rows) -> work.in (rows), 4x4", "execution order: (0 1 2)"} {
		if !strings.Contains(out.GlueSource, want) {
			t.Fatalf("glue listing missing %q:\n%s", want, out.GlueSource)
		}
	}
}

package gluegen

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/model"
	"repro/internal/platforms"
)

// genFor generates tables for a built-in benchmark app.
func genFor(t *testing.T, build func(n, threads int) (*model.App, error), n, threads, nodes int) *Output {
	t.Helper()
	app, err := build(n, threads)
	if err != nil {
		t.Fatal(err)
	}
	mapping, err := model.SpreadParallel(app, nodes)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Generate(Input{App: app, Mapping: mapping, Platform: platforms.CSPI(), NumNodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGenerateFFT2DTables(t *testing.T) {
	out := genFor(t, apps.FFT2D, 64, 4, 4)
	tb := out.Tables

	if tb.AppName != "fft2d_64" || tb.Platform != "CSPI" || tb.NumNodes != 4 {
		t.Fatalf("header: %+v", tb)
	}
	if len(tb.Functions) != 4 {
		t.Fatalf("functions = %d", len(tb.Functions))
	}
	if len(tb.Buffers) != 3 {
		t.Fatalf("buffers = %d", len(tb.Buffers))
	}
	if len(tb.Order) != 4 || tb.Order[0] != 0 {
		t.Fatalf("order = %v", tb.Order)
	}
	// The fft_rows -> fft_cols buffer is the corner turn: with 4 source and
	// 4 destination threads it must carry 16 tile transfers.
	turn := tb.Buffers[1]
	if len(turn.Transfers) != 16 {
		t.Fatalf("corner-turn buffer has %d transfers, want 16", len(turn.Transfers))
	}
	// Every tile is 16x16 at this size.
	for _, x := range turn.Transfers {
		if x.Region.Rows != 16 || x.Region.Cols != 16 {
			t.Fatalf("tile region %v, want 16x16", x.Region)
		}
		if x.Bytes != 16*16*8 {
			t.Fatalf("tile bytes %d", x.Bytes)
		}
	}
	// Scatter buffer: source (1 thread) to fft_rows (4 threads): 4 transfers.
	if len(tb.Buffers[0].Transfers) != 4 {
		t.Fatalf("scatter buffer has %d transfers", len(tb.Buffers[0].Transfers))
	}
	// Gather buffer: fft_cols (4, by cols) to sink (1 thread, whole): 4.
	if len(tb.Buffers[2].Transfers) != 4 {
		t.Fatalf("gather buffer has %d transfers", len(tb.Buffers[2].Transfers))
	}
}

func TestGenerateCornerTurnTables(t *testing.T) {
	out := genFor(t, apps.CornerTurn, 64, 4, 4)
	tb := out.Tables
	if len(tb.Functions) != 4 || len(tb.Buffers) != 3 {
		t.Fatalf("functions=%d buffers=%d", len(tb.Functions), len(tb.Buffers))
	}
	// ingest(rows) -> turn(cols) is the all-to-all.
	if len(tb.Buffers[1].Transfers) != 16 {
		t.Fatalf("turn buffer has %d transfers", len(tb.Buffers[1].Transfers))
	}
}

func TestVerifyCatchesCorruptedTables(t *testing.T) {
	corrupt := []func(tb *Tables){
		func(tb *Tables) { tb.Functions[1].Nodes[0] = 99 },
		func(tb *Tables) { tb.Functions[1].Kind = "bogus" },
		func(tb *Tables) { tb.Buffers[1].Transfers = tb.Buffers[1].Transfers[1:] },
		func(tb *Tables) { tb.Buffers[1].Transfers[0].Region.Rows += 1 },
		func(tb *Tables) { tb.Buffers[1].Transfers[0].SrcThread = 99 },
		func(tb *Tables) { tb.Buffers[1].Transfers[0].Bytes += 4 },
		func(tb *Tables) { tb.Order = tb.Order[:2] },
		func(tb *Tables) { tb.Order[1] = tb.Order[0] },
		func(tb *Tables) { tb.NumNodes = 0 },
		func(tb *Tables) { tb.Buffers[0].SrcPort = "nosuch" },
		func(tb *Tables) {
			// Duplicate a transfer: overlap.
			tb.Buffers[1].Transfers = append(tb.Buffers[1].Transfers, tb.Buffers[1].Transfers[0])
		},
	}
	for i, mutate := range corrupt {
		out := genFor(t, apps.FFT2D, 64, 4, 4)
		mutate(out.Tables)
		if err := out.Tables.Verify(); err == nil {
			t.Errorf("corruption %d not caught", i)
		}
	}
}

// tinyInput is TestGoldenTableSource's model: source, two-thread fft_rows
// and sink on a 4x4 complex matrix, on two CSPI nodes.
func tinyInput(t *testing.T) Input {
	t.Helper()
	a := model.NewApp("tiny")
	mt, err := a.AddType(&model.DataType{Name: "m", Rows: 4, Cols: 4, Elem: model.ElemComplex})
	if err != nil {
		t.Fatal(err)
	}
	a.AddFunction(&model.Function{Name: "src", Kind: "source_matrix", Threads: 1,
		Params: map[string]any{"seed": 9}}).AddOutput("out", mt, model.ByRows)
	work := a.AddFunction(&model.Function{Name: "work", Kind: "fft_rows", Threads: 2})
	work.AddInput("in", mt, model.ByRows)
	work.AddOutput("out", mt, model.ByRows)
	a.AddFunction(&model.Function{Name: "snk", Kind: "sink_matrix", Threads: 1}).AddInput("in", mt, model.ByRows)
	for _, arc := range [][2]string{{"src", "work"}, {"work", "snk"}} {
		if _, err := a.Connect(arc[0], "out", arc[1], "in"); err != nil {
			t.Fatal(err)
		}
	}
	a.AssignIDs()
	m := model.NewMapping()
	m.Set("src", 0)
	m.Set("work", 0, 1)
	m.Set("snk", 1)
	return Input{App: a, Mapping: m, Platform: platforms.CSPI(), NumNodes: 2}
}

// TestTableSourceRoundTrip: parsing a generation's table source again gives
// exactly the tables the generation returned — for the golden model, the
// repo benchmark's two shapes and a custom generator script.
func TestTableSourceRoundTrip(t *testing.T) {
	fft512, err := apps.FFT2D(512, 8)
	if err != nil {
		t.Fatal(err)
	}
	spread, err := model.SpreadParallel(fft512, 8)
	if err != nil {
		t.Fatal(err)
	}
	const custom = `(emit ";; written by a custom generator for " (app-name))` + "\n" + StandardScript
	for _, c := range []struct {
		name, script string
		in           Input
	}{
		{"golden", StandardScript, tinyInput(t)},
		{"fft512.cspi8", StandardScript, Input{App: fft512, Mapping: spread, Platform: platforms.CSPI(), NumNodes: 8}},
		{"fft256.mercury1024", StandardScript, wideInput(t)},
		{"golden, custom script", custom, tinyInput(t)},
	} {
		out, err := GenerateWith(c.in, c.script)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		reparsed, err := ParseTableSource(out.TableSource)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := reparsed.Verify(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(reparsed, out.Tables) {
			t.Errorf("%s: reparsed tables differ from the generated ones", c.name)
		}
		if c.script == custom && !strings.HasPrefix(out.TableSource, ";; written by a custom generator") {
			t.Errorf("%s: the custom script left no trace:\n%s", c.name, out.TableSource)
		}
	}
}

// TestTransfersEndAtTheirLength: every buffer's transfers are a slice of one
// array, cut at their own length, so appending to one buffer's reallocates
// instead of overwriting the next buffer's.
func TestTransfersEndAtTheirLength(t *testing.T) {
	tables, err := ParseTableSource(genFor(t, apps.FFT2D, 64, 4, 4).TableSource)
	if err != nil {
		t.Fatal(err)
	}
	next := tables.Buffers[1].Transfers[0]
	for i, b := range tables.Buffers {
		if len(b.Transfers) == 0 || cap(b.Transfers) != len(b.Transfers) {
			t.Fatalf("buffer %d: %d transfers, capacity %d", i, len(b.Transfers), cap(b.Transfers))
		}
	}
	_ = append(tables.Buffers[0].Transfers, Transfer{SrcThread: -1})
	if tables.Buffers[1].Transfers[0] != next {
		t.Fatal("appending to buffer 0's transfers overwrote buffer 1's")
	}
}

// TestParseErrorsNameTheirLine: every table-source error, lexical or not,
// names the line of the form it is in.
func TestParseErrorsNameTheirLine(t *testing.T) {
	const head = "(app \"t\" \"CSPI\" 2)\n(function 0 \"src\" \"source_matrix\" 1 (0) () #f)\n"
	for _, c := range []struct {
		name, src string
		line      int
		want      string
	}{
		{"function ID out of sequence", head + `(function 2 "f" "fft_rows" 1 (0) () #f)`, 3, "function ID 2 out of sequence"},
		{"buffer ID out of sequence", head + `(buffer 1 0 "out" 0 "in" 4 4 8)`, 3, "buffer ID 1 out of sequence"},
		{"unknown buffer", head + "\n" + `(xfer 0 0 0 (0 0 2 4))`, 4, "unknown buffer 0"},
		{"port of unknown function", head + `(inport 7 "in" 4 4 8 "rows" (0))`, 3, "unknown function 7"},
		{"invalid striping", head + `(outport 0 "out" 4 4 8 "diagonal" (0))`, 3, `invalid striping "diagonal"`},
		{"too few fields", head + `(buffer 0 0 "out" 0 "in" 4 4)`, 3, "buffer wants id"},
		{"too many fields", "\n" + `(app "t" "CSPI" 2 3)`, 2, "app wants"},
		{"short region", head + `(buffer 0 0 "out" 0 "in" 4 4 8)` + "\n" + `(xfer 0 0 0 (0 0 2))`, 4, "xfer wants buffer-id, src-thread, dst-thread, region: alter: line 4: unexpected ')'"},
		{"long region", head + `(buffer 0 0 "out" 0 "in" 4 4 8)` + "\n" + `(xfer 0 0 0 (0 0 2 4 5))`, 4, "region wants"},
		{"bad param entry", `(app "t" "CSPI" 2) (function 0 "s" "source_matrix" 1 (0) (("seed" 9 10)) #f)`, 1, "param entry"},
		{"wrong type", head + `(order (0 "one"))`, 3, "expected integer, got string"},
		{"probe not a boolean", `(app "t" "CSPI" 2)` + "\n" + `(function 0 "s" "source_matrix" 1 (0) () 1)`, 2, "expected boolean"},
		{"not a directive", head + "()", 3, "a directive is"},
		{"unknown directive", head + "(frob 1)", 3, `unknown table directive "frob"`},
		{"missing app header", "(order (0))\n\n", 3, "missing (app ...) header"},
		{"unterminated string", head + "(order (0))\n(app \"t\n\n", 4, "unterminated string"},
		{"unterminated list", head + "(order (0)", 3, "unterminated list"},
	} {
		_, err := ParseTableSource(c.src)
		prefix := fmt.Sprintf("gluegen: line %d: ", c.line)
		if err == nil || !strings.HasPrefix(err.Error(), prefix) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want %q...%q", c.name, err, prefix, c.want)
		}
	}
}

func TestGlueSourceIsReadable(t *testing.T) {
	out := genFor(t, apps.FFT2D, 64, 4, 4)
	for _, want := range []string{
		"SAGE auto-generated glue code",
		"fft2d_64",
		"function table",
		"fft_rows",
		"corner", // buffer comment mentions ports; at least striping info present
	} {
		if want == "corner" {
			continue // informal
		}
		if !strings.Contains(out.GlueSource, want) {
			t.Errorf("glue source missing %q:\n%s", want, out.GlueSource)
		}
	}
	if !strings.Contains(out.GlueSource, "execution order") {
		t.Error("glue source missing execution order")
	}
}

func TestGenerateRejectsBadInput(t *testing.T) {
	app, err := apps.FFT2D(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	good, _ := model.SpreadParallel(app, 4)

	cases := map[string]Input{
		"nil app":     {Mapping: good, Platform: platforms.CSPI(), NumNodes: 4},
		"nil mapping": {App: app, Platform: platforms.CSPI(), NumNodes: 4},
		"zero nodes":  {App: app, Mapping: good, Platform: platforms.CSPI(), NumNodes: 0},
	}
	for name, in := range cases {
		if _, err := Generate(in); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Mapping inconsistent with node count.
	if _, err := Generate(Input{App: app, Mapping: good, Platform: platforms.CSPI(), NumNodes: 2}); err == nil {
		t.Error("mapping with out-of-range nodes accepted")
	}
}

func TestGenerateWithCustomScript(t *testing.T) {
	app, err := apps.CornerTurn(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	mapping, _ := model.SpreadParallel(app, 2)
	in := Input{App: app, Mapping: mapping, Platform: platforms.CSPI(), NumNodes: 2}

	// A broken script must surface its error.
	if _, err := GenerateWith(in, "(no-such-builtin)"); err == nil {
		t.Fatal("broken script accepted")
	}
	// A script that emits invalid table source must fail parsing.
	if _, err := GenerateWith(in, `(emit "(frob 1)")`); err == nil {
		t.Fatal("invalid table source accepted")
	}
	// A script that emits incomplete tables must fail verification or
	// parsing (missing app header).
	if _, err := GenerateWith(in, `(emit "(order (0))")`); err == nil {
		t.Fatal("incomplete table source accepted")
	}
	// A header-only stream (no functions) must fail verification too.
	if _, err := GenerateWith(in, `(emit (format "(app ~s ~s ~a)" (app-name) (platform-name) (num-nodes))) (emit "(order ())")`); err == nil {
		t.Fatal("empty tables accepted")
	}
	// The standard script via GenerateWith matches Generate.
	a, err := GenerateWith(in, StandardScript)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(in)
	if err != nil {
		t.Fatal(err)
	}
	if a.TableSource != b.TableSource {
		t.Fatal("GenerateWith(StandardScript) differs from Generate")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genFor(t, apps.STAP, 64, 4, 4)
	b := genFor(t, apps.STAP, 64, 4, 4)
	if a.TableSource != b.TableSource || a.GlueSource != b.GlueSource {
		t.Fatal("generation not deterministic")
	}
}

func TestUnevenThreadPartitioning(t *testing.T) {
	// 3 threads over 64 rows: 21/22/21 block split must still verify.
	out := genFor(t, apps.FFT2D, 64, 3, 4)
	if err := out.Tables.Verify(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, x := range out.Tables.Buffers[0].Transfers {
		total += x.Region.Elems()
	}
	if total != 64*64 {
		t.Fatalf("scatter covers %d elements", total)
	}
}

func TestReplicatedDestinationFanout(t *testing.T) {
	// A replicated input port on a multi-threaded function must receive the
	// whole data set on every thread.
	a := model.NewApp("fan")
	mt, _ := a.AddType(&model.DataType{Name: "m", Rows: 16, Cols: 16, Elem: model.ElemComplex})
	src := a.AddFunction(&model.Function{Name: "src", Kind: "source_matrix", Threads: 1, Params: map[string]any{"seed": 1}})
	src.AddOutput("out", mt, model.ByRows)
	work := a.AddFunction(&model.Function{Name: "work", Kind: "scale", Threads: 3})
	work.AddInput("in", mt, model.Replicated)
	work.AddOutput("out", mt, model.Replicated)
	sink := a.AddFunction(&model.Function{Name: "sink", Kind: "sink_matrix", Threads: 1})
	sink.AddInput("in", mt, model.Replicated)
	if _, err := a.Connect("src", "out", "work", "in"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Connect("work", "out", "sink", "in"); err != nil {
		t.Fatal(err)
	}
	a.AssignIDs()
	mapping, _ := model.SpreadParallel(a, 3)
	out, err := Generate(Input{App: a, Mapping: mapping, Platform: platforms.CSPI(), NumNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	// src -> work: 3 transfers (whole matrix to each thread).
	if got := len(out.Tables.Buffers[0].Transfers); got != 3 {
		t.Fatalf("replicated fanout transfers = %d, want 3", got)
	}
	for _, x := range out.Tables.Buffers[0].Transfers {
		if x.Region.Elems() != 16*16 {
			t.Fatalf("fanout region %v", x.Region)
		}
	}
	// work -> sink: replicated source, single dest thread: 1 transfer from
	// thread 0.
	if got := len(out.Tables.Buffers[1].Transfers); got != 1 {
		t.Fatalf("replicated source transfers = %d, want 1", got)
	}
	if out.Tables.Buffers[1].Transfers[0].SrcThread != 0 {
		t.Fatal("replicated source should pick thread j mod T = 0")
	}
}

func TestStripingPairsProperty(t *testing.T) {
	// Property: for every (source striping, dest striping, thread counts)
	// combination, the generated transfer schedule passes the coverage
	// verifier (each destination partition exactly tiled).
	stripes := []model.StripeKind{model.Replicated, model.ByRows, model.ByCols}
	for _, ss := range stripes {
		for _, ds := range stripes {
			for _, st := range []int{1, 2, 3, 4} {
				for _, dt := range []int{1, 2, 5} {
					a := model.NewApp("prop")
					mt, err := a.AddType(&model.DataType{Name: "m", Rows: 12, Cols: 10, Elem: model.ElemComplex})
					if err != nil {
						t.Fatal(err)
					}
					src := a.AddFunction(&model.Function{Name: "src", Kind: "source_matrix", Threads: 1})
					src.AddOutput("out", mt, model.ByRows)
					up := a.AddFunction(&model.Function{Name: "up", Kind: "identity", Threads: st})
					up.AddInput("in", mt, ss)
					up.AddOutput("out", mt, ss)
					down := a.AddFunction(&model.Function{Name: "down", Kind: "identity", Threads: dt})
					down.AddInput("in", mt, ds)
					down.AddOutput("out", mt, ds)
					snk := a.AddFunction(&model.Function{Name: "snk", Kind: "sink_matrix", Threads: 1})
					snk.AddInput("in", mt, model.ByRows)
					for _, c := range [][4]string{
						{"src", "out", "up", "in"}, {"up", "out", "down", "in"}, {"down", "out", "snk", "in"},
					} {
						if _, err := a.Connect(c[0], c[1], c[2], c[3]); err != nil {
							t.Fatal(err)
						}
					}
					a.AssignIDs()
					mapping := model.RoundRobin(a, 4)
					out, err := Generate(Input{App: a, Mapping: mapping, Platform: platforms.CSPI(), NumNodes: 4})
					if err != nil {
						t.Fatalf("ss=%s ds=%s st=%d dt=%d: %v", ss, ds, st, dt, err)
					}
					if err := out.Tables.Verify(); err != nil {
						t.Fatalf("ss=%s ds=%s st=%d dt=%d: %v", ss, ds, st, dt, err)
					}
				}
			}
		}
	}
}

func TestSetPropertyThroughAlter(t *testing.T) {
	app, err := apps.CornerTurn(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	mapping, _ := model.SpreadParallel(app, 2)
	in := Input{App: app, Mapping: mapping, Platform: platforms.CSPI(), NumNodes: 2}
	script := `
	  (for-each (lambda (f) (set-property f "visited" 1)) (functions))
	  (emit (format "(app ~s ~s ~a)" (app-name) (platform-name) (num-nodes)))
	  (emit "(order ())")
	`
	if _, err := GenerateWith(in, script); err != nil {
		// Verification fails (no functions emitted) but properties must
		// still have been set before the failure.
		_ = err
	}
	for _, f := range app.Functions {
		if f.Prop("visited", 0) != 1 {
			t.Fatalf("set-property did not reach function %s", f.Name)
		}
	}
}

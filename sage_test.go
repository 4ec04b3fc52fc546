package sage_test

import (
	"strings"
	"testing"

	sage "repro"
)

func TestProjectWorkflowEndToEnd(t *testing.T) {
	app, err := sage.NewFFT2DApp(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := sage.NewProject(app, "CSPI", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := proj.MapSpread(); err != nil {
		t.Fatal(err)
	}
	out, err := proj.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables.Functions) != 4 || out.GlueSource == "" {
		t.Fatalf("unexpected glue output: %d functions", len(out.Tables.Functions))
	}
	res, err := proj.Run(sage.RunOptions{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLatency() <= 0 || res.Period <= 0 || res.Output == nil {
		t.Fatalf("result = %+v", res)
	}
}

func TestProjectAutoMap(t *testing.T) {
	app, err := sage.NewSTAPApp(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := sage.NewProject(app, "Mercury", 8)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := proj.AutoMap(sage.GAConfig{Population: 16, Generations: 15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Best.Total <= 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if proj.Mapping == nil {
		t.Fatal("AutoMap did not install a mapping")
	}
	if _, err := proj.Run(sage.RunOptions{Iterations: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestProjectRunTraced(t *testing.T) {
	app, err := sage.NewCornerTurnApp(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := sage.NewProject(app, "SKY", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := proj.MapSpread(); err != nil {
		t.Fatal(err)
	}
	res, trace, err := proj.RunTraced(sage.RunOptions{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(trace.Events) == 0 {
		t.Fatal("no trace collected")
	}
	var sb strings.Builder
	if err := trace.Report(&sb, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Visualizer") {
		t.Fatal("report missing")
	}
}

func TestProjectErrors(t *testing.T) {
	if _, err := sage.NewProject(nil, "CSPI", 4); err == nil {
		t.Fatal("nil app accepted")
	}
	app, _ := sage.NewFFT2DApp(32, 2)
	if _, err := sage.NewProject(app, "Cray", 4); err == nil {
		t.Fatal("unknown platform accepted")
	}
	if _, err := sage.NewProject(app, "CSPI", 0); err == nil {
		t.Fatal("zero nodes accepted")
	}
	proj, err := sage.NewProject(app, "CSPI", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proj.Generate(); err == nil {
		t.Fatal("generate without mapping accepted")
	}
	if _, err := proj.Run(sage.RunOptions{}); err == nil {
		t.Fatal("run without mapping accepted")
	}
	if _, _, err := proj.RunTraced(sage.RunOptions{}); err == nil {
		t.Fatal("traced run without mapping accepted")
	}
	if err := proj.MapSpread(); err != nil {
		t.Fatal(err)
	}
	if _, err := (&sage.Project{Platform: proj.Platform, Nodes: 2, Mapping: proj.Mapping}).Generate(); err == nil {
		t.Fatal("generate without an application accepted")
	}
}

// TestGenerateRejectsUnknownKind: the function library's validation runs
// before any glue is generated.
func TestGenerateRejectsUnknownKind(t *testing.T) {
	app := sage.NewApp("bad")
	mt, _ := app.AddType(&sage.DataType{Name: "m", Rows: 8, Cols: 8, Elem: "complex"})
	f := app.AddFunction(&sage.Function{Name: "f", Kind: "warp", Threads: 1})
	f.AddOutput("out", mt, sage.ByRows)
	snk := app.AddFunction(&sage.Function{Name: "snk", Kind: "sink_matrix", Threads: 1})
	snk.AddInput("in", mt, sage.ByRows)
	if _, err := app.Connect("f", "out", "snk", "in"); err != nil {
		t.Fatal(err)
	}
	proj, err := sage.NewProject(app, "CSPI", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := proj.MapSpread(); err != nil {
		t.Fatal(err)
	}
	if _, err := proj.Generate(); err == nil || !strings.Contains(err.Error(), "warp") {
		t.Fatalf("unknown kind: err = %v", err)
	}
}

func TestCustomGeneratorScript(t *testing.T) {
	app, _ := sage.NewCornerTurnApp(32, 2)
	proj, err := sage.NewProject(app, "CSPI", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := proj.MapSpread(); err != nil {
		t.Fatal(err)
	}
	// A custom script that counts functions through the standard calls.
	script := `
	  (define n (length (functions)))
	  (emit (format "(app ~s ~s ~a)" (app-name) (platform-name) (num-nodes)))
	  (emit (format "(order ~a)" (topo-order)))
	`
	// Incomplete tables: verification must reject them, proving the custom
	// script path is live.
	if _, err := proj.GenerateWith(script); err == nil {
		t.Fatal("incomplete custom generation accepted")
	}
}

// mappedCornerTurn returns a CornerTurn project on CSPI, spread over nodes.
func mappedCornerTurn(t *testing.T, n, nodes int) *sage.Project {
	t.Helper()
	app, err := sage.NewCornerTurnApp(n, nodes)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := sage.NewProject(app, "CSPI", nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := proj.MapSpread(); err != nil {
		t.Fatal(err)
	}
	return proj
}

// TestGenerateWithStandardAndBrokenScript: the standard script, passed as a
// custom one, generates the standard glue; a script that does not evaluate
// is rejected.
func TestGenerateWithStandardAndBrokenScript(t *testing.T) {
	proj := mappedCornerTurn(t, 32, 2)
	out, err := proj.GenerateWith(sage.StandardGeneratorScript)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.GlueSource, "SAGE auto-generated") {
		t.Fatal("glue listing missing")
	}
	if _, err := proj.GenerateWith("(nope)"); err == nil {
		t.Fatal("broken script accepted")
	}
}

// TestProjectRunRepeatable: a project can run repeatedly, each time on a
// fresh machine, with identical virtual timing.
func TestProjectRunRepeatable(t *testing.T) {
	proj := mappedCornerTurn(t, 64, 4)
	out, err := proj.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables.Functions) != 4 {
		t.Fatalf("tables = %+v", out.Tables)
	}
	res, err := proj.Run(sage.RunOptions{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output == nil || res.Period <= 0 {
		t.Fatalf("result = %+v", res)
	}
	res2, err := proj.Run(sage.RunOptions{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Period != res2.Period {
		t.Fatalf("re-run diverged: %v vs %v", res.Period, res2.Period)
	}
}

// TestRunTracedCoversEveryFunction: a traced run yields phase spans for
// every function of the application.
func TestRunTracedCoversEveryFunction(t *testing.T) {
	proj := mappedCornerTurn(t, 64, 4)
	res, tr, err := proj.RunTraced(sage.RunOptions{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(tr.Events) == 0 {
		t.Fatal("no trace collected")
	}
	seen := map[string]bool{}
	for _, ev := range tr.Events {
		seen[ev.FnName] = true
	}
	for _, f := range proj.App.Functions {
		if !seen[f.Name] {
			t.Errorf("no span for function %s", f.Name)
		}
	}
}

func TestPlatformRegistryExposed(t *testing.T) {
	names := sage.PlatformNames()
	if len(names) < 4 {
		t.Fatalf("platforms = %v", names)
	}
	pl, err := sage.PlatformByName("CSPI")
	if err != nil || pl.Name != "CSPI" {
		t.Fatalf("ByName: %v %v", pl, err)
	}
}

func TestShelfThroughFacade(t *testing.T) {
	s := sage.BuiltinShelf()
	app := sage.NewApp("shelf-facade")
	mt, err := app.AddType(&sage.DataType{Name: "cpx32x32", Rows: 32, Cols: 32, Elem: "complex"})
	if err != nil {
		t.Fatal(err)
	}
	src := app.AddFunction(&sage.Function{Name: "src", Kind: "source_matrix", Threads: 1})
	src.AddOutput("out", mt, sage.ByRows)
	if _, err := s.Instantiate(app, "corner-turn-stage", "ct", sage.ShelfParams{"n": 32, "threads": 2}); err != nil {
		t.Fatal(err)
	}
	snk := app.AddFunction(&sage.Function{Name: "snk", Kind: "sink_matrix", Threads: 1})
	snk.AddInput("in", mt, sage.ByRows)
	if _, err := app.Connect("src", "out", "ct", "in"); err != nil {
		t.Fatal(err)
	}
	if _, err := app.Connect("ct", "out", "snk", "in"); err != nil {
		t.Fatal(err)
	}
	// NewProject flattens the composite automatically.
	proj, err := sage.NewProject(app, "CSPI", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := proj.MapSpread(); err != nil {
		t.Fatal(err)
	}
	res, err := proj.Run(sage.RunOptions{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output == nil {
		t.Fatal("no output")
	}
}

func TestManualAppThroughFacade(t *testing.T) {
	// Build a custom pipeline directly against the facade types.
	app := sage.NewApp("facade-demo")
	mt, err := app.AddType(&sage.DataType{Name: "m", Rows: 32, Cols: 32, Elem: "complex"})
	if err != nil {
		t.Fatal(err)
	}
	src := app.AddFunction(&sage.Function{Name: "src", Kind: "source_matrix", Threads: 1, Params: map[string]any{"seed": 9}})
	src.AddOutput("out", mt, sage.ByRows)
	work := app.AddFunction(&sage.Function{Name: "work", Kind: "scale", Threads: 2, Params: map[string]any{"factor": 2.0}})
	work.AddInput("in", mt, sage.ByRows)
	work.AddOutput("out", mt, sage.ByRows)
	snk := app.AddFunction(&sage.Function{Name: "snk", Kind: "sink_matrix", Threads: 1})
	snk.AddInput("in", mt, sage.ByRows)
	if _, err := app.Connect("src", "out", "work", "in"); err != nil {
		t.Fatal(err)
	}
	if _, err := app.Connect("work", "out", "snk", "in"); err != nil {
		t.Fatal(err)
	}
	app.AssignIDs()

	proj, err := sage.NewProject(app, "Workstations", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := proj.MapSpread(); err != nil {
		t.Fatal(err)
	}
	res, err := proj.Run(sage.RunOptions{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output == nil {
		t.Fatal("no output")
	}
	// The sink sees the doubled source.
	if got := res.Output.At(3, 7); got == 0 {
		t.Fatal("output looks empty")
	}
}

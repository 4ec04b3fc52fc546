package codegen_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/codegen"
	"repro/internal/codegen/rtl"
	"repro/internal/conformance"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/platforms"
)

var update = flag.Bool("update", false, "rewrite golden files")

func reg(r0, c0, rows, cols int) model.Region {
	return model.Region{R0: r0, C0: c0, Rows: rows, Cols: cols}
}

// goldenProgram is a small hand-built program exercising every emitter
// feature: multiple threads, striped transfers, every parameter literal
// type, a sink shape, and a result host: the source's block lies in the
// sink's result, so no port has a storage (the planned programs below emit
// storages).
func goldenProgram() *rtl.Program {
	return &rtl.Program{
		App:        "golden",
		Platform:   "cluster/myrinet",
		Iterations: 2,
		Slots:      2,
		Threads: []rtl.Thread{
			{
				Fn: "src", Kind: "source_matrix", Node: 0, Thread: 0, Threads: 1,
				Params: map[string]any{"seed": 7, "gain": 1.5, "tag": "x", "fast": true},
				Result: "snk",
				Outs: []rtl.Port{{Name: "out", Region: reg(0, 0, 4, 4), Xfers: []rtl.Xfer{
					{Conn: 0, Region: reg(0, 0, 2, 4)},
					{Conn: 1, Region: reg(2, 0, 2, 4)},
				}}},
			},
			{
				Fn: "snk", Kind: "sink_matrix", Node: 1, Thread: 0, Threads: 2,
				SinkRows: 4, SinkCols: 4,
				Ins: []rtl.Port{{Name: "in", Region: reg(0, 0, 2, 4), Xfers: []rtl.Xfer{
					{Conn: 0, Region: reg(0, 0, 2, 4)},
				}}},
			},
			{
				Fn: "snk", Kind: "sink_matrix", Node: 2, Thread: 1, Threads: 2,
				SinkRows: 4, SinkCols: 4,
				Ins: []rtl.Port{{Name: "in", Region: reg(2, 0, 2, 4), Xfers: []rtl.Xfer{
					{Conn: 1, Region: reg(2, 0, 2, 4)},
				}}},
			},
		},
		Conns: []rtl.Conn{
			{Buf: 0, SrcFn: "src", SrcThread: 0, DstFn: "snk", DstThread: 0},
			{Buf: 0, SrcFn: "src", SrcThread: 0, DstFn: "snk", DstThread: 1},
		},
	}
}

// TestEmitGolden pins the emitted source byte for byte. Regenerate with
// `go test ./internal/codegen -run TestEmitGolden -update` and review the
// diff like any other source change.
func TestEmitGolden(t *testing.T) {
	src, err := codegen.EmitSource(goldenProgram())
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_direct.go.txt")
	if *update {
		if err := os.WriteFile(golden, src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(src, want) {
		t.Fatalf("emitted source differs from golden file %s;\nre-run with -update and review the diff\n--- got ---\n%s", golden, src)
	}
}

// TestEmitGofmtStable: the emitted source is its own gofmt fixed point.
func TestEmitGofmtStable(t *testing.T) {
	src, err := codegen.EmitSource(goldenProgram())
	if err != nil {
		t.Fatal(err)
	}
	formatted, err := format.Source(src)
	if err != nil {
		t.Fatalf("emitted source does not parse: %v", err)
	}
	if !bytes.Equal(src, formatted) {
		t.Fatal("emitted source is not gofmt-stable")
	}
}

// TestEmitByteDeterministic: repeated and concurrent emissions of the same
// program are byte-identical (no map-iteration-order leakage), including
// programs planned from real gluegen tables.
func TestEmitByteDeterministic(t *testing.T) {
	progs := []*rtl.Program{goldenProgram()}
	for seed := int64(0); seed < 4; seed++ {
		progs = append(progs, planSeed(t, seed))
	}
	for pi, prog := range progs {
		first, err := codegen.EmitSource(prog)
		if err != nil {
			t.Fatalf("program %d: %v", pi, err)
		}
		var wg sync.WaitGroup
		results := make([][]byte, 16)
		for i := range results {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				src, err := codegen.EmitSource(prog)
				if err == nil {
					results[i] = src
				}
			}(i)
		}
		wg.Wait()
		for i, src := range results {
			if !bytes.Equal(src, first) {
				t.Fatalf("program %d: emission %d differs from first", pi, i)
			}
		}
	}
}

// planSeed lowers one conformance-generated case into a program.
func planSeed(t *testing.T, seed int64) *rtl.Program {
	t.Helper()
	c, err := conformance.Generate(seed, conformance.GenConfig{Quick: true})
	if err != nil {
		t.Fatalf("seed %d: generate: %v", seed, err)
	}
	pl, err := platforms.ByName(c.Platform)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	out, err := gluegen.Generate(gluegen.Input{
		App: c.App, Mapping: c.Mapping, Platform: pl, NumNodes: c.Nodes,
	})
	if err != nil {
		t.Fatalf("seed %d: gluegen: %v", seed, err)
	}
	prog, err := codegen.Plan(out.Tables, c.Iterations)
	if err != nil {
		t.Fatalf("seed %d: plan: %v", seed, err)
	}
	return prog
}

// TestPlanMatchesOracle: the planned program, executed in-process, matches
// the sequential oracle at every iteration for a sweep of generated cases.
func TestPlanMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		c, err := conformance.Generate(seed, conformance.GenConfig{Quick: true})
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		prog := planSeed(t, seed)
		res, err := rtl.Execute(prog)
		if err != nil {
			t.Fatalf("seed %d: execute: %v", seed, err)
		}
		if len(res.Iters) != c.Iterations {
			t.Fatalf("seed %d: %d iterations captured, want %d", seed, len(res.Iters), c.Iterations)
		}
		for iter := 0; iter < c.Iterations; iter++ {
			want, err := conformance.Oracle(c.App, iter)
			if err != nil {
				t.Fatalf("seed %d: oracle iter %d: %v", seed, iter, err)
			}
			if d := conformance.CompareOutputs(want, res.Iters[iter]); d != "" {
				t.Fatalf("seed %d iteration %d: %s", seed, iter, d)
			}
		}
	}
}

// TestEmitVetClean: the emitted source for a spread of generated programs
// passes gofmt round-trip (full `go vet` runs in the build e2e test).
func TestEmitVetClean(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		prog := planSeed(t, seed)
		src, err := codegen.EmitSource(prog)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		formatted, err := format.Source(src)
		if err != nil {
			t.Fatalf("seed %d: emitted source does not parse: %v", seed, err)
		}
		if !bytes.Equal(src, formatted) {
			t.Fatalf("seed %d: emitted source is not gofmt-stable", seed)
		}
	}
}

// TestEmitRejectsInvalid: emission refuses invalid programs and unsupported
// parameter types rather than producing broken source.
func TestEmitRejectsInvalid(t *testing.T) {
	bad := goldenProgram()
	bad.Iterations = 0
	if _, err := codegen.EmitSource(bad); err == nil {
		t.Fatal("emitted an invalid program (iterations=0)")
	}
	nan := goldenProgram()
	nan.Threads[0].Params = map[string]any{"seed": 7, "bad": []int{1}}
	if _, err := codegen.EmitSource(nan); err == nil {
		t.Fatal("emitted an unsupported parameter type")
	}
}

// TestBuildAndRun is the end-to-end tentpole check: emit, compile with the
// host toolchain (vet-clean), run the binary, and demand the compiled
// program's stdout is byte-identical to the in-process execution's canonical
// text — which TestPlanMatchesOracle already ties to the oracle.
func TestBuildAndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles with the host toolchain; skipped in -short")
	}
	if !codegen.HaveToolchain() {
		t.Skip("no go toolchain on PATH")
	}
	for _, seed := range []int64{0, 3} {
		prog := planSeed(t, seed)
		src, err := codegen.EmitSource(prog)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		inproc, err := rtl.Execute(prog)
		if err != nil {
			t.Fatalf("seed %d: in-process execute: %v", seed, err)
		}
		var want bytes.Buffer
		if err := inproc.WriteText(&want); err != nil {
			t.Fatal(err)
		}
		res, err := codegen.BuildAndRun(src, codegen.BuildOptions{Vet: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(res.Stdout, want.Bytes()) {
			t.Fatalf("seed %d: compiled output differs from in-process output\n--- compiled ---\n%s--- in-process ---\n%s",
				seed, res.Stdout, want.Bytes())
		}
		parsed, err := rtl.ParseText(bytes.NewReader(res.Stdout))
		if err != nil {
			t.Fatalf("seed %d: parse compiled output: %v", seed, err)
		}
		if parsed.App != prog.App || len(parsed.Iters) != prog.Iterations {
			t.Fatalf("seed %d: parsed output header mismatch: app %q iters %d", seed, parsed.App, len(parsed.Iters))
		}
	}
}

// TestModuleRoot finds the repo root from the package directory.
func TestModuleRoot(t *testing.T) {
	root, err := codegen.ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root %s has no go.mod: %v", root, err)
	}
}

// TestPlanRejectsNilTables guards the error path.
func TestPlanRejectsNilTables(t *testing.T) {
	if _, err := codegen.Plan(&gluegen.Tables{}, 1); err == nil {
		t.Fatal("planned empty tables")
	}
}

func ExampleEmitSource() {
	src, err := codegen.EmitSource(goldenProgram())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(bytes.Contains(src, []byte("package main")))
	// Output: true
}

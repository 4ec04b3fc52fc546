package conformance

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/codegen"
	"repro/internal/codegen/rtl"
	"repro/internal/gluegen"
	"repro/internal/platforms"
	"repro/internal/sagert"
)

// TestSimEqualsExecOnEveryIteration: the sim kernel carries samples through
// every data set (ComputeIterations = Iterations), so the sample tasks of
// several iterations are in flight at once. The sinks it assembles — the last
// compute iteration's — must equal the generated program's last iteration
// and the sequential oracle's, bit for bit. Over the corpus and 64 quick
// seeds.
func TestSimEqualsExecOnEveryIteration(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.case"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus cases (%v)", err)
	}
	var cases []*Case
	for _, f := range files {
		c, err := ReadCaseFile(f)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, c)
	}
	for seed := int64(0); seed < 64; seed++ {
		c, err := Generate(seed, GenConfig{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, c)
	}
	several := 0
	for _, c := range cases {
		if c.Iterations > 1 {
			several++
		}
		pl, err := platforms.ByName(c.Platform)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := gluegen.Generate(gluegen.Input{App: c.App, Mapping: c.Mapping, Platform: pl, NumNodes: c.Nodes})
		if err != nil {
			t.Fatal(err)
		}
		last := c.Iterations - 1
		oracle, err := Oracle(c.App, last)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := codegen.Plan(gen.Tables, c.Iterations)
		if err != nil {
			t.Fatal(err)
		}
		exec, err := rtl.Execute(prog)
		if err != nil {
			t.Fatal(err)
		}
		where := fmt.Sprintf("%s seed %d, %d iterations", c.App.Name, c.Seed, c.Iterations)
		res, err := sagert.Run(gen.Tables, pl, sagert.Options{Iterations: c.Iterations, ComputeIterations: c.Iterations})
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if d := CompareOutputs(exec.Iters[last], res.Outputs); d != "" {
			t.Fatalf("%s: sim vs exec's last iteration: %s", where, d)
		}
		if d := CompareOutputs(oracle, res.Outputs); d != "" {
			t.Fatalf("%s: sim vs oracle: %s", where, d)
		}
	}
	if several == 0 {
		t.Fatal("no case runs more than one iteration")
	}
	t.Logf("%d cases, %d of them over several iterations", len(cases), several)
}

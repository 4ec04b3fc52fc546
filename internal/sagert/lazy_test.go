package sagert_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/conformance"
	"repro/internal/fault"
	"repro/internal/gluegen"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/sagert"
	"repro/internal/trace"
)

// lazyRun is everything observable about one run.
type lazyRun struct {
	res        *sagert.Result
	err        string
	dispatched uint64
	seq        uint64
	chrome     []byte
}

func runLazyOrEager(t *testing.T, tables *gluegen.Tables, pl machine.Platform, opts sagert.Options, traced, eager bool) lazyRun {
	t.Helper()
	if traced {
		opts.Collector = trace.New(tables.AppName)
	}
	res, k, err := sagert.RunKernel(tables, pl, opts, eager)
	out := lazyRun{res: res, err: fmt.Sprint(err), dispatched: k.Dispatched(), seq: k.Scheduled()}
	if traced {
		out.chrome = chromeOf(t, opts.Collector)
	}
	return out
}

func chromeOf(t *testing.T, c *trace.Collector) []byte {
	t.Helper()
	tr := trace.NewTrace()
	tr.Add(c)
	var b bytes.Buffer
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// requireLazyMatchesEager runs tables both ways, untraced and traced, and
// fails unless the runs are the same.
func requireLazyMatchesEager(t *testing.T, where string, tables *gluegen.Tables, pl machine.Platform, opts sagert.Options) {
	t.Helper()
	for _, traced := range []bool{false, true} {
		want := runLazyOrEager(t, tables, pl, opts, traced, true)
		got := runLazyOrEager(t, tables, pl, opts, traced, false)
		if want.err != "<nil>" {
			t.Fatalf("%s traced=%v: %s", where, traced, want.err)
		}
		if got.err != want.err || got.dispatched != want.dispatched || got.seq != want.seq {
			t.Fatalf("%s traced=%v: err %q, dispatched %d, seq %d on first use; %q, %d, %d eager",
				where, traced, got.err, got.dispatched, got.seq, want.err, want.dispatched, want.seq)
		}
		if !reflect.DeepEqual(got.res, want.res) {
			t.Fatalf("%s traced=%v: results differ\nfirst use %+v\neager     %+v", where, traced, got.res, want.res)
		}
		if !bytes.Equal(got.chrome, want.chrome) {
			t.Fatalf("%s traced=%v: trace bytes differ (%d vs %d)", where, traced, len(got.chrome), len(want.chrome))
		}
	}
}

// TestLazyNodesMatchEager: machine nodes and MPI endpoints built on first
// use leave every run as it was with all of them built up front — the
// Result, NodeStats of unused nodes included, Dispatched, the last sequence
// number, Run's error and the Chrome trace bytes, node totals included.
// Over every corpus case and 32 generated ones, clean and faulted, the
// 1 024-node wide1024 shape (fft2d 256 staggered over 130 Mercury nodes),
// and that shape under a fault plan that stalls a node nothing maps onto.
// TestLazyStepScenariosMatchEager covers deadlocks and the hook stream.
func TestLazyNodesMatchEager(t *testing.T) {
	files, err := filepath.Glob("../conformance/testdata/corpus/*.case")
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
	for seed := int64(0); seed < 32; seed++ {
		c, err := conformance.Generate(seed, conformance.GenConfig{Quick: true})
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
		gen, err := gluegen.Generate(gluegen.Input{App: c.App, Mapping: c.Mapping, Platform: pl, NumNodes: c.Nodes})
		if err != nil {
			t.Fatal(err)
		}
		opts := sagert.Options{Iterations: c.Iterations + 1}
		requireLazyMatchesEager(t, fmt.Sprintf("%s seed %d", c.App.Name, c.Seed), gen.Tables, pl, opts)
		if !c.Faults.Empty() {
			opts.Faults, opts.Resilience = c.Faults, fault.Resilience{Degraded: true}
			requireLazyMatchesEager(t, fmt.Sprintf("%s seed %d faulted", c.App.Name, c.Seed), gen.Tables, pl, opts)
		}
	}

	app, err := apps.FFT2D(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	pl := platforms.Mercury()
	mapping, err := model.StaggerParallel(app, 1024)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: pl, NumNodes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	opts := sagert.Options{Iterations: 3}
	requireLazyMatchesEager(t, "wide1024 seq", gen.Tables, pl, opts)

	var used []int
	for _, f := range gen.Tables.Functions {
		used = append(used, f.Nodes...)
	}
	unused := 0
	for slices.Contains(used, unused) {
		unused++
	}
	opts.Faults, err = fault.ParsePlan(fmt.Sprintf("seed 3\ndrop link=* rate=0.05\nstall node=%d at=0us for=5000us\n", unused))
	if err != nil {
		t.Fatal(err)
	}
	opts.Resilience = fault.Resilience{Degraded: true}
	requireLazyMatchesEager(t, fmt.Sprintf("wide1024 seq, unused node %d stalled", unused), gen.Tables, pl, opts)
}

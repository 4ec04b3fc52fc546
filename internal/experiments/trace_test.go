package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// traceTestConfig is a small Table 1.0 grid used by the determinism
// regression tests below: big enough to exercise both apps and the
// parallel pool, small enough for the race detector.
func traceTestConfig(parallelism int, tr *trace.Trace) Table1Config {
	return Table1Config{
		Sizes: []int{16},
		Nodes: []int{2, 4},
		Protocol: Protocol{
			Iterations:  2,
			Parallelism: parallelism,
			Trace:       tr,
		},
	}
}

// TestTracingDoesNotPerturbResults is the regression test for the
// trace layer's observe-only contract: a traced table must deep-equal an
// untraced one, sequentially and under the parallel pool.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	for _, parallelism := range []int{1, 8} {
		plain, err := RunTable1(traceTestConfig(parallelism, nil))
		if err != nil {
			t.Fatal(err)
		}
		traced, err := RunTable1(traceTestConfig(parallelism, trace.NewTrace()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, traced) {
			t.Fatalf("parallelism=%d: tracing changed the results:\nuntraced: %+v\ntraced:   %+v",
				parallelism, plain, traced)
		}
	}
}

// TestTraceIdenticalAcrossParallelism pins the sweep-order merge: the
// exported trace must be byte-identical whether the cells ran on one
// worker or eight.
func TestTraceIdenticalAcrossParallelism(t *testing.T) {
	export := func(parallelism int) []byte {
		tr := trace.NewTrace()
		if _, err := RunTable1(traceTestConfig(parallelism, tr)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := export(1)
	par := export(8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("trace export differs between Parallelism=1 (%d bytes) and Parallelism=8 (%d bytes)",
			len(seq), len(par))
	}
	// And it must be a valid Chrome trace carrying all the layers the
	// table's runs produce.
	stats, err := trace.ValidateChrome(seq)
	if err != nil {
		t.Fatal(err)
	}
	for _, layer := range []string{"sim", "sagert", "mpi", "handcoded"} {
		if stats.Cats[layer] == 0 {
			t.Fatalf("table trace missing %s-layer spans (cats: %v)", layer, stats.Cats)
		}
	}
}

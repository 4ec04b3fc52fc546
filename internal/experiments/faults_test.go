package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// faultTestConfig is the fixed-seed sweep the determinism and golden tests
// share: three rates (fault-free, moderate, heavy), small enough for the
// race detector.
func faultTestConfig(parallelism int, tr *trace.Trace) FaultSweepConfig {
	return FaultSweepConfig{
		N:     64,
		Nodes: 4,
		Rates: []float64{0, 0.1, 0.3},
		Seed:  DefaultFaultSeed,
		Protocol: Protocol{
			Iterations:  3,
			Parallelism: parallelism,
			Trace:       tr,
		},
	}
}

// TestFaultSweepShape checks the sweep's basic physics: every run terminates,
// the fault-free row normalises to 1.0, and injected drops never make either
// implementation faster.
func TestFaultSweepShape(t *testing.T) {
	s, err := RunFaultSweep(faultTestConfig(0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(s.Rows))
	}
	r0 := s.Rows[0]
	if r0.Rate != 0 || r0.HandSlow != 1 || r0.SageSlow != 1 {
		t.Fatalf("fault-free row not normalised: %+v", r0)
	}
	for _, r := range s.Rows {
		if r.Hand <= 0 || r.Sage <= 0 {
			t.Fatalf("rate %v: non-positive latency: %+v", r.Rate, r)
		}
		if r.HandSlow < 1 || r.SageSlow < 1 {
			t.Fatalf("rate %v: faults made a run faster than fault-free: %+v", r.Rate, r)
		}
	}
	if s.Rows[2].HandSlow <= s.Rows[0].HandSlow {
		t.Fatalf("heavy drop rate shows no hand-coded slowdown: %+v", s.Rows)
	}
}

// TestFaultSweepDeterminism is the subsystem's determinism regression test:
// the fixed-seed sweep must produce byte-identical output on one worker and
// on eight, and tracing must not perturb a single value.
func TestFaultSweepDeterminism(t *testing.T) {
	ref, err := RunFaultSweep(faultTestConfig(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, parallelism := range []int{1, 8} {
		for _, traced := range []bool{false, true} {
			var tr *trace.Trace
			if traced {
				tr = trace.NewTrace()
			}
			got, err := RunFaultSweep(faultTestConfig(parallelism, tr))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("parallelism=%d traced=%v: sweep differs from sequential untraced reference:\nref: %+v\ngot: %+v",
					parallelism, traced, ref, got)
			}
			if got.Format() != ref.Format() {
				t.Fatalf("parallelism=%d traced=%v: formatted table differs", parallelism, traced)
			}
		}
	}
}

// TestFaultSweepGolden pins the sweep's formatted output to a checked-in
// golden file, so any change to the fault model's timing is a conscious,
// reviewed one. Regenerate with: go test ./internal/experiments -run Golden -update
var update = os.Getenv("UPDATE_GOLDEN") != ""

func TestFaultSweepGolden(t *testing.T) {
	s, err := RunFaultSweep(faultTestConfig(0, nil))
	if err != nil {
		t.Fatal(err)
	}
	got := []byte(s.Format())
	golden := filepath.Join("testdata", "faultsweep.golden")
	if update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fault sweep output drifted from %s (set UPDATE_GOLDEN=1 to regenerate):\n--- want ---\n%s\n--- got ---\n%s",
			golden, want, got)
	}
}

// TestFaultSweepTrace checks the end-to-end trace claim: a traced sweep
// exports a valid Chrome trace containing fault-layer events, identically at
// any parallelism.
func TestFaultSweepTrace(t *testing.T) {
	export := func(parallelism int) []byte {
		tr := trace.NewTrace()
		if _, err := RunFaultSweep(faultTestConfig(parallelism, tr)); err != nil {
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
		t.Fatalf("fault-sweep trace differs between Parallelism=1 (%d bytes) and Parallelism=8 (%d bytes)",
			len(seq), len(par))
	}
	stats, err := trace.ValidateChrome(seq)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Faults == 0 {
		t.Fatal("traced fault sweep exported no fault-layer events")
	}
	if stats.Cats[string(trace.LayerFault)] == 0 {
		t.Fatalf("no fault category in export (cats: %v)", stats.Cats)
	}
}

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGenStudyExperiment(t *testing.T) {
	out, err := stdoutOf(cmdBench, "-quick", "-experiment", "genstudy")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 1.0") || !strings.Contains(out, "verified=true") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestTable1QuickExperiment(t *testing.T) {
	out, err := stdoutOf(cmdBench, "-quick", "-experiment", "table1")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 1.0", "2D FFT", "% of Hand", "Overall"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestParallelFlagOutputIdentical pins the CLI-level determinism guarantee:
// -parallel changes wall-clock only, never a byte of the printed tables.
func TestParallelFlagOutputIdentical(t *testing.T) {
	seq, err := stdoutOf(cmdBench, "-quick", "-experiment", "twonode", "-parallel", "1")
	if err != nil {
		t.Fatal(err)
	}
	par, err := stdoutOf(cmdBench, "-quick", "-experiment", "twonode", "-parallel", "4")
	if err != nil {
		t.Fatal(err)
	}
	if seq != par {
		t.Fatalf("-parallel 4 output differs from -parallel 1:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := stdoutOf(cmdBench, "-quick", "-experiment", "warpcore"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestFaultSweepExperiment smoke-tests the faultsweep table end to end,
// including its -parallel invariance.
func TestFaultSweepExperiment(t *testing.T) {
	seq, err := stdoutOf(cmdBench, "-quick", "-experiment", "faultsweep", "-parallel", "1")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fault sweep", "% of Hand", "x fault0", "30.0%"} {
		if !strings.Contains(seq, want) {
			t.Fatalf("output missing %q:\n%s", want, seq)
		}
	}
	par, err := stdoutOf(cmdBench, "-quick", "-experiment", "faultsweep", "-parallel", "4")
	if err != nil {
		t.Fatal(err)
	}
	if seq != par {
		t.Fatalf("faultsweep output differs at -parallel 4:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
}

// TestFaultsFlag injects a plan file into a regular experiment: the run must
// still verify, finish slower than fault-free, and reject malformed plans.
func TestFaultsFlag(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "plan.txt")
	if err := os.WriteFile(plan, []byte("seed 9\ndrop link=* rate=0.2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	clean, err := stdoutOf(cmdBench, "-quick", "-experiment", "twonode")
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := stdoutOf(cmdBench, "-quick", "-experiment", "twonode", "-faults", plan)
	if err != nil {
		t.Fatal(err)
	}
	if faulted == clean {
		t.Fatal("-faults plan did not change the experiment's timings")
	}
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("drop rate=2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := stdoutOf(cmdBench, "-quick", "-experiment", "twonode", "-faults", bad); err == nil {
		t.Fatal("malformed plan file accepted")
	}
	if _, err := stdoutOf(cmdBench, "-quick", "-experiment", "twonode", "-faults", filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Fatal("missing plan file accepted")
	}
}

package main

import (
	"strings"
	"testing"

	"repro/internal/apps"
)

func TestPredictAndCompare(t *testing.T) {
	modelPath := writeModel(t, t.TempDir(), apps.FFT2D, 64, 4)
	out, err := stdoutOf(cmdTwin, "-model", modelPath, "-platform", "CSPI", "-nodes", "4", "-iterations", "4", "-compare")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"predicted elapsed:", "bottleneck period:", "node 0", "DES elapsed:", "twin error"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestSweepOutput(t *testing.T) {
	modelPath := writeModel(t, t.TempDir(), apps.FFT2D, 64, 4)
	out, err := stdoutOf(cmdTwin, "-model", modelPath, "-platform", "Mercury", "-iterations", "3", "-sweep", "4, 8,16", "-compare")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected header + 3 sweep rows, got:\n%s", out)
	}
	if !strings.Contains(lines[0], "ape%") {
		t.Fatalf("compare column missing:\n%s", out)
	}
}

func TestValidateMode(t *testing.T) {
	out, err := stdoutOf(cmdTwin, "-validate", "-seed-start", "1", "-seeds", "24", "-quick")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "twin-validate:") || !strings.Contains(out, "PASS") {
		t.Fatalf("validate output:\n%s", out)
	}
}

func TestTwinUsageErrors(t *testing.T) {
	if _, err := stdoutOf(cmdTwin); err == nil {
		t.Fatal("missing model accepted")
	}
	modelPath := writeModel(t, t.TempDir(), apps.FFT2D, 64, 4)
	if _, err := stdoutOf(cmdTwin, "-model", modelPath, "-iterations", "1", "-sweep", "zero"); err == nil {
		t.Fatal("bad sweep accepted")
	}
	if _, err := stdoutOf(cmdTwin, "-model", modelPath, "-iterations", "1", "-sweep", "2", "-mapping", "x.map"); err == nil {
		t.Fatal("sweep with mapping accepted")
	}
	if _, err := stdoutOf(cmdTwin, "-model", modelPath, "-platform", "Cray", "-iterations", "1", "-nodes", "2"); err == nil {
		t.Fatal("unknown platform accepted")
	}
}

package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/model"
)

func TestStrategiesProduceValidMappings(t *testing.T) {
	dir := t.TempDir()
	modelPath := writeModel(t, dir, apps.STAP, 64, 3)
	for _, strategy := range []string{"ga", "twin", "greedy", "roundrobin", "spread"} {
		outPath := filepath.Join(dir, strategy+".map")
		args := []string{"-model", modelPath, "-platform", "CSPI", "-nodes", "8", "-strategy", strategy,
			"-pop", "16", "-gens", "10", "-seed", "1", "-topk", "2", "-iterations", "2", "-o", outPath}
		if strategy == "ga" {
			args = append(args, "-schedule")
		}
		if err := cmdAtot(args, io.Discard, io.Discard); err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		f, err := os.Open(outPath)
		if err != nil {
			t.Fatal(err)
		}
		mapping, appName, err := model.ReadMappingText(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if appName != "stap_64" {
			t.Fatalf("%s: app %q", strategy, appName)
		}
		if len(mapping.Assign) != 6 {
			t.Fatalf("%s: %d functions mapped", strategy, len(mapping.Assign))
		}
	}
}

func TestAtotErrors(t *testing.T) {
	ga := []string{"-pop", "8", "-gens", "5", "-seed", "1"}
	if err := cmdAtot(append([]string{"-platform", "CSPI"}, ga...), io.Discard, io.Discard); err == nil {
		t.Fatal("missing model accepted")
	}
	modelPath := writeModel(t, t.TempDir(), apps.STAP, 64, 3)
	if err := cmdAtot(append([]string{"-model", modelPath, "-platform", "Cray"}, ga...), io.Discard, io.Discard); err == nil {
		t.Fatal("unknown platform accepted")
	}
	if err := cmdAtot(append([]string{"-model", modelPath, "-strategy", "simulated-annealing"}, ga...), io.Discard, io.Discard); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestScheduleOutput(t *testing.T) {
	modelPath := writeModel(t, t.TempDir(), apps.STAP, 64, 3)
	var out strings.Builder
	if err := cmdAtot([]string{"-model", modelPath, "-strategy", "spread", "-schedule"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "estimated schedule") || !strings.Contains(out.String(), "doppler") {
		t.Fatalf("schedule output:\n%s", out.String())
	}
}

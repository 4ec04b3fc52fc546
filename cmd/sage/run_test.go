package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/trace"
)

func TestRunFromModel(t *testing.T) {
	dir := t.TempDir()
	modelPath := writeModel(t, dir, apps.CornerTurn, 64, 4)
	tracePath := filepath.Join(dir, "trace.json")
	svgPath := filepath.Join(dir, "trace.svg")
	out, err := stdoutOf(cmdRun, "-model", modelPath, "-platform", "CSPI", "-nodes", "4",
		"-iterations", "3", "-trace", tracePath, "-svg", svgPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"period:", "avg latency:", "node 0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	chrome, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ValidateChrome(chrome); err != nil {
		t.Fatalf("chrome trace: %v", err)
	}
	svg, err := os.ReadFile(svgPath)
	if err != nil || !strings.Contains(string(svg), "<svg") {
		t.Fatalf("svg missing/wrong: %v", err)
	}
}

func TestRunFromPregeneratedTables(t *testing.T) {
	dir := t.TempDir()
	// The design loader generates tables from a model ...
	d := &design{model: writeModel(t, dir, apps.CornerTurn, 64, 4), platform: "CSPI", nodes: 4, takesMapping: true}
	l, err := d.load()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.generate(); err != nil {
		t.Fatal(err)
	}
	// ... and run executes table source saved to a file.
	app, _ := apps.CornerTurn(64, 4)
	mapping, _ := model.SpreadParallel(app, 4)
	gout, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: platforms.CSPI(), NumNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	outPath := writeTemp(t, dir, "ct.tbl", gout.TableSource)
	out, err := stdoutOf(cmdRun, "-tables", outPath, "-iterations", "2", "-platform", "CSPI")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cornerturn_64 on CSPI") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunWithCustomHardware(t *testing.T) {
	dir := t.TempDir()
	modelPath := writeModel(t, dir, apps.CornerTurn, 64, 4)
	hwPath := filepath.Join(dir, "custom.hw")
	sky, err := platforms.ByName("SKY")
	if err != nil {
		t.Fatal(err)
	}
	sys := model.SystemFromPlatform(sky, 1)
	sys.Name = "CustomSKY"
	if err := writeFile(hwPath, sys.WriteHWText); err != nil {
		t.Fatal(err)
	}
	out, err := stdoutOf(cmdRun, "-model", modelPath, "-hw", hwPath, "-iterations", "2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "on CustomSKY (4 nodes)") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := stdoutOf(cmdRun); err == nil {
		t.Fatal("no inputs accepted")
	}
	if _, err := stdoutOf(cmdRun, "-model", "/nonexistent", "-platform", "CSPI", "-nodes", "4"); err == nil {
		t.Fatal("missing model accepted")
	}
	if _, err := stdoutOf(cmdRun, "-tables", "/nonexistent"); err == nil {
		t.Fatal("missing tables accepted")
	}
	if _, err := stdoutOf(cmdRun, "-model", "x", "-platform", "Cray", "-nodes", "4"); err == nil {
		t.Fatal("unknown platform accepted")
	}
}

package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/sagert"
	"repro/internal/viz"
)

// writeProbeCSV runs a traced corner turn and exports its CSV.
func writeProbeCSV(t *testing.T, dir string) string {
	t.Helper()
	app, err := apps.CornerTurn(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	mapping, _ := model.SpreadParallel(app, 2)
	out, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: platforms.CSPI(), NumNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	trace, hook := viz.Collector()
	if _, err := sagert.Run(out.Tables, platforms.CSPI(), sagert.Options{Iterations: 2, ProbeAll: true, Trace: hook}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "trace.csv")
	if err := writeFile(path, trace.WriteCSV); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReportFromCSV(t *testing.T) {
	tracePath := writeProbeCSV(t, t.TempDir())
	var out strings.Builder
	if err := cmdViz([]string{"-trace", tracePath, "-width", "60"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Visualizer report") {
		t.Fatalf("report:\n%s", out.String())
	}
}

func TestSVGFromCSV(t *testing.T) {
	dir := t.TempDir()
	tracePath := writeProbeCSV(t, dir)
	svgPath := filepath.Join(dir, "out.svg")
	if err := cmdViz([]string{"-trace", tracePath, "-width", "60", "-svg", svgPath}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	svg, err := os.ReadFile(svgPath)
	if err != nil || !strings.Contains(string(svg), "<svg") {
		t.Fatalf("svg: %v", err)
	}
}

func TestVizErrors(t *testing.T) {
	if err := cmdViz(nil, io.Discard, io.Discard); err == nil {
		t.Fatal("missing trace accepted")
	}
	if err := cmdViz([]string{"-trace", "/nonexistent.csv"}, io.Discard, io.Discard); err == nil {
		t.Fatal("missing file accepted")
	}
}

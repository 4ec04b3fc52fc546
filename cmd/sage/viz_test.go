package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
)

// writeChromeTrace runs a corner turn with sage run -viz -trace and returns
// the Chrome trace's path and sage run's output, live Visualizer report
// included.
func writeChromeTrace(t *testing.T, dir string) (path, runOut string) {
	t.Helper()
	modelPath := writeModel(t, dir, apps.CornerTurn, 32, 2)
	path = filepath.Join(dir, "trace.json")
	runOut, err := stdoutOf(cmdRun, "-model", modelPath, "-platform", "CSPI", "-nodes", "2",
		"-iterations", "2", "-viz", "-trace", path)
	if err != nil {
		t.Fatal(err)
	}
	return path, runOut
}

// TestReportFromChrome: sage viz renders, from the Chrome trace sage run
// wrote, the report sage run -viz printed from the live run.
func TestReportFromChrome(t *testing.T) {
	tracePath, runOut := writeChromeTrace(t, t.TempDir())
	out, err := stdoutOf(cmdViz, "-trace", tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Visualizer report") || !strings.Contains(runOut, out) {
		t.Fatalf("sage viz report:\n%s\nis not the one sage run printed:\n%s", out, runOut)
	}
}

func TestSVGFromChrome(t *testing.T) {
	dir := t.TempDir()
	tracePath, _ := writeChromeTrace(t, dir)
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
	if err := cmdViz([]string{"-trace", "/nonexistent.json"}, io.Discard, io.Discard); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	notJSON := writeTemp(t, dir, "trace.csv", "fn,name,thread,node,iteration,phase,start_ns,end_ns\n")
	if err := cmdViz([]string{"-trace", notJSON}, io.Discard, io.Discard); err == nil {
		t.Fatal("a probe CSV accepted")
	}
	// Two runs, as sage bench -trace writes them: their clocks both start
	// at zero, so one timeline cannot hold them.
	twoRuns := writeTemp(t, dir, "two.json", `{"traceEvents":[
{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"a · node 0"}},
{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"a.f[0] #1"}},
{"name":"compute","cat":"sagert","ph":"X","ts":0,"dur":1,"pid":1,"tid":1,"args":{"iter":0}},
{"name":"process_name","ph":"M","ts":0,"pid":2,"tid":0,"args":{"name":"b · node 0"}},
{"name":"thread_name","ph":"M","ts":0,"pid":2,"tid":1,"args":{"name":"b.f[0] #1"}},
{"name":"compute","cat":"sagert","ph":"X","ts":0,"dur":1,"pid":2,"tid":1,"args":{"iter":0}}
],"displayTimeUnit":"ns"}`)
	if err := cmdViz([]string{"-trace", twoRuns}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "2 runs") {
		t.Fatalf("two runs: err = %v", err)
	}
}

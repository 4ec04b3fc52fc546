package viz

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/sagert"
	"repro/internal/sim"
	"repro/internal/trace"
)

// tracedRun executes app (n, threads) spread over nodes CSPI nodes for iters
// data sets and returns its collector and result.
func tracedRun(t *testing.T, build func(int, int) (*model.App, error), n, threads, nodes, iters int) (*trace.Collector, *sagert.Result) {
	t.Helper()
	app, err := build(n, threads)
	if err != nil {
		t.Fatal(err)
	}
	mapping, _ := model.SpreadParallel(app, nodes)
	out, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: platforms.CSPI(), NumNodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	col := trace.New(app.Name)
	res, err := sagert.Run(out.Tables, platforms.CSPI(), sagert.Options{Iterations: iters, Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	return col, res
}

// runTraced executes a corner turn and returns its Visualizer trace and
// result.
func runTraced(t *testing.T) (*Trace, *sagert.Result) {
	t.Helper()
	col, res := tracedRun(t, apps.CornerTurn, 64, 4, 4, 3)
	trace, err := FromRun(col)
	if err != nil {
		t.Fatal(err)
	}
	return trace, res
}

func TestCollectorGathersEvents(t *testing.T) {
	trace, _ := runTraced(t)
	if len(trace.Events) == 0 {
		t.Fatal("no events collected")
	}
	lo, hi := trace.Span()
	if hi <= lo {
		t.Fatalf("span = [%v, %v]", lo, hi)
	}
}

// TestChromeRoundTrip: the report and SVG of a corner turn and an fft2d run
// equal the goldens in testdata, which the replaced probe hook rendered,
// both from the live collector and from the run's Chrome trace read back
// with trace.ReadChrome.
func TestChromeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name                     string
		build                    func(int, int) (*model.App, error)
		n, threads, nodes, iters int
	}{
		{"cornerturn", apps.CornerTurn, 64, 4, 4, 3},
		{"fft2d", apps.FFT2D, 64, 8, 8, 2},
	} {
		col, _ := tracedRun(t, tc.build, tc.n, tc.threads, tc.nodes, tc.iters)
		tr := trace.NewTrace()
		tr.Add(col)
		var chrome bytes.Buffer
		if err := tr.WriteChrome(&chrome); err != nil {
			t.Fatal(err)
		}
		back, err := trace.ReadChrome(chrome.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for _, from := range []struct {
			name string
			col  *trace.Collector
		}{{"live", col}, {"chrome", back.Runs()[0]}} {
			v, err := FromRun(from.col)
			if err != nil {
				t.Fatal(err)
			}
			var report, svg bytes.Buffer
			if err := v.Report(&report, 100); err != nil {
				t.Fatal(err)
			}
			if err := v.WriteSVG(&svg, 1200); err != nil {
				t.Fatal(err)
			}
			for ext, got := range map[string][]byte{"report": report.Bytes(), "svg": svg.Bytes()} {
				want, err := os.ReadFile(filepath.Join("testdata", tc.name+"."+ext))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s %s from the %s trace differs from testdata:\n%s", tc.name, ext, from.name, got)
				}
			}
		}
	}
}

// TestFromRunRejectsForeignTrack: a phase span whose track is not a
// function thread's process track is an error, not a misfiled row.
func TestFromRunRejectsForeignTrack(t *testing.T) {
	for _, track := range []string{"faults", "app.f[0]", "app.f[x] #3", "f[0] #3", "app.f[0 #3", "app.f[0] #"} {
		c := trace.New("bad")
		c.Phase(trace.LayerSage, 0, track, "compute", 0, 1, 2)
		if _, err := FromRun(c); err == nil {
			t.Errorf("track %q accepted", track)
		}
	}
	c := trace.New("ok")
	c.Phase(trace.LayerSage, 1, trace.ProcTrack("my.app.f.g[12]", 7), "send", 4, 1, 2)
	c.Phase(trace.LayerSage, 1, trace.ProcTrack("my.app.f.g[12]", 7), "credit b0", 4, 1, 2)
	v, err := FromRun(c)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{{FnName: "app.f.g", Thread: 12, Node: 1, Iter: 4, Phase: "send", Start: 1, End: 2, pid: 7}}
	if !reflect.DeepEqual(v.Events, want) {
		t.Fatalf("events = %+v", v.Events)
	}
}

func TestBreakdownCoversAllFunctions(t *testing.T) {
	trace, _ := runTraced(t)
	bd := trace.Breakdown()
	names := map[string]bool{}
	for _, b := range bd {
		names[b.Fn] = true
		if b.Total() <= 0 {
			t.Fatalf("function %s has zero instrumented time", b.Fn)
		}
	}
	for _, want := range []string{"source", "ingest", "turn", "sink"} {
		if !names[want] {
			t.Fatalf("breakdown missing %s: %v", want, names)
		}
	}
	// Sorted by name.
	for i := 1; i < len(bd); i++ {
		if bd[i].Fn < bd[i-1].Fn {
			t.Fatal("breakdown not sorted")
		}
	}
}

func TestBottlenecksRankedAndDiagnosed(t *testing.T) {
	trace, _ := runTraced(t)
	bns := trace.Bottlenecks()
	if len(bns) == 0 {
		t.Fatal("no bottlenecks reported")
	}
	for i := 1; i < len(bns); i++ {
		if bns[i].Share > bns[i-1].Share {
			t.Fatal("bottlenecks not ranked by compute share")
		}
	}
	var shareSum float64
	for _, b := range bns {
		shareSum += b.Share
		if b.Diagnosis == "" {
			t.Fatalf("missing diagnosis for %s", b.Fn)
		}
	}
	if shareSum < 0.99 || shareSum > 1.01 {
		t.Fatalf("compute shares sum to %v", shareSum)
	}
	// The sink in a corner turn waits on everything upstream: it must be
	// diagnosed as starved.
	for _, b := range bns {
		if b.Fn == "sink" && !strings.Contains(b.Diagnosis, "starved") {
			t.Fatalf("sink diagnosis = %q (wait share %.2f)", b.Diagnosis, b.WaitShare)
		}
	}
}

func TestCheckLatencies(t *testing.T) {
	lats := []sim.Duration{time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond}
	v := CheckLatencies(lats, 2*time.Millisecond)
	if len(v) != 1 || v[0].Iteration != 1 || v[0].Latency != 3*time.Millisecond {
		t.Fatalf("violations = %+v", v)
	}
	if len(CheckLatencies(lats, 10*time.Millisecond)) != 0 {
		t.Fatal("phantom violations")
	}
}

func TestLatencyViolationsFromRealRun(t *testing.T) {
	_, res := runTraced(t)
	tight := res.AvgLatency() / 2
	if len(CheckLatencies(res.Latencies, tight)) == 0 {
		t.Fatal("expected violations under a tight threshold")
	}
}

func TestGanttRendering(t *testing.T) {
	trace, _ := runTraced(t)
	var buf bytes.Buffer
	if err := trace.Gantt(&buf, 60); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "timeline") {
		t.Fatal("missing header")
	}
	for _, want := range []string{"source[0]", "ingest[0]", "ingest[3]", "turn[2]", "sink[0]", "C"} {
		if !strings.Contains(out, want) {
			t.Fatalf("gantt missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// 1 header + 1 source + 4 ingest + 4 turn + 1 sink = 11.
	if len(lines) != 11 {
		t.Fatalf("gantt has %d lines:\n%s", len(lines), out)
	}
}

func TestGanttEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Trace{}).Gantt(&buf, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no probe events") {
		t.Fatal("empty trace not reported")
	}
}

func TestReport(t *testing.T) {
	trace, _ := runTraced(t)
	var buf bytes.Buffer
	if err := trace.Report(&buf, 50); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Visualizer report", "phase totals", "bottleneck analysis", "timeline"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestWriteSVG(t *testing.T) {
	trace, _ := runTraced(t)
	var buf bytes.Buffer
	if err := trace.WriteSVG(&buf, 800); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "ingest[0]", "turn[3]", "compute", "#219ebc"} {
		if !strings.Contains(out, want) {
			t.Fatalf("svg missing %q", want)
		}
	}
	// Every event produced a rect with a tooltip.
	if got := strings.Count(out, "<title>"); got != len(trace.Events) {
		t.Fatalf("svg has %d tooltips for %d events", got, len(trace.Events))
	}
	// Narrow widths are clamped, not broken.
	var small bytes.Buffer
	if err := trace.WriteSVG(&small, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(small.String(), "<svg") {
		t.Fatal("clamped svg broken")
	}
}

func TestXMLEscape(t *testing.T) {
	if got := xmlEscape(`a<b>&"c`); got != "a&lt;b&gt;&amp;&quot;c" {
		t.Fatalf("escape = %q", got)
	}
}

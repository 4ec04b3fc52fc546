package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/gluegen"
	"repro/internal/handcoded"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/sagert"
	"repro/internal/stream"
	"repro/internal/trace"
)

const traceGoldenPath = "testdata/trace.golden"

// traceGoldenRuns are real traced runs, one per recording path: each
// returns the merged trace its exporters write.
var traceGoldenRuns = []struct {
	name string
	run  func() (*trace.Trace, error)
}{
	// The daemon's faulted request: fft2d 256, 4 threads spread over 8 CSPI
	// nodes, 5 data sets without samples, drops and a node stall.
	{"faulted-daemon", func() (*trace.Trace, error) {
		plan, err := fault.ParsePlan(faultPlanText)
		if err != nil {
			return nil, err
		}
		return sageTrace(experiments.AppFFT2D, 256, 4, 8, func(o *sagert.Options) {
			o.Iterations = 5
			o.ComputeIterations = sagert.NoSamples
			o.Faults = plan
		}, false)
	}},
	// A Verbose corner turn: every channel and resource instant and every
	// acquire wait span.
	{"cornerturn-verbose", func() (*trace.Trace, error) {
		return sageTrace(experiments.AppCornerTurn, 64, 4, 4, func(o *sagert.Options) { o.Iterations = 3 }, true)
	}},
	// A streaming run that remaps: stream points, spans and gauges.
	{"stream-remap", func() (*trace.Trace, error) {
		f, err := os.Open("../experiments/testdata/stream_remap.json")
		if err != nil {
			return nil, err
		}
		defer f.Close()
		sc, err := stream.ReadScenario(f)
		if err != nil {
			return nil, err
		}
		cfg, err := sc.Build()
		if err != nil {
			return nil, err
		}
		cfg.Collector = trace.New("stream remap")
		if _, err := stream.Run(cfg); err != nil {
			return nil, err
		}
		return traceOf(cfg.Collector), nil
	}},
	// A hand-coded corner turn: benchmark phases and MPI all-to-all
	// collectives.
	{"handcoded-cornerturn", func() (*trace.Trace, error) {
		col := trace.New("hand cornerturn")
		_, err := handcoded.CornerTurn(handcoded.Config{Platform: platforms.CSPI(), Nodes: 4, N: 64, Iterations: 3, Seed: 1, Trace: col})
		return traceOf(col), err
	}},
	// A small Table 1 grid, merged in sweep order: hand-coded and SAGE runs
	// of both applications, several collectors in one trace.
	{"table1", func() (*trace.Trace, error) {
		proto := experiments.Protocol{Iterations: 5, Trace: trace.NewTrace()}
		_, err := experiments.RunTable1(experiments.Table1Config{Sizes: []int{64}, Nodes: []int{4}, Protocol: proto})
		return proto.Trace, err
	}},
}

// sageTrace runs the app on threads spread over nodes CSPI nodes under one
// collector.
func sageTrace(kind experiments.AppKind, n, threads, nodes int, set func(*sagert.Options), verbose bool) (*trace.Trace, error) {
	app, err := experiments.BuildApp(kind, n, threads)
	if err != nil {
		return nil, err
	}
	mapping, err := model.SpreadParallel(app, nodes)
	if err != nil {
		return nil, err
	}
	pl := platforms.CSPI()
	out, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: pl, NumNodes: nodes})
	if err != nil {
		return nil, err
	}
	col := trace.New(fmt.Sprintf("%s %d on %s", kind, n, pl.Name))
	col.Verbose = verbose
	opts := sagert.Options{Collector: col}
	set(&opts)
	if _, err := sagert.Run(out.Tables, pl, opts); err != nil {
		return nil, err
	}
	return traceOf(col), nil
}

func traceOf(c *trace.Collector) *trace.Trace {
	t := trace.NewTrace()
	t.Add(c)
	return t
}

// traceGolden renders one line per run: the size and SHA-256 of its Chrome
// export and the SHA-256 of its text summary.
func traceGolden(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, r := range traceGoldenRuns {
		tr, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		var chrome, summary bytes.Buffer
		if err := tr.WriteChrome(&chrome); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if err := tr.WriteSummary(&summary); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		c, s := sha256.Sum256(chrome.Bytes()), sha256.Sum256(summary.Bytes())
		fmt.Fprintf(&b, "%s chrome=%dB/%s summary=%s\n", r.name, chrome.Len(), hex.EncodeToString(c[:]), hex.EncodeToString(s[:]))
	}
	return b.Bytes()
}

// TestTraceBytesGolden holds what the exporters write for real traced runs
// equal to the committed hashes: the Chrome bytes and the summary text are
// the trace's output, and how the collector stores events must not move
// them. A change that means to move them regenerates the file with -update.
func TestTraceBytesGolden(t *testing.T) {
	got := traceGolden(t)
	if *updateGolden {
		if err := os.WriteFile(traceGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(traceGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("trace bytes diverge at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("trace golden has %d lines, want %d", len(gl), len(wl))
	}
}

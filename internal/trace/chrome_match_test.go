package trace_test

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/sagert"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/trace"
)

// sageRun records one traced sagert run of app ("fft2d" or "cornerturn")
// at size n, 8 threads spread over 8 CSPI nodes.
func sageRun(t testing.TB, col *trace.Collector, app string, n int, opts sagert.Options) *trace.Collector {
	t.Helper()
	build := apps.FFT2D
	if app == "cornerturn" {
		build = apps.CornerTurn
	}
	a, err := build(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.SpreadParallel(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	out, err := gluegen.Generate(gluegen.Input{App: a, Mapping: m, Platform: platforms.CSPI(), NumNodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	opts.Collector = col
	if _, err := sagert.Run(out.Tables, platforms.CSPI(), opts); err != nil {
		t.Fatal(err)
	}
	return col
}

// streamRun records a streaming run with backpressure gauges, stalls and a
// remap.
func streamRun(t *testing.T) *trace.Collector {
	t.Helper()
	sc := &stream.Scenario{
		App: "fft2d", N: 32, Threads: 2, Nodes: 4, Seed: 11,
		Classes: []stream.Class{{Name: "interactive", Process: "poisson", Rate: 700, Frames: 30, SLOMs: 5}},
		Faults:  "seed 3\nstall node=1 at=2ms for=2ms\nstall node=1 at=7ms for=2ms\n",
		Remap:   &stream.RemapSpec{MaxRemaps: 1},
	}
	cfg, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Collector = trace.New("stream remap")
	if _, err := stream.Run(cfg); err != nil {
		t.Fatal(err)
	}
	return cfg.Collector
}

// ties records, through the public API, events that meet at one start time
// on one track — spans of different lengths, a zero-length and a backwards
// span, instants and gauges — plus names that need escaping, on a machine
// node and on the kernel.
func ties() *trace.Collector {
	c := trace.New(`ties <&> "q"`)
	at := sim.Time(5000)
	for _, node := range []int{trace.NodeKernel, 2} {
		c.StreamGauge(node, trace.StreamTrack, "backlog", 3, at)
		c.StreamPoint(node, "admit frame 1\u2028", at)
		c.StreamSpan(node, trace.StreamTrack, "drain", at, at+10)
		c.StreamSpan(node, trace.StreamTrack, "quiesce", at, at+30)
		c.StreamSpan(node, trace.StreamTrack, "remap", at, at)
		c.StreamSpan(node, trace.StreamTrack, "resume", at, at-7)
		c.StreamGauge(node, trace.StreamTrack, "backlog", 1, at)
		c.StreamPoint(node, "eos", at)
		c.Xfer(trace.LayerSage, node, "w\t#1", "send\x01<b0>", 1<<40, 7, at, at+1)
		c.Phase(trace.LayerSage, node, "w\t#1", "compute & more", 0, 1, 1)
		c.FaultPoint(node, "drop link 0->1", 0)
		c.FaultSpanOn(node, trace.FaultTrack, "retry \xff", 0, 3)
	}
	return c
}

// chromeCase is a trace covering some of the event kinds, layers and
// optional fields WriteChrome writes.
type chromeCase struct {
	name string
	runs func() []*trace.Collector
}

// chromeCases are the traces the Chrome exporter and reader are held to.
// "ties and escapes" holds a backwards span, which ValidateChrome and so
// ReadChrome refuse.
func chromeCases(t *testing.T) []chromeCase {
	plan, err := fault.ParsePlan("seed 9\ndrop link=* rate=0.1\nstall node=1 at=200us for=500us\n")
	if err != nil {
		t.Fatal(err)
	}
	verbose := trace.New("verbose fft2d 64")
	verbose.Verbose = true
	return []chromeCase{
		// Named for the field, now ignored, that asked for every function's
		// phases.
		{"ct512 ProbeAll", func() []*trace.Collector {
			return []*trace.Collector{sageRun(t, trace.New("ct512t"), "cornerturn", 512,
				sagert.Options{Iterations: 5})}
		}},
		{"fft256 faulted", func() []*trace.Collector {
			opts := sagert.Options{Iterations: 5, Faults: plan}
			opts.Resilience.Degraded = plan.HasStalls()
			return []*trace.Collector{sageRun(t, trace.New("fft256f"), "fft2d", 256, opts)}
		}},
		{"stream gauges", func() []*trace.Collector { return []*trace.Collector{streamRun(t)} }},
		{"verbose", func() []*trace.Collector {
			return []*trace.Collector{sageRun(t, verbose, "fft2d", 64, sagert.Options{Iterations: 2})}
		}},
		{"two runs, one unlabelled", func() []*trace.Collector {
			return []*trace.Collector{
				sageRun(t, trace.New("fft64"), "fft2d", 64, sagert.Options{Iterations: 2}),
				sageRun(t, trace.New(""), "cornerturn", 64, sagert.Options{Iterations: 2}),
			}
		}},
		{"ties and escapes", func() []*trace.Collector { return []*trace.Collector{ties(), ties()} }},
	}
}

// chromeOf writes runs as one Chrome trace.
func chromeOf(t *testing.T, runs []*trace.Collector) []byte {
	t.Helper()
	tr := trace.NewTrace()
	for _, c := range runs {
		tr.Add(c)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriteChromeMatchesReference: the direct encoder writes, byte for byte,
// what the reflection-based exporter it replaced (referenceChrome) wrote, on
// traces covering every event kind, layer and optional field.
func TestWriteChromeMatchesReference(t *testing.T) {
	for _, tc := range chromeCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			tr := trace.NewTrace()
			for _, c := range tc.runs() {
				tr.Add(c)
			}
			var got, want bytes.Buffer
			if err := tr.WriteChrome(&got); err != nil {
				t.Fatal(err)
			}
			if err := trace.ReferenceChrome(tr, &want); err != nil {
				t.Fatal(err)
			}
			if i := firstDiff(got.Bytes(), want.Bytes()); i >= 0 {
				t.Fatalf("WriteChrome differs from the reference at byte %d of %d:\n got  %.120q\n want %.120q",
					i, want.Len(), got.Bytes()[i:], want.Bytes()[i:])
			}
			if _, err := trace.ValidateChrome(got.Bytes()); err != nil && tc.name != "ties and escapes" {
				t.Fatal(err)
			}
			t.Logf("%d bytes", got.Len())
		})
	}
}

// firstDiff is the offset of the first byte where a and b differ, or -1.
func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestReadChromeRoundTrip: ReadChrome reads back every trace WriteChrome
// writes and ValidateChrome accepts, and writing what it read gives the
// same bytes again.
func TestReadChromeRoundTrip(t *testing.T) {
	for _, tc := range chromeCases(t) {
		if tc.name == "ties and escapes" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			want := chromeOf(t, tc.runs())
			back, err := trace.ReadChrome(want)
			if err != nil {
				t.Fatal(err)
			}
			got := chromeOf(t, back.Runs())
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("read and rewritten, the trace differs at byte %d of %d:\n got  %.120q\n want %.120q",
					i, len(want), got[i:], want[i:])
			}
		})
	}
}

// FuzzReadChrome: hostile input makes ReadChrome return an error, never
// panic; and what it accepts, written and read again, is a fixed point.
func FuzzReadChrome(f *testing.F) {
	c := trace.New("seed")
	track := trace.ProcTrack("app.f[0]", 3)
	c.Phase(trace.LayerSage, 0, track, "compute", 1, 1000, 2500)
	c.Xfer(trace.LayerSage, 0, track, "send b0", 4096, 1, 2500, 2600)
	c.Wait(3, "app.f[0]", "recv", "mpi.rank0.recv(src=1,tag=7)", 2600, 2700, 2)
	c.FaultPoint(1, "drop link 0->1", 300)
	c.StreamGauge(1, trace.StreamTrack, "backlog", 4, 400)
	tr := trace.NewTrace()
	tr.Add(c)
	unlabelled := trace.New("")
	unlabelled.Span(trace.LayerSim, trace.NodeKernel, "kernel", "proc x", 0, 5)
	tr.Add(unlabelled)
	var seed bytes.Buffer
	if err := tr.WriteChrome(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		back, err := trace.ReadChrome(data)
		if err != nil {
			return
		}
		once := chromeOf(t, back.Runs())
		again, err := trace.ReadChrome(once)
		if err != nil {
			t.Fatalf("ReadChrome refuses WriteChrome's output: %v\n%s", err, once)
		}
		if twice := chromeOf(t, again.Runs()); !bytes.Equal(once, twice) {
			t.Fatalf("not a fixed point:\n%s\n%s", once, twice)
		}
	})
}

// BenchmarkWriteChrome exports the trace of the benchmark's ct512t class: a
// ct512 run of 5 iterations, 195 392 bytes of JSON.
func BenchmarkWriteChrome(b *testing.B) {
	tr := trace.NewTrace()
	tr.Add(sageRun(b, trace.New("ct512t"), "cornerturn", 512, sagert.Options{Iterations: 5}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.WriteChrome(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

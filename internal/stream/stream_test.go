package stream

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/sagert"
	"repro/internal/trace"
)

// remapScenario is the committed fault-then-remap case: node 1 suffers
// recurring 2ms stalls; the remap controller should move work off it after
// the first window fills, while the static baseline keeps hitting every
// stall. The same scenario backs the golden replay and CI's remap check.
func remapScenario() *Scenario {
	return &Scenario{
		App: "fft2d", N: 32, Threads: 2, Nodes: 4, Seed: 11,
		Classes: []Class{
			{Name: "interactive", Process: "poisson", Rate: 700, Frames: 40, SLOMs: 5},
			{Name: "batch", Process: "gamma", Rate: 150, Shape: 4, Frames: 10, Weight: 2},
		},
		Faults: `seed 3
stall node=1 at=2ms for=2ms
stall node=1 at=7ms for=2ms
stall node=1 at=12ms for=2ms
stall node=1 at=17ms for=2ms
stall node=1 at=22ms for=2ms
stall node=1 at=27ms for=2ms
stall node=1 at=32ms for=2ms
stall node=1 at=37ms for=2ms
stall node=1 at=42ms for=2ms
stall node=1 at=47ms for=2ms
stall node=1 at=52ms for=2ms
stall node=1 at=57ms for=2ms
stall node=1 at=62ms for=2ms
stall node=1 at=67ms for=2ms
stall node=1 at=72ms for=2ms
`,
		Remap: &RemapSpec{MaxRemaps: 1},
	}
}

func runScenario(t *testing.T, sc *Scenario) *Report {
	t.Helper()
	cfg, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildReport(cfg.Classes, cfg.Seed, res)
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	return rep
}

// TestRemapBeatsStatic is the subsystem's reason to exist: on the committed
// fault scenario the remapped run completes strictly more frames on time
// than the static mapping, and actually performed a migration.
func TestRemapBeatsStatic(t *testing.T) {
	sc := remapScenario()
	remap := runScenario(t, sc)
	static := runScenario(t, sc.Static())

	if len(remap.Remaps) == 0 {
		t.Fatal("remap run never remapped")
	}
	if remap.Remaps[0].Migrated == 0 {
		t.Error("remap event migrated no threads")
	}
	if remap.Remaps[0].Trigger != 1 {
		t.Errorf("remap triggered on node %d, want 1", remap.Remaps[0].Trigger)
	}
	if len(static.Remaps) != 0 {
		t.Fatal("static run remapped")
	}
	lateRemap := remap.Late + remap.Shed
	lateStatic := static.Late + static.Shed
	t.Logf("static: %d late + %d shed; remap: %d late + %d shed (stall %v)",
		static.Late, static.Shed, remap.Late, remap.Shed,
		time.Duration(remap.Remaps[0].StallNs))
	if lateRemap >= lateStatic {
		t.Errorf("remapping did not help: %d late/shed with remap, %d static", lateRemap, lateStatic)
	}
}

// TestStreamDeterministicBytes: the full fault+remap scenario produces
// byte-identical report JSON on repeated runs — the determinism contract the
// golden replay and the -parallel byte-diff in CI depend on.
func TestStreamDeterministicBytes(t *testing.T) {
	sc := remapScenario()
	var first []byte
	for i := 0; i < 2; i++ {
		rep := runScenario(t, sc)
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Fatal("repeated runs produced different report bytes")
		}
	}
}

// TestStreamNoGoroutineLeak: a full run (including the remap protocol and
// the controller) leaves no process goroutine behind; run under -race in CI.
func TestStreamNoGoroutineLeak(t *testing.T) {
	sc := remapScenario()
	cfg, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	// The kernel's Shutdown releases parked procs synchronously, but give the
	// scheduler a beat to reap them.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestStreamCancel: closing Cancel mid-run aborts with ErrCanceled and leaks
// nothing.
func TestStreamCancel(t *testing.T) {
	sc := remapScenario()
	cfg, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan struct{})
	close(ch)
	cfg.Cancel = ch
	cfg.CancelEvery = 1
	if _, err := Run(cfg); !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
}

// TestStreamShedding: a deadline tight against a saturating rate sheds
// frames, and the report stays internally consistent (Validate covers the
// accounting identities).
func TestStreamShedding(t *testing.T) {
	sc := &Scenario{
		App: "fft2d", N: 32, Threads: 2, Nodes: 4, Seed: 5,
		Classes: []Class{
			{Name: "firehose", Process: "poisson", Rate: 4000, Frames: 80, SLOMs: 3, ShedAfterMs: 1},
		},
	}
	rep := runScenario(t, sc)
	if rep.Shed == 0 {
		t.Error("saturating scenario shed nothing")
	}
	if rep.Completed == 0 {
		t.Error("nothing completed")
	}
	if rep.MaxBacklog == 0 {
		t.Error("no backlog recorded under saturation")
	}
}

// TestStreamTraceValidates: a traced fault+remap run passes the Chrome
// validator, carries stream-schema events (admit, qdepth gauges, remap
// protocol), and the summary mentions them.
func TestStreamTraceValidates(t *testing.T) {
	sc := remapScenario()
	cfg, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	col := trace.New("stream remap")
	cfg.Collector = col
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	tr := trace.NewTrace()
	tr.Add(col)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	stats, err := trace.ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("stream trace rejected: %v", err)
	}
	if stats.Streams == 0 {
		t.Fatal("no stream-category events in trace")
	}
	kinds := map[string]bool{}
	for _, s := range col.Streams() {
		kinds[s.Kind] = true
	}
	for _, want := range []string{"admit", "qdepth", "quiesce", "migrate", "resume", "remap"} {
		if !kinds[want] {
			t.Errorf("trace missing stream kind %q (have %v)", want, kinds)
		}
	}
	var sum bytes.Buffer
	if err := tr.WriteSummary(&sum); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sum.String(), "stream:") {
		t.Error("summary missing stream section")
	}
}

// TestScenarioErrors covers Build's rejection paths.
func TestScenarioErrors(t *testing.T) {
	cases := []*Scenario{
		{App: "nope", Classes: []Class{{Name: "a", Process: "poisson", Rate: 1, Frames: 1}}},
		{App: "fft2d", Mapping: "alphabetical", Classes: []Class{{Name: "a", Process: "poisson", Rate: 1, Frames: 1}}},
		{App: "fft2d"}, // no classes
		{App: "fft2d", Classes: []Class{{Name: "a", Process: "cauchy", Rate: 1, Frames: 1}}},
		{App: "fft2d", Faults: "stall node=99 at=1ms for=1ms", Classes: []Class{{Name: "a", Process: "poisson", Rate: 1, Frames: 1}}},
	}
	for i, sc := range cases {
		if _, err := sc.Build(); err == nil {
			t.Errorf("case %d: invalid scenario accepted", i)
		}
	}
}

// TestRunConfigErrors covers Run's own validation.
func TestRunConfigErrors(t *testing.T) {
	sc := &Scenario{App: "fft2d", N: 32, Threads: 2, Nodes: 4,
		Classes: []Class{{Name: "a", Process: "poisson", Rate: 100, Frames: 1}}}
	cfg, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Tables = nil
	if _, err := Run(bad); err == nil {
		t.Error("nil tables accepted")
	}
	bad = cfg
	bad.Classes = nil
	if _, err := Run(bad); err == nil {
		t.Error("no classes accepted")
	}
	bad = cfg
	bad.Remap = &RemapConfig{}
	bad.App = nil
	if _, err := Run(bad); err == nil {
		t.Error("remap without app accepted")
	}
	bad = cfg
	bad.Platform.Name = "other"
	if _, err := Run(bad); err == nil {
		t.Error("platform mismatch accepted")
	}
}

// TestStreamRefusesTagSpaceOverflow: 256 threads per function overflow the
// (buffer, src, dst) tag packing, so lanes would alias silently. The batch
// runtime has always refused such tables; the streaming runtime must refuse
// them too, and with the same words.
func TestStreamRefusesTagSpaceOverflow(t *testing.T) {
	sc := &Scenario{App: "fft2d", N: 256, Threads: 256, Nodes: 256, Platform: "Mercury",
		Classes: []Class{{Name: "a", Process: "poisson", Rate: 100, Frames: 1}}}
	cfg, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	const want = `function "fft_rows" has 256 threads, limit 128`
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("stream.Run: error %v, want one containing %q", err, want)
	}
	if _, err := sagert.Run(cfg.Tables, cfg.Platform, sagert.Options{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("sagert.Run: error %v, want one containing %q", err, want)
	}
}

// TestAllocCeilingTracedStreamNames: a traced run names each thread's
// queue-depth gauge once, when the thread starts, and each buffer's credit
// stall once, when the run starts — not once per slot or per stall. Going
// from 50 to 250 frames of a traced fft2d 32 run costs 13.7 allocations a
// frame: the names that carry a frame's class and index (admit, frame),
// and the trace's own chunks. Naming the gauge per slot and the stall per
// stall cost 31.7. The bar is 24, which holds the race detector's
// bookkeeping (20.6).
func TestAllocCeilingTracedStreamNames(t *testing.T) {
	mallocs := func(frames int) uint64 {
		sc := &Scenario{App: "fft2d", N: 32, Threads: 2, Nodes: 4, Seed: 11,
			Classes: []Class{{Name: "c", Process: "poisson", Rate: 300, Frames: frames}}}
		cfg, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Collector = trace.New("names")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	mallocs(10) // warm one-time state outside the measurement
	const few, many = 50, 250
	perFrame := float64(mallocs(many)-mallocs(few)) / (many - few)
	t.Logf("%.2f allocations a frame", perFrame)
	if perFrame > 24 {
		t.Errorf("a traced stream run makes %.2f allocations a frame, want <= 24", perFrame)
	}
}

package sagert

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/gluegen"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/platforms"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The step machine (step.go) is held to threadMain, the coroutine it
// replaced (threadmain_test.go), over seeded runs: fft2d and corner turn on
// CSPI, SKY and Mercury, under every Options path on its own and in
// combination.

// stepScenario is one seeded run.
type stepScenario struct {
	name        string
	tables      *gluegen.Tables
	pl          machine.Platform
	opts        Options
	traced      bool // a Collector
	cancelEvery int  // > 0: Cancel is closed, polled every cancelEvery dispatches
	starve      int  // >= 0: this edge's credits start at zero, which deadlocks the run
}

func newStepScenario(t *testing.T, seed int64) *stepScenario {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sc := &stepScenario{starve: -1}
	build, kind := apps.FFT2D, "fft2d"
	if rng.Intn(2) == 0 {
		build, kind = apps.CornerTurn, "ct"
	}
	n, threads := []int{16, 32}[rng.Intn(2)], []int{1, 2, 4}[rng.Intn(3)]
	app, err := build(n, threads)
	if err != nil {
		t.Fatal(err)
	}
	sc.pl = []machine.Platform{platforms.CSPI(), platforms.SKY(), platforms.Mercury()}[rng.Intn(3)]
	nodes := max(2, threads) + rng.Intn(3)
	var mapping *model.Mapping
	switch rng.Intn(3) {
	case 0:
		mapping, err = model.SpreadParallel(app, nodes)
	case 1:
		mapping, err = model.StaggerParallel(app, nodes)
	default:
		mapping = randomMapping(rng, app, nodes) // co-located threads: local handoffs
	}
	if err != nil {
		t.Fatal(err)
	}
	gen, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: sc.pl, NumNodes: nodes})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	sc.tables = gen.Tables
	o := Options{Iterations: 1 + rng.Intn(4), BufferSlots: rng.Intn(4)}
	var tags []string
	if rng.Intn(2) == 0 {
		o.Faults = scenarioFaults(rng, nodes)
		o.Resilience.Degraded = rng.Intn(2) == 0
		us := func(n int) sim.Duration { return sim.Duration(10+rng.Intn(n)) * time.Microsecond }
		if rng.Intn(3) > 0 {
			o.Resilience.RecvTimeout = us(150)
		}
		if rng.Intn(3) > 0 {
			o.Resilience.CreditTimeout = us(150)
		}
		o.Resilience.MaxCreditOvercommit = rng.Intn(4)
		tags = append(tags, "faults")
	}
	if rng.Intn(3) == 0 {
		o.OptimizedBuffers = true
		tags = append(tags, "optimized")
	}
	if rng.Intn(4) == 0 {
		o.Sequential = true
		tags = append(tags, "sequential")
	}
	if rng.Intn(4) == 0 {
		o.InputPeriod = sim.Duration(5+rng.Intn(100)) * time.Microsecond // far under an iteration: it overruns
		tags = append(tags, "paced")
	}
	switch rng.Intn(4) {
	case 0:
		o.ComputeIterations = NoSamples
		tags = append(tags, "nosamples")
	case 1:
		o.ComputeIterations = 2
	}
	if rng.Intn(3) == 0 {
		sc.traced = true
		tags = append(tags, "traced")
	}
	if rng.Intn(6) == 0 {
		sc.cancelEvery = 20 + rng.Intn(600)
		tags = append(tags, "cancel")
	}
	if o.Faults.Empty() && sc.cancelEvery == 0 && rng.Intn(10) == 0 {
		xp, err := plan.Build(gen.Tables)
		if err != nil {
			t.Fatal(err)
		}
		sc.starve = rng.Intn(len(xp.Edges))
		tags = append(tags, "starved")
	}
	sc.opts = o
	sc.name = fmt.Sprintf("seed %d: %s %d/%dt on %s x%d [%s]", seed, kind, n, threads, sc.pl.Name, nodes, strings.Join(tags, " "))
	return sc
}

// scenarioFaults is a seeded fault plan on nodes nodes: background drops,
// sometimes a degraded link, an outage and a stall or two.
func scenarioFaults(rng *rand.Rand, nodes int) *fault.Plan {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d\ndrop link=* rate=%.2f\n", rng.Intn(100), 0.05+0.3*rng.Float64())
	link := func() (int, int) {
		a := rng.Intn(nodes)
		return a, (a + 1 + rng.Intn(nodes-1)) % nodes
	}
	if rng.Intn(2) == 0 {
		a, c := link()
		fmt.Fprintf(&b, "degrade link=%d->%d bw=0.5 lat=+%dus\n", a, c, rng.Intn(30))
	}
	if rng.Intn(2) == 0 {
		a, c := link()
		from := rng.Intn(300)
		fmt.Fprintf(&b, "degrade link=%d->%d bw=0 from=%dus to=%dus\n", a, c, from, from+50+rng.Intn(300))
	}
	for s := rng.Intn(3); s > 0; s-- {
		fmt.Fprintf(&b, "stall node=%d at=%dus for=%dus\n", rng.Intn(nodes), rng.Intn(500), 50+rng.Intn(400))
	}
	p, err := fault.ParsePlan(b.String())
	if err != nil {
		panic(err)
	}
	return p
}

// stepRun is everything observable about one run.
type stepRun struct {
	Res        *Result // Switches zeroed: compared apart
	Sinks      []string
	Err        string
	Hooks      []string // the kernel's tracer (no Collector)
	Chrome     []byte   // the Collector's trace (with one)
	Dispatched uint64
	Seq        uint64
	End        sim.Time
	Switches   uint64
}

// run executes the scenario with spawn driving the threads (nil: the step
// machine).
func (sc *stepScenario) run(t *testing.T, spawn func(*runner, *sim.Kernel)) *stepRun {
	t.Helper()
	o := sc.opts
	out := &stepRun{}
	if sc.traced {
		o.Collector = trace.New("step")
	}
	if sc.cancelEvery > 0 {
		cancel := make(chan struct{})
		close(cancel)
		o.Cancel, o.CancelEvery = cancel, sc.cancelEvery
	}
	rec := &hookRec{}
	var k *sim.Kernel
	res, err := run(sc.tables, sc.pl, o, runHooks{spawn: spawn, setup: func(r *runner, kk *sim.Kernel) {
		k = kk
		if o.Collector == nil {
			kk.SetTracer(rec)
		}
		if sc.starve >= 0 {
			r.credits[sc.starve] = 0
		}
	}})
	out.Err = fmt.Sprint(err)
	out.Dispatched, out.Seq, out.End = k.Dispatched(), k.Scheduled(), k.Now()
	if res != nil {
		out.Switches, res.Switches = res.Switches, 0
		out.Res, out.Sinks = res, sinkBits(res)
	}
	out.Hooks = rec.lines
	if o.Collector != nil {
		out.Chrome = chromeBytes(t, o.Collector)
	}
	return out
}

// sinkBits renders every sink sample's bits, so equal means bit for bit.
func sinkBits(res *Result) []string {
	var out []string
	for name, m := range res.Outputs {
		var b strings.Builder
		for _, v := range m.Data {
			fmt.Fprintf(&b, "%x,%x;", math.Float64bits(real(v)), math.Float64bits(imag(v)))
		}
		out = append(out, name+"="+b.String())
	}
	sort.Strings(out)
	return out
}

// chromeBytes serialises a collector to Chrome trace JSON — the bytes a user
// would actually write to disk, and therefore the strictest practical
// definition of "the trace is identical".
func chromeBytes(t *testing.T, c *trace.Collector) []byte {
	t.Helper()
	tr := trace.NewTrace()
	tr.Add(c)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hookRec records the complete sim hook stream.
type hookRec struct {
	lines []string
}

func (h *hookRec) add(v ...any)                                { h.lines = append(h.lines, fmt.Sprint(v...)) }
func (h *hookRec) ProcStart(pid int, name string, at sim.Time) { h.add("start ", pid, name, at) }
func (h *hookRec) ProcEnd(pid int, name string, at sim.Time)   { h.add("end ", pid, name, at) }
func (h *hookRec) Wait(pid int, proc, kind, object string, from, to sim.Time, depth int) {
	h.add("wait ", pid, proc, kind, object, from, to, depth)
}
func (h *hookRec) ChanOp(op, name string, qlen int, at sim.Time) { h.add("chan ", op, name, qlen, at) }
func (h *hookRec) ResourceOp(op, name string, inUse, capacity, queued int, at sim.Time) {
	h.add("res ", op, name, inUse, capacity, queued, at)
}

// TestStepMachineMatchesThreadMain is the step machine's oracle test. Over
// seeded scenarios — fft2d and corner turn on CSPI, SKY and Mercury, spread,
// staggered and randomly co-located; faults with short receive and credit
// timeouts, overcommit budgets and degraded re-sequencing; optimised local
// buffers; the Sequential barrier; overrunning InputPeriod pacing; NoSamples;
// a Collector; a cancel firing mid-run;
// runs starved of a credit into a deadlock — it demands, of the step machine
// against threadMain as a coroutine: the full sim hook stream (or the Collector's Chrome trace),
// the Result and every sink sample bit for bit, Dispatched, the last
// sequence number, the clock, and Run's error, deadlock reports included —
// equal, not close. The step machine switches never.
func TestStepMachineMatchesThreadMain(t *testing.T) {
	const scenarios = 220
	seen := map[string]int{}
	for seed := int64(0); seed < scenarios; seed++ {
		sc := newStepScenario(t, seed)
		want := sc.run(t, spawnCoroutines)
		got := sc.run(t, nil)
		if got.Switches != 0 {
			t.Fatalf("%s: the step machine made %d process switches", sc.name, got.Switches)
		}
		want.Switches = 0
		if !reflect.DeepEqual(want, got) {
			reportStepDiff(t, sc.name, "threadMain", "step machine", want, got)
		}
		switch {
		case strings.Contains(want.Err, "deadlock"):
			seen["deadlock"]++
		case strings.Contains(want.Err, "canceled"):
			seen["canceled mid-run"]++
		case want.Err != "<nil>":
			t.Fatalf("%s: %s", sc.name, want.Err)
		}
		if want.Res != nil && want.Res.MaxOverrun > 0 {
			seen["overrun"]++
		}
		for _, span := range []string{"recv-timeout", "credit-timeout", "overcommit", "retry"} {
			if bytes.Contains(want.Chrome, []byte(span)) {
				seen[span]++
			}
		}
		if sc.opts.OptimizedBuffers && want.Res != nil && want.Res.Dispatches > 0 {
			seen["optimized"]++
		}
		if sc.opts.Sequential {
			seen["sequential"]++
		}
		if sc.opts.ComputeIterations == NoSamples {
			seen["nosamples"]++
		}
		if bytes.Contains(want.Chrome, []byte(`"name":"compute"`)) {
			seen["traced"]++
		}
	}
	t.Logf("%d scenarios: %v", scenarios, seen)
	for _, path := range []string{"deadlock", "canceled mid-run", "overrun", "recv-timeout", "credit-timeout",
		"overcommit", "retry", "optimized", "sequential", "nosamples", "traced"} {
		if seen[path] == 0 {
			t.Errorf("no scenario took the %s path", path)
		}
	}
}

// reportStepDiff fails the test with the first difference of each kind
// between the oracle's run, want, and got.
func reportStepDiff(t *testing.T, label, oracle, subject string, want, got *stepRun) {
	t.Helper()
	first := func(what string, a, b []string) {
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Errorf("%s %s: entry %d: %s %s, %s %s", label, what, i, oracle, a[i], subject, b[i])
				return
			}
		}
		if len(a) != len(b) {
			t.Errorf("%s %s: %s %d entries, %s %d", label, what, oracle, len(a), subject, len(b))
		}
	}
	first("hooks", want.Hooks, got.Hooks)
	if !bytes.Equal(want.Chrome, got.Chrome) {
		first("chrome trace", strings.Split(string(want.Chrome), "\n"), strings.Split(string(got.Chrome), "\n"))
	}
	if !reflect.DeepEqual(want.Res, got.Res) || !reflect.DeepEqual(want.Sinks, got.Sinks) {
		t.Errorf("%s: results differ:\n%s %+v\n%s %+v", label, oracle, want.Res, subject, got.Res)
	}
	t.Fatalf("%s: dispatched %d vs %d, seq %d vs %d, end %v vs %v, err %q vs %q",
		label, want.Dispatched, got.Dispatched, want.Seq, got.Seq, want.End, got.End, want.Err, got.Err)
}

// TestLazyStepScenariosMatchEager holds nodes and endpoints built on first
// use to the machine and world that built them all up front, over the step
// machine's seeded scenarios: the full hook stream (or the Chrome trace),
// the Result and sink bits, Dispatched, the last sequence number, the clock
// and Run's error, deadlock reports included. TestLazyNodesMatchEager
// covers the conformance corpus and the 1 024-node shape.
func TestLazyStepScenariosMatchEager(t *testing.T) {
	eager := func(r *runner, k *sim.Kernel) {
		buildEveryNode(r)
		r.spawn(k)
	}
	deadlocks := 0
	for seed := int64(0); seed < 220; seed++ {
		sc := newStepScenario(t, seed)
		want := sc.run(t, eager)
		got := sc.run(t, nil)
		if !reflect.DeepEqual(want, got) {
			reportStepDiff(t, sc.name, "eager", "first use", want, got)
		}
		if strings.Contains(want.Err, "deadlock") {
			deadlocks++
		}
	}
	if deadlocks == 0 {
		t.Error("no scenario deadlocked")
	}
}

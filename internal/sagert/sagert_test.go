package sagert

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/funclib"
	"repro/internal/gluegen"
	"repro/internal/handcoded"
	"repro/internal/isspl"
	"repro/internal/model"
	"repro/internal/platforms"
)

// genTables generates verified tables for a benchmark app.
func genTables(t *testing.T, build func(n, threads int) (*model.App, error), n, threads, nodes int) *gluegen.Tables {
	t.Helper()
	app, err := build(n, threads)
	if err != nil {
		t.Fatal(err)
	}
	mapping, err := model.SpreadParallel(app, nodes)
	if err != nil {
		t.Fatal(err)
	}
	out, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: platforms.CSPI(), NumNodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	return out.Tables
}

// sourceMatrix reproduces the source_matrix generator output.
func sourceMatrix(n int, seed int64, iter int) *isspl.Matrix {
	m := isspl.NewMatrix(n, n)
	b := &funclib.Block{Region: model.Region{Rows: n, Cols: n}, Data: m.Data}
	funclib.FillSource(b, seed, iter)
	return m
}

func TestRunFFT2DProducesTransform(t *testing.T) {
	for _, threads := range []int{1, 2, 4} {
		threads := threads
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			const n = 32
			tb := genTables(t, apps.FFT2D, n, threads, 4)
			res, err := Run(tb, platforms.CSPI(), Options{Iterations: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := sourceMatrix(n, 1, 0)
			if err := isspl.FFT2D(want.Data, n); err != nil {
				t.Fatal(err)
			}
			if res.Output == nil {
				t.Fatal("no output collected")
			}
			if d := res.Output.MaxDiff(want); d > 1e-6 {
				t.Fatalf("output deviates by %g", d)
			}
		})
	}
}

func TestRunCornerTurnProducesTranspose(t *testing.T) {
	const n = 32
	tb := genTables(t, apps.CornerTurn, n, 4, 4)
	res, err := Run(tb, platforms.CSPI(), Options{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := sourceMatrix(n, 1, 0).Transposed()
	if d := res.Output.MaxDiff(want); d != 0 {
		t.Fatalf("output deviates by %g", d)
	}
}

func TestRunSTAPPipeline(t *testing.T) {
	const n = 32
	tb := genTables(t, apps.STAP, n, 4, 4)
	res, err := Run(tb, platforms.CSPI(), Options{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: window rows, FFT rows, FFT cols, |.|^2.
	want := sourceMatrix(n, 7, 0)
	w, _ := isspl.Window(isspl.WindowHamming, n)
	for r := 0; r < n; r++ {
		isspl.VApplyWindow(want.Data[r*n:(r+1)*n], want.Data[r*n:(r+1)*n], w)
	}
	if err := isspl.FFTRows(want.Data, n, n); err != nil {
		t.Fatal(err)
	}
	isspl.TransposeSquare(want.Data, n)
	if err := isspl.FFTRows(want.Data, n, n); err != nil {
		t.Fatal(err)
	}
	isspl.TransposeSquare(want.Data, n)
	for i, v := range want.Data {
		re, im := real(v), imag(v)
		want.Data[i] = complex(re*re+im*im, 0)
	}
	if d := res.Output.MaxDiff(want); d > 1e-5 {
		t.Fatalf("STAP output deviates by %g", d)
	}
}

func TestOutputIdenticalAcrossThreadCounts(t *testing.T) {
	const n = 32
	ref, err := Run(genTables(t, apps.FFT2D, n, 1, 4), platforms.CSPI(), Options{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{2, 3, 4} {
		res, err := Run(genTables(t, apps.FFT2D, n, threads, 4), platforms.CSPI(), Options{Iterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		if d := res.Output.MaxDiff(ref.Output); d > 1e-9 {
			t.Fatalf("threads=%d output differs by %g", threads, d)
		}
	}
}

func TestLatencyAndPeriod(t *testing.T) {
	tb := genTables(t, apps.FFT2D, 64, 4, 4)
	res, err := Run(tb, platforms.CSPI(), Options{Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Latencies) != 6 {
		t.Fatalf("latencies = %d", len(res.Latencies))
	}
	for i, l := range res.Latencies {
		if l <= 0 {
			t.Fatalf("iteration %d latency %v", i, l)
		}
	}
	// Pipelined dataflow: steady-state period must not exceed latency.
	if res.Period > res.AvgLatency() {
		t.Fatalf("period %v > avg latency %v (no pipelining?)", res.Period, res.AvgLatency())
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	if len(res.NodeStats) != 4 {
		t.Fatalf("node stats = %d", len(res.NodeStats))
	}
	busy := false
	for _, ns := range res.NodeStats {
		if ns.ComputeBusy > 0 {
			busy = true
		}
	}
	if !busy {
		t.Fatal("no node reported compute time")
	}
}

func TestDeterministicTiming(t *testing.T) {
	tb := genTables(t, apps.CornerTurn, 64, 4, 4)
	a, err := Run(tb, platforms.CSPI(), Options{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tb, platforms.CSPI(), Options{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Latencies {
		if a.Latencies[i] != b.Latencies[i] {
			t.Fatalf("nondeterministic: %v vs %v", a.Latencies, b.Latencies)
		}
	}
}

func TestChargeOnlyIterationsSameTiming(t *testing.T) {
	// Charge-only iterations must be timing-identical to computing ones:
	// run the same schedule with all iterations computing, with only the
	// first computing and with none, and compare latencies elementwise. The
	// float-typed model has a wire size other than a complex sample's: its
	// messages cost the table's bytes with or without a body.
	floatApp := func(n, threads int) (*model.App, error) {
		app, err := apps.FFT2D(n, threads)
		if err == nil {
			app.Types["matrix"].Elem = model.ElemFloat
		}
		return app, err
	}
	for name, build := range map[string]func(n, threads int) (*model.App, error){"complex": apps.FFT2D, "float": floatApp} {
		tb := genTables(t, build, 64, 4, 4)
		full, err := Run(tb, platforms.CSPI(), Options{Iterations: 4, ComputeIterations: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, computeIters := range []int{1, NoSamples} {
			lazy, err := Run(tb, platforms.CSPI(), Options{Iterations: 4, ComputeIterations: computeIters})
			if err != nil {
				t.Fatal(err)
			}
			for i := range full.Latencies {
				if full.Latencies[i] != lazy.Latencies[i] {
					t.Fatalf("%s, %d compute iterations, iteration %d: compute %v vs charge-only %v",
						name, computeIters, i, full.Latencies[i], lazy.Latencies[i])
				}
			}
		}
	}
}

func TestSageSlowerThanHandCodedButComparable(t *testing.T) {
	// The central claim of the paper, as a smoke check at small scale: the
	// generated code runs slower than hand-coded, but within a small
	// constant factor (the paper reports 75-90%).
	const n, nodes = 256, 4
	tb := genTables(t, apps.FFT2D, n, nodes, nodes)
	sage, err := Run(tb, platforms.CSPI(), Options{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	hand, err := handcoded.FFT2D(handcoded.Config{Platform: platforms.CSPI(), Nodes: nodes, N: n, Iterations: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(hand.AvgLatency()) / float64(sage.AvgLatency())
	if ratio >= 1.0 {
		t.Fatalf("SAGE (%v) outperformed hand-coded (%v): overhead model missing", sage.AvgLatency(), hand.AvgLatency())
	}
	if ratio < 0.5 {
		t.Fatalf("SAGE (%v) more than 2x slower than hand-coded (%v): ratio %.2f", sage.AvgLatency(), hand.AvgLatency(), ratio)
	}
	t.Logf("FFT2D n=%d nodes=%d: hand=%v sage=%v efficiency=%.1f%%", n, nodes, hand.AvgLatency(), sage.AvgLatency(), 100*ratio)
}

func TestOptimizedBuffersFasterAndCorrect(t *testing.T) {
	const n = 64
	tb := genTables(t, apps.CornerTurn, n, 4, 4)
	plain, err := Run(tb, platforms.CSPI(), Options{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Run(tb, platforms.CSPI(), Options{Iterations: 2, OptimizedBuffers: true})
	if err != nil {
		t.Fatal(err)
	}
	if opt.AvgLatency() >= plain.AvgLatency() {
		t.Fatalf("optimized (%v) not faster than plain (%v)", opt.AvgLatency(), plain.AvgLatency())
	}
	if d := opt.Output.MaxDiff(plain.Output); d != 0 {
		t.Fatalf("optimized output differs by %g", d)
	}
}

func TestTraceEvents(t *testing.T) {
	tb := genTables(t, apps.CornerTurn, 32, 2, 2)
	var events []Event
	_, err := Run(tb, platforms.CSPI(), Options{
		Iterations: 2, ProbeAll: true,
		Trace: func(e Event) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no trace events")
	}
	phases := map[string]bool{}
	for _, e := range events {
		phases[e.Phase] = true
		if e.End < e.Start {
			t.Fatalf("event ends before it starts: %+v", e)
		}
		if e.FnName == "" {
			t.Fatalf("unnamed event: %+v", e)
		}
	}
	for _, want := range []string{"recv", "compute", "send"} {
		if !phases[want] {
			t.Fatalf("missing phase %q in %v", want, phases)
		}
	}
	// Without ProbeAll and without probe properties, no events.
	var none []Event
	_, err = Run(tb, platforms.CSPI(), Options{Iterations: 1, Trace: func(e Event) { none = append(none, e) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("unprobed run emitted %d events", len(none))
	}
}

func TestProbePropertyEnablesTracing(t *testing.T) {
	app, err := apps.CornerTurn(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	app.Function("turn").SetProp("probe", true)
	mapping, _ := model.SpreadParallel(app, 2)
	out, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: platforms.CSPI(), NumNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	if _, err := Run(out.Tables, platforms.CSPI(), Options{Iterations: 1, Trace: func(e Event) { events = append(events, e) }}); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("probe property did not enable tracing")
	}
	for _, e := range events {
		if e.FnName != "turn" {
			t.Fatalf("unprobed function traced: %+v", e)
		}
	}
}

func TestPlatformMismatchRejected(t *testing.T) {
	tb := genTables(t, apps.CornerTurn, 32, 2, 2)
	_, err := Run(tb, platforms.Mercury(), Options{Iterations: 1})
	if err == nil || !strings.Contains(err.Error(), "regenerate") {
		t.Fatalf("err = %v", err)
	}
}

func TestComputeErrorPropagates(t *testing.T) {
	// A library function failing at runtime must abort the run with a
	// descriptive error, not hang or panic. Validation refuses a model whose
	// Compute can fail, so the bad window parameter goes into the generated
	// tables — what sage run -tables accepts from a file, unvalidated.
	app := model.NewApp("failing")
	mt, _ := app.AddType(&model.DataType{Name: "m", Rows: 16, Cols: 16, Elem: model.ElemComplex})
	src := app.AddFunction(&model.Function{Name: "src", Kind: "source_matrix", Threads: 1})
	src.AddOutput("out", mt, model.ByRows)
	w := app.AddFunction(&model.Function{Name: "w", Kind: "window_rows", Threads: 2,
		Params: map[string]any{"window": "hann"}})
	w.AddInput("in", mt, model.ByRows)
	w.AddOutput("out", mt, model.ByRows)
	snk := app.AddFunction(&model.Function{Name: "snk", Kind: "sink_matrix", Threads: 1})
	snk.AddInput("in", mt, model.ByRows)
	for _, c := range [][4]string{{"src", "out", "w", "in"}, {"w", "out", "snk", "in"}} {
		if _, err := app.Connect(c[0], c[1], c[2], c[3]); err != nil {
			t.Fatal(err)
		}
	}
	app.AssignIDs()
	mapping, _ := model.SpreadParallel(app, 2)
	out, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: platforms.CSPI(), NumNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	out.Tables.Functions[w.ID].Params["window"] = "nonexistent"
	_, err = Run(out.Tables, platforms.CSPI(), Options{Iterations: 2})
	if err == nil {
		t.Fatal("runtime error swallowed")
	}
	for _, want := range []string{"w", "iteration 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

func TestCorruptTablesRejected(t *testing.T) {
	tb := genTables(t, apps.CornerTurn, 32, 2, 2)
	tb.Order = tb.Order[:1]
	if _, err := Run(tb, platforms.CSPI(), Options{Iterations: 1}); err == nil {
		t.Fatal("corrupt tables accepted")
	}
}

func TestBufferSlotsThrottlePipelining(t *testing.T) {
	// With 1 slot the source is fully synchronous with its consumer; with
	// more slots the pipeline overlaps and total elapsed time drops (or at
	// least does not increase).
	tb := genTables(t, apps.FFT2D, 64, 4, 4)
	one, err := Run(tb, platforms.CSPI(), Options{Iterations: 6, BufferSlots: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(tb, platforms.CSPI(), Options{Iterations: 6, BufferSlots: 4})
	if err != nil {
		t.Fatal(err)
	}
	if four.Elapsed > one.Elapsed {
		t.Fatalf("more buffer slots slowed the pipeline: %v vs %v", four.Elapsed, one.Elapsed)
	}
}

func TestFanOutToTwoSinks(t *testing.T) {
	// One producer feeding two branches with different processing and two
	// sinks; the runtime must collect both outputs.
	const n, nodes = 32, 4
	app := model.NewApp("fan")
	mt, _ := app.AddType(&model.DataType{Name: "m", Rows: n, Cols: n, Elem: model.ElemComplex})
	src := app.AddFunction(&model.Function{Name: "src", Kind: "source_matrix", Threads: 1, Params: map[string]any{"seed": 6}})
	src.AddOutput("out", mt, model.ByRows)
	left := app.AddFunction(&model.Function{Name: "left", Kind: "scale", Threads: 2, Params: map[string]any{"factor": 2.0}})
	left.AddInput("in", mt, model.ByRows)
	left.AddOutput("out", mt, model.ByRows)
	right := app.AddFunction(&model.Function{Name: "right", Kind: "mag2", Threads: 2})
	right.AddInput("in", mt, model.ByRows)
	right.AddOutput("out", mt, model.ByRows)
	sinkL := app.AddFunction(&model.Function{Name: "sinkL", Kind: "sink_matrix", Threads: 1})
	sinkL.AddInput("in", mt, model.ByRows)
	sinkR := app.AddFunction(&model.Function{Name: "sinkR", Kind: "sink_matrix", Threads: 1})
	sinkR.AddInput("in", mt, model.ByRows)
	for _, c := range [][4]string{
		{"src", "out", "left", "in"}, {"src", "out", "right", "in"},
		{"left", "out", "sinkL", "in"}, {"right", "out", "sinkR", "in"},
	} {
		if _, err := app.Connect(c[0], c[1], c[2], c[3]); err != nil {
			t.Fatal(err)
		}
	}
	app.AssignIDs()
	mapping, _ := model.SpreadParallel(app, nodes)
	out, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: platforms.CSPI(), NumNodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(out.Tables, platforms.CSPI(), Options{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 2 {
		t.Fatalf("outputs = %d sinks", len(res.Outputs))
	}
	in := sourceMatrix(n, 6, 0)
	l, r := res.Outputs["sinkL"], res.Outputs["sinkR"]
	if l == nil || r == nil {
		t.Fatal("missing sink outputs")
	}
	for i := 0; i < 5; i++ {
		if l.Data[i] != 2*in.Data[i] {
			t.Fatalf("left branch wrong at %d", i)
		}
		re, im := real(in.Data[i]), imag(in.Data[i])
		if real(r.Data[i])-(re*re+im*im) > 1e-12 {
			t.Fatalf("right branch wrong at %d", i)
		}
	}
	if res.Output != l {
		t.Fatal("Output should alias the first sink in table order")
	}
}

func TestShapeChangingPipeline(t *testing.T) {
	// A decimating stage narrows the data type mid-pipeline; the generator
	// and runtime must carry the differing port shapes through.
	const n, factor, nodes = 64, 4, 4
	app := model.NewApp("chan")
	frame, _ := app.AddType(&model.DataType{Name: "frame", Rows: n, Cols: n, Elem: model.ElemComplex})
	narrow, _ := app.AddType(&model.DataType{Name: "narrow", Rows: n, Cols: n / factor, Elem: model.ElemComplex})
	src := app.AddFunction(&model.Function{Name: "src", Kind: "source_matrix", Threads: 1, Params: map[string]any{"seed": 4}})
	src.AddOutput("out", frame, model.ByRows)
	dec := app.AddFunction(&model.Function{Name: "dec", Kind: "fir_decimate_rows", Threads: nodes,
		Params: map[string]any{"ntaps": 5, "factor": factor}})
	dec.AddInput("in", frame, model.ByRows)
	dec.AddOutput("out", narrow, model.ByRows)
	snk := app.AddFunction(&model.Function{Name: "snk", Kind: "sink_matrix", Threads: 1})
	snk.AddInput("in", narrow, model.ByRows)
	for _, c := range [][4]string{{"src", "out", "dec", "in"}, {"dec", "out", "snk", "in"}} {
		if _, err := app.Connect(c[0], c[1], c[2], c[3]); err != nil {
			t.Fatal(err)
		}
	}
	app.AssignIDs()
	mapping, _ := model.SpreadParallel(app, nodes)
	out, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: platforms.CSPI(), NumNodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(out.Tables, platforms.CSPI(), Options{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Rows != n || res.Output.Cols != n/factor {
		t.Fatalf("output shape %dx%d", res.Output.Rows, res.Output.Cols)
	}
	// Verify one row against the library directly.
	in := sourceMatrix(n, 4, 0)
	taps := funclib.LowpassTaps(5)
	want := make([]complex128, n/factor)
	isspl.FIRDecimate(want, in.Row(3), taps, factor)
	if d := isspl.MaxDiff(res.Output.Row(3), want); d > 1e-12 {
		t.Fatalf("decimated row deviates by %g", d)
	}
}

func TestNodeSpeedsAffectTiming(t *testing.T) {
	tb := genTables(t, apps.FFT2D, 128, 4, 4)
	base, err := Run(tb, platforms.CSPI(), Options{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(tb, platforms.CSPI(), Options{Iterations: 1, NodeSpeeds: []float64{2, 2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	slowOne, err := Run(tb, platforms.CSPI(), Options{Iterations: 1, NodeSpeeds: []float64{0.25}})
	if err != nil {
		t.Fatal(err)
	}
	if fast.AvgLatency() >= base.AvgLatency() {
		t.Fatalf("2x nodes (%v) not faster than baseline (%v)", fast.AvgLatency(), base.AvgLatency())
	}
	if slowOne.AvgLatency() <= base.AvgLatency() {
		t.Fatalf("one slow node (%v) not slower than baseline (%v)", slowOne.AvgLatency(), base.AvgLatency())
	}
	// Numerics unaffected by speed.
	if d := fast.Output.MaxDiff(base.Output); d != 0 {
		t.Fatalf("speeds changed results by %g", d)
	}
}

func TestInputPeriodPacingAndOverrun(t *testing.T) {
	tb := genTables(t, apps.CornerTurn, 64, 4, 4)
	free, err := Run(tb, platforms.CSPI(), Options{Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	if free.MaxOverrun != 0 {
		t.Fatalf("unpaced run reports overrun %v", free.MaxOverrun)
	}
	// Slack pacing: the period becomes the input period, no overrun.
	slack, err := Run(tb, platforms.CSPI(), Options{Iterations: 6, InputPeriod: 2 * free.Period})
	if err != nil {
		t.Fatal(err)
	}
	if slack.MaxOverrun != 0 {
		t.Fatalf("slack pacing overran by %v", slack.MaxOverrun)
	}
	if slack.Period < 2*free.Period-free.Period/10 {
		t.Fatalf("paced period %v, want ~%v", slack.Period, 2*free.Period)
	}
	// Overdriven pacing: the source cannot keep the schedule.
	hot, err := Run(tb, platforms.CSPI(), Options{Iterations: 8, InputPeriod: free.Period / 3})
	if err != nil {
		t.Fatal(err)
	}
	if hot.MaxOverrun == 0 {
		t.Fatal("overdriven pacing reported no overrun")
	}
}

func TestMultipleThreadsShareNodeCPU(t *testing.T) {
	// Mapping all 4 worker threads onto one node must be slower than
	// spreading them over 4 nodes: the CPU resource serialises them.
	app, err := apps.FFT2D(128, 4)
	if err != nil {
		t.Fatal(err)
	}
	packed := model.NewMapping()
	for _, f := range app.Functions {
		nodes := make([]int, f.Threads)
		packed.Set(f.Name, nodes...) // all zeros
	}
	outPacked, err := gluegen.Generate(gluegen.Input{App: app, Mapping: packed, Platform: platforms.CSPI(), NumNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	spread, _ := model.SpreadParallel(app, 4)
	outSpread, err := gluegen.Generate(gluegen.Input{App: app, Mapping: spread, Platform: platforms.CSPI(), NumNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Run(outPacked.Tables, platforms.CSPI(), Options{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(outSpread.Tables, platforms.CSPI(), Options{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rp.AvgLatency() <= rs.AvgLatency() {
		t.Fatalf("packed mapping (%v) not slower than spread (%v)", rp.AvgLatency(), rs.AvgLatency())
	}
	// Results identical regardless of mapping.
	if d := rp.Output.MaxDiff(rs.Output); d != 0 {
		t.Fatalf("mapping changed results by %g", d)
	}
}

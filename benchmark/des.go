package main

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/conformance"
	"repro/internal/fault"
	"repro/internal/gluegen"
	"repro/internal/handcoded"
	"repro/internal/isspl"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/sagert"
	"repro/internal/trace"
	"repro/internal/twin"
)

// faultPlanText is the canonical fault plan internal/bench uses for its
// faulted cells: a light uniform drop rate plus one node stall.
const faultPlanText = `seed 9
drop link=* rate=0.1
stall node=1 at=200us for=500us
`

// desShape is one application shape pushed through the designer's pipeline:
// apps -> model mapping -> gluegen -> sagert.
type desShape struct {
	app     string // fft2d | cornerturn
	n       int
	threads int
	nodes   int
	wide    bool // StaggerParallel across the machine instead of SpreadParallel
	pl      machine.Platform
	iters   int
	seed    int64 // source_matrix data seed: the generated input
}

// buildApp constructs the model with the workload's input seed.
func (s desShape) buildApp() (*model.App, error) {
	var app *model.App
	var err error
	switch s.app {
	case "fft2d":
		app, err = apps.FFT2D(s.n, s.threads)
	case "cornerturn":
		app, err = apps.CornerTurn(s.n, s.threads)
	default:
		err = fmt.Errorf("unknown app %q", s.app)
	}
	if err != nil {
		return nil, err
	}
	app.Function("source").Params["seed"] = int(s.seed)
	return app, nil
}

// generate runs model build, mapping and glue-code generation under spans.
func (s desShape) generate(t *opTrace) (*gluegen.Output, error) {
	t.start("model.build")
	app, err := s.buildApp()
	var mapping *model.Mapping
	if err == nil {
		if s.wide {
			mapping, err = model.StaggerParallel(app, s.nodes)
		} else {
			mapping, err = model.SpreadParallel(app, s.nodes)
		}
	}
	t.end()
	if err != nil {
		return nil, err
	}
	t.start("gluegen.Generate")
	out, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: s.pl, NumNodes: s.nodes})
	t.end()
	return out, err
}

// simulate runs the tables on the DES under a span and times the call.
func simulate(t *opTrace, tables *gluegen.Tables, pl machine.Platform, opts sagert.Options) (*output, error) {
	t.start("sagert.Run")
	start := time.Now()
	res, err := sagert.Run(tables, pl, opts)
	runNS := time.Since(start).Nanoseconds()
	t.end()
	if err != nil {
		return nil, err
	}
	return &output{sinks: res.Outputs, virtualNS: int64(res.Elapsed), dispatches: res.Dispatches, runNS: runNS}, nil
}

// desRef is the reference a DES op is checked against: the sequential
// oracle's sink matrices, and the first op's simulated statistics.
type desRef struct {
	sinks      map[string]*isspl.Matrix
	virtualNS  int64
	dispatches uint64
}

// newDesRef evaluates the shape with the single-threaded oracle (iteration 0
// is the one compute iteration a default sagert run carries real samples
// through).
func newDesRef(s desShape) (*desRef, error) {
	app, err := s.buildApp()
	if err != nil {
		return nil, err
	}
	sinks, err := conformance.Oracle(app, 0)
	if err != nil {
		return nil, err
	}
	return &desRef{sinks: sinks}, nil
}

// check demands bitwise-equal sinks and simulated statistics equal to the
// first op's.
func (r *desRef) check(out *output) error {
	if diff := conformance.CompareOutputs(r.sinks, out.sinks); diff != "" {
		return fmt.Errorf("sink mismatch: %s", diff)
	}
	if r.dispatches == 0 {
		r.virtualNS, r.dispatches = out.virtualNS, out.dispatches
	}
	if out.virtualNS != r.virtualNS || out.dispatches != r.dispatches {
		return fmt.Errorf("simulated statistics moved: virtual %d ns / %d events, first op had %d / %d",
			out.virtualNS, out.dispatches, r.virtualNS, r.dispatches)
	}
	return nil
}

// countWriter discards what it is given and counts it.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// design8 is the designer's edit-generate-run loop on 8 CSPI nodes.
type design8 struct {
	shapes      map[string]desShape
	refs        map[string]*desRef
	plan        *fault.Plan
	exportBytes int64
	overheadPct float64 // the paper's Table 1 number for fft512
}

func setupDesign8(seed int64) (*instance, error) {
	pl := platforms.CSPI()
	shape := func(app string, n int) desShape {
		return desShape{app: app, n: n, threads: 8, nodes: 8, pl: pl, iters: 5, seed: seed}
	}
	w := &design8{
		shapes: map[string]desShape{
			"fft512": shape("fft2d", 512), "ct512": shape("cornerturn", 512),
			"fft256f": shape("fft2d", 256), "ct512t": shape("cornerturn", 512),
		},
		refs: map[string]*desRef{},
	}
	for name, s := range w.shapes {
		ref, err := newDesRef(s)
		if err != nil {
			return nil, fmt.Errorf("design8 %s oracle: %w", name, err)
		}
		w.refs[name] = ref
	}
	plan, err := fault.ParsePlan(faultPlanText)
	if err != nil {
		return nil, err
	}
	w.plan = plan
	if w.overheadPct, err = sageOverheadPct(w.shapes["fft512"]); err != nil {
		return nil, err
	}
	inst := &instance{name: "design8", primary: "fft512", clients: 1, close: func() {},
		setupMetrics: map[string]float64{"sage_overhead_pct": w.overheadPct}}
	for _, name := range []string{"fft512", "ct512", "fft256f", "ct512t"} {
		name := name
		inst.classes = append(inst.classes, class{
			name:  name,
			run:   func(t *opTrace, _ int64) (*output, error) { return w.op(name, t) },
			check: w.refs[name].check,
		})
	}
	inst.report = w.report
	return inst, warmUp(inst, seed)
}

// op is one cold design iteration: nothing is reused from the previous one.
func (w *design8) op(name string, t *opTrace) (*output, error) {
	s := w.shapes[name]
	gen, err := s.generate(t)
	if err != nil {
		return nil, err
	}
	opts := sagert.Options{Iterations: s.iters}
	switch name {
	case "fft256f":
		opts.Faults = w.plan
		opts.Resilience.Degraded = w.plan.HasStalls()
	case "ct512t":
		opts.Collector = trace.New(name)
		opts.ProbeAll = true
	}
	out, err := simulate(t, gen.Tables, s.pl, opts)
	if err != nil {
		return nil, err
	}
	if opts.Collector != nil {
		t.start("trace.WriteChrome")
		tr := trace.NewTrace()
		tr.Add(opts.Collector)
		var cw countWriter
		err = tr.WriteChrome(&cw)
		t.end()
		if err != nil {
			return nil, err
		}
		w.exportBytes = cw.n
	}
	return out, nil
}

// sageOverheadPct reproduces the paper's Table 1 comparison for one shape:
// how much longer the generated glue code's average latency is than the
// hand-coded MPI program's, both in simulated time, like for like (the SAGE
// runtime in its sequential mode, as the hand-coded loop is sequential).
func sageOverheadPct(s desShape) (float64, error) {
	gen, err := s.generate(nil)
	if err != nil {
		return 0, err
	}
	sage, err := sagert.Run(gen.Tables, s.pl, sagert.Options{Iterations: s.iters, Sequential: true})
	if err != nil {
		return 0, err
	}
	hand, err := handcoded.FFT2D(handcoded.Config{Platform: s.pl, Nodes: s.nodes, N: s.n, Iterations: s.iters, Seed: s.seed})
	if err != nil {
		return 0, err
	}
	h := float64(hand.AvgLatency())
	return 100 * (float64(sage.AvgLatency()) - h) / h, nil
}

func (w *design8) report(m *measurement, put func(string, float64)) {
	rec := m.rec
	put("model.build_us", 1e3*median(rec.field("model.build", "fft512", durMS)))
	put("gluegen.generate_ms.n8", median(rec.field("gluegen.Generate", "fft512", durMS)))
	for _, c := range []string{"fft512", "ct512", "fft256f", "ct512t"} {
		reportRun(rec, c, w.refs[c], put)
	}
	reportRunMem(rec, "fft512", w.refs["fft512"], put)
	put("sagert.gc_cycles.fft512", median(rec.field("sagert.Run", "fft512", func(s span) float64 { return float64(s.GCCycles) })))
	put("sagert.host_ns_per_event.fft512", median(m.nsPerEvent))
	put("sagert.sage_overhead_pct.fft512", w.overheadPct)
	plain, traced := median(rec.field("sagert.Run", "ct512", durMS)), median(rec.field("sagert.Run", "ct512t", durMS))
	put("trace.overhead_pct.ct512", pctOver(traced, plain))
	put("trace.export_ms", median(rec.field("trace.WriteChrome", "ct512t", durMS)))
	put("trace.export_bytes", float64(w.exportBytes))
}

// reportRun emits the per-class sagert rows.
func reportRun(rec *recorder, c string, ref *desRef, put func(string, float64)) {
	put("sagert.run_ms."+c, median(rec.field("sagert.Run", c, durMS)))
	put("sagert.dispatches."+c, float64(ref.dispatches))
	put("sagert.virtual_ns."+c, float64(ref.virtualNS))
}

// reportRunMem emits the allocation rows of one class's sagert.Run spans.
func reportRunMem(rec *recorder, c string, ref *desRef, put func(string, float64)) {
	put("sagert.alloc_mb."+c, median(rec.field("sagert.Run", c, func(s span) float64 { return float64(s.AllocBytes) / 1e6 })))
	put("sagert.mallocs_per_event."+c, median(rec.field("sagert.Run", c, func(s span) float64 { return float64(s.Mallocs) }))/float64(ref.dispatches))
}

// wide1024 is a 1024-node Mercury topology: many events, little payload.
type wide1024 struct {
	shape  desShape
	ref    *desRef
	tables *gluegen.Output // the last seq op's tables, reused by shard2 and twin
	pred   int64           // first twin prediction, ns
}

func setupWide1024(seed int64) (*instance, error) {
	w := &wide1024{shape: desShape{app: "fft2d", n: 256, threads: 64, nodes: 1024, wide: true,
		pl: platforms.Mercury(), iters: 3, seed: seed}}
	var err error
	if w.ref, err = newDesRef(w.shape); err != nil {
		return nil, fmt.Errorf("wide1024 oracle: %w", err)
	}
	seq := class{name: "seq", check: w.ref.check, run: func(t *opTrace, _ int64) (*output, error) {
		gen, err := w.shape.generate(t)
		if err != nil {
			return nil, err
		}
		w.tables = gen
		return simulate(t, gen.Tables, w.shape.pl, sagert.Options{Iterations: w.shape.iters})
	}}
	shard2 := class{name: "shard2", check: w.ref.check, run: func(t *opTrace, _ int64) (*output, error) {
		opts := sagert.Options{Iterations: w.shape.iters, Shards: 2}
		t.start("twin.ShardWeights")
		weights, err := twin.ShardWeights(w.tables.Tables, w.shape.pl, twin.Options{Iterations: w.shape.iters})
		t.end()
		if err != nil {
			return nil, err
		}
		opts.ShardWeights = weights
		return simulate(t, w.tables.Tables, w.shape.pl, opts)
	}}
	tw := class{name: "twin", run: func(t *opTrace, _ int64) (*output, error) {
		t.start("twin.NewEvaluator")
		ev, err := twin.NewEvaluator(w.tables.Tables, w.shape.pl)
		t.end()
		if err != nil {
			return nil, err
		}
		t.start("twin.Predict")
		pred := ev.Predict(twin.Options{Iterations: w.shape.iters})
		t.end()
		return &output{virtualNS: int64(pred.Elapsed)}, nil
	}, check: func(out *output) error {
		// The twin's own validation gate allows 25 % mean error against
		// the DES; one prediction further off than that is wrong.
		if w.pred == 0 {
			w.pred = out.virtualNS
		}
		des := float64(w.ref.virtualNS)
		if out.virtualNS != w.pred || abs(float64(out.virtualNS)-des) > 0.25*des {
			return fmt.Errorf("twin predicts %d ns, first prediction %d ns, DES %d ns", out.virtualNS, w.pred, w.ref.virtualNS)
		}
		return nil
	}}
	inst := &instance{name: "wide1024", primary: "seq", clients: 1, close: func() {},
		classes: []class{seq, seq, seq, shard2, tw}, report: w.report}
	return inst, warmUp(inst, seed)
}

// pctOver is how much a exceeds base, in percent of base (0 without a base).
func pctOver(a, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (a - base) / base
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func (w *wide1024) report(m *measurement, put func(string, float64)) {
	rec := m.rec
	put("gluegen.generate_ms.n1024", median(rec.field("gluegen.Generate", "seq", durMS)))
	put("gluegen.mallocs.n1024", median(rec.field("gluegen.Generate", "seq", func(s span) float64 { return float64(s.Mallocs) })))
	put("gluegen.table_bytes.n1024", float64(len(w.tables.TableSource)))
	reportRun(rec, "seq", w.ref, put)
	reportRun(rec, "shard2", w.ref, put)
	reportRunMem(rec, "seq", w.ref, put)
	put("sagert.host_ns_per_event.seq", median(m.nsPerEvent))
	put("sagert.shard2_ratio", median(rec.field("sagert.Run", "seq", durMS))/median(rec.field("sagert.Run", "shard2", durMS)))
	put("twin.evaluator_us.n1024", 1e3*median(rec.field("twin.NewEvaluator", "twin", durMS)))
	put("twin.predict_us.n1024", 1e3*median(rec.field("twin.Predict", "twin", durMS)))
	put("twin.err_pct.n1024", abs(pctOver(float64(w.pred), float64(w.ref.virtualNS))))
}

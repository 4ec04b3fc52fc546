package main

// metricDef names one metric. The lists below are the single source of the
// names, units and bounds: BENCHMARK.json at the repo root lists the same
// entries (a self-test compares them), -compare reads bounds and exactness
// from here.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Exact marks a count the program makes that must repeat bit for bit
	// between runs and between commits that only claim speed.
	Exact bool
	// Only restricts an end-to-end metric to the workloads that have the
	// quantity; empty means all four.
	Only []string
}

var workloadNames = []string{"design8", "wide1024", "exec8", "serve_mix"}

// endToEnd are the metrics of the untraced run. The first five exist on
// every workload and are the ones BENCHMARK.json lists; the last four are
// printed where they exist (fail_ratio also travels as failed/attempted in
// the result line, the simulated ones as exact per-layer rows).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p75_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.03},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "host_ns_per_event", Unit: "ns", Better: "lower", Bound: 0.25, Only: []string{"design8", "wide1024"}},
	{Name: "virtual_ms_per_op", Unit: "ms", Better: "lower", Exact: true, Only: []string{"design8", "wide1024"}},
	{Name: "sage_overhead_pct", Unit: "%", Better: "lower", Exact: true, Only: []string{"design8"}},
}

// contractEndToEnd is how many leading entries of endToEnd every workload
// reports; they form the result line of a --trace 0 run.
const contractEndToEnd = 5

func (d metricDef) on(workload string) bool {
	if len(d.Only) == 0 {
		return true
	}
	for _, w := range d.Only {
		if w == workload {
			return true
		}
	}
	return false
}

// perLayer are the metrics of the traced run, grouped by layer (the name's
// prefix). Floors are standalone calls on the workloads' shapes into layers
// that cannot be spanned from outside sagert.
var perLayer = []metricDef{
	{Name: "model.build_us", Unit: "us", Better: "lower"},

	{Name: "gluegen.generate_ms.n8", Unit: "ms", Better: "lower"},
	{Name: "gluegen.generate_ms.n1024", Unit: "ms", Better: "lower"},
	{Name: "gluegen.mallocs.n1024", Unit: "count", Better: "lower"},
	{Name: "gluegen.table_bytes.n1024", Unit: "bytes", Better: "lower", Exact: true},

	{Name: "sagert.run_ms.fft512", Unit: "ms", Better: "lower"},
	{Name: "sagert.run_ms.ct512", Unit: "ms", Better: "lower"},
	{Name: "sagert.run_ms.fft256f", Unit: "ms", Better: "lower"},
	{Name: "sagert.run_ms.ct512t", Unit: "ms", Better: "lower"},
	{Name: "sagert.run_ms.seq", Unit: "ms", Better: "lower"},
	{Name: "sagert.run_ms.shard2", Unit: "ms", Better: "lower"},
	{Name: "sagert.alloc_mb.fft512", Unit: "MB", Better: "lower"},
	{Name: "sagert.alloc_mb.seq", Unit: "MB", Better: "lower"},
	{Name: "sagert.mallocs_per_event.fft512", Unit: "count", Better: "lower"},
	{Name: "sagert.mallocs_per_event.seq", Unit: "count", Better: "lower"},
	{Name: "sagert.gc_cycles.fft512", Unit: "count", Better: "lower"},
	{Name: "sagert.dispatches.fft512", Unit: "count", Better: "lower", Exact: true},
	{Name: "sagert.dispatches.ct512", Unit: "count", Better: "lower", Exact: true},
	{Name: "sagert.dispatches.fft256f", Unit: "count", Better: "lower", Exact: true},
	{Name: "sagert.dispatches.ct512t", Unit: "count", Better: "lower", Exact: true},
	{Name: "sagert.dispatches.seq", Unit: "count", Better: "lower", Exact: true},
	{Name: "sagert.dispatches.shard2", Unit: "count", Better: "lower", Exact: true},
	{Name: "sagert.virtual_ns.fft512", Unit: "ns", Better: "lower", Exact: true},
	{Name: "sagert.virtual_ns.ct512", Unit: "ns", Better: "lower", Exact: true},
	{Name: "sagert.virtual_ns.fft256f", Unit: "ns", Better: "lower", Exact: true},
	{Name: "sagert.virtual_ns.ct512t", Unit: "ns", Better: "lower", Exact: true},
	{Name: "sagert.virtual_ns.seq", Unit: "ns", Better: "lower", Exact: true},
	{Name: "sagert.virtual_ns.shard2", Unit: "ns", Better: "lower", Exact: true},
	{Name: "sagert.shard2_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sagert.host_ns_per_event.fft512", Unit: "ns", Better: "lower"},
	{Name: "sagert.host_ns_per_event.seq", Unit: "ns", Better: "lower"},
	{Name: "sagert.sage_overhead_pct.fft512", Unit: "%", Better: "lower", Exact: true},

	{Name: "sim.schedule_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.schedule_allocs_per_event", Unit: "count", Better: "lower"},

	{Name: "isspl.fft2d_floor_ms.512", Unit: "ms", Better: "lower"},
	{Name: "isspl.transpose_floor_ms.512", Unit: "ms", Better: "lower"},
	{Name: "funclib.block_alloc_floor_ms.512", Unit: "ms", Better: "lower"},

	{Name: "handcoded.run_ms.fft512", Unit: "ms", Better: "lower"},
	{Name: "handcoded.run_ms.ct512", Unit: "ms", Better: "lower"},

	{Name: "trace.overhead_pct.ct512", Unit: "%", Better: "lower"},
	{Name: "trace.export_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.export_bytes", Unit: "bytes", Better: "lower", Exact: true},

	{Name: "twin.evaluator_us.n1024", Unit: "us", Better: "lower"},
	{Name: "twin.predict_us.n1024", Unit: "us", Better: "lower"},
	{Name: "twin.err_pct.n1024", Unit: "%", Better: "lower", Exact: true},
	{Name: "twin.err_pct.fft512", Unit: "%", Better: "lower", Exact: true},

	{Name: "atot.ga_ms", Unit: "ms", Better: "lower"},
	{Name: "atot.evals_per_s", Unit: "1/s", Better: "higher"},

	{Name: "stream.run_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.host_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "stream.dispatches", Unit: "count", Better: "lower", Exact: true},

	{Name: "codegen.plan_us", Unit: "us", Better: "lower"},
	{Name: "codegen.emit_ms", Unit: "ms", Better: "lower"},
	{Name: "codegen.emit_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "rtl.execute_ms.fft512x", Unit: "ms", Better: "lower"},
	{Name: "rtl.execute_ms.ct512x", Unit: "ms", Better: "lower"},
	{Name: "rtl.write_text_ms", Unit: "ms", Better: "lower"},
	{Name: "rtl.alloc_mb.fft512x", Unit: "MB", Better: "lower"},
	{Name: "rtl.vs_des_ratio", Unit: "ratio", Better: "lower"},

	{Name: "conformance.oracle_ms.fft512", Unit: "ms", Better: "lower"},

	{Name: "serve.hit_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.sim_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.estimate_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.ga_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.stream_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.faulted_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.resp_bytes.sim", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "serve.hit_only_req_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.goroutines_end", Unit: "count", Better: "lower"},

	{Name: "host.gomaxprocs", Unit: "count", Better: "higher"},
	{Name: "host.heap_sys_mb.design8", Unit: "MB", Better: "lower"},
	{Name: "host.heap_sys_mb.wide1024", Unit: "MB", Better: "lower"},
	{Name: "host.heap_sys_mb.exec8", Unit: "MB", Better: "lower"},
	{Name: "host.heap_sys_mb.serve_mix", Unit: "MB", Better: "lower"},
	{Name: "host.gc_pause_ms.design8", Unit: "ms", Better: "lower"},
	{Name: "host.gc_pause_ms.wide1024", Unit: "ms", Better: "lower"},
	{Name: "host.gc_pause_ms.exec8", Unit: "ms", Better: "lower"},
	{Name: "host.gc_pause_ms.serve_mix", Unit: "ms", Better: "lower"},
	{Name: "host.gc_cycles_per_op.design8", Unit: "count", Better: "lower"},
	{Name: "host.gc_cycles_per_op.wide1024", Unit: "count", Better: "lower"},
	{Name: "host.gc_cycles_per_op.exec8", Unit: "count", Better: "lower"},
	{Name: "host.gc_cycles_per_op.serve_mix", Unit: "count", Better: "lower"},
	{Name: "bench.trace_overhead_pct.design8", Unit: "%", Better: "lower"},
	{Name: "bench.trace_overhead_pct.wide1024", Unit: "%", Better: "lower"},
	{Name: "bench.trace_overhead_pct.exec8", Unit: "%", Better: "lower"},
	{Name: "bench.trace_overhead_pct.serve_mix", Unit: "%", Better: "lower"},
}

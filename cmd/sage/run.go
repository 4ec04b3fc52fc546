package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/sagert"
	"repro/internal/trace"
	"repro/internal/twin"
	"repro/internal/viz"
)

// cmdRun executes a model under the SAGE runtime on the simulated
// multicomputer: it loads (or spreads) a mapping, generates the glue tables
// (or loads pre-generated table source), runs the configured number of
// iterations, and reports period and latency per §3.3. With -viz it prints
// the Visualizer report; with -trace-csv / -svg it exports the probe
// events; with -trace it writes a Chrome trace-event JSON of the whole run
// (kernel, runtime and MPI layers) for chrome://tracing or Perfetto.
//
//	sage run -model fft2d.sage -platform CSPI -nodes 8 -iterations 100
//	sage run -model fft2d.sage -mapping fft2d.map -viz -trace-csv trace.csv
//	sage run -tables fft2d.tbl                  # run pre-generated glue
//	sage run -model fft2d.sage -hw custom.hw    # custom hardware design
func cmdRun(args []string, stdout, stderr io.Writer) error {
	fs := flags("run", stderr)
	d := designFlags(fs, "mapping", "hw", "tables")
	iterations := fs.Int("iterations", 10, "data sets to process")
	shards := fs.Int("shards", 1, "simulate on up to this many host cores (byte-identical results; falls back to 1 when the run cannot shard)")
	sequential := fs.Bool("sequential", false, "process one data set at a time (no pipelining)")
	optimized := fs.Bool("optimized-buffers", false, "enable the future-work buffer optimisation")
	vizReport := fs.Bool("viz", false, "print the Visualizer report")
	traceCSV := fs.String("trace-csv", "", "export probe events as CSV")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON of the run (open in chrome://tracing or Perfetto)")
	svgOut := fs.String("svg", "", "export the execution timeline as SVG")
	latencyBound := fs.Duration("latency-threshold", 0, "flag iterations over this latency")
	if err := parse(fs, args); err != nil {
		return err
	}
	if d.model == "" && d.tables == "" {
		return cli.Usagef("pass -model or -tables")
	}
	l, err := d.load()
	if err != nil {
		return err
	}
	tables, err := l.generate()
	if err != nil {
		return err
	}
	pl := l.pl
	opts := sagert.Options{Iterations: *iterations, Sequential: *sequential, OptimizedBuffers: *optimized, Shards: *shards}
	if *shards > 1 {
		// Seed the shard partitioner with the twin's per-node busy forecast;
		// uniform weights are a fine fallback when the twin refuses.
		if w, err := twin.ShardWeights(tables, pl, twin.Options{
			Iterations: *iterations, Sequential: *sequential, OptimizedBuffers: *optimized,
		}); err == nil {
			opts.ShardWeights = w
		}
	}
	var vtrace *viz.Trace
	if *vizReport || *traceCSV != "" || *svgOut != "" {
		var hook func(sagert.Event)
		vtrace, hook = viz.Collector()
		opts.ProbeAll = true
		opts.Trace = hook
	}
	if *traceOut != "" {
		opts.Collector = trace.New(tables.AppName + " on " + pl.Name)
	}
	res, err := sagert.Run(tables, pl, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "app %s on %s (%d nodes), %d iterations\n", tables.AppName, pl.Name, tables.NumNodes, *iterations)
	fmt.Fprintf(stdout, "  period:      %v per data set\n", res.Period)
	fmt.Fprintf(stdout, "  avg latency: %v\n", res.AvgLatency())
	fmt.Fprintf(stdout, "  elapsed:     %v virtual\n", res.Elapsed)
	for _, ns := range res.NodeStats {
		fmt.Fprintf(stdout, "  node %-3d compute=%-14v copy=%-14v comm=%-14v util=%5.1f%%\n",
			ns.Node, ns.ComputeBusy, ns.CopyBusy, ns.CommBusy, 100*ns.Utilization)
	}
	if *latencyBound > 0 {
		for _, v := range viz.CheckLatencies(res.Latencies, *latencyBound) {
			fmt.Fprintf(stdout, "  LATENCY VIOLATION: iteration %d took %v (threshold %v)\n", v.Iteration, v.Latency, v.Threshold)
		}
	}
	if *vizReport {
		fmt.Fprintln(stdout)
		if err := vtrace.Report(stdout, 100); err != nil {
			return err
		}
	}
	if *traceCSV != "" {
		if err := writeFile(*traceCSV, vtrace.WriteCSV); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		t := trace.NewTrace()
		t.Add(opts.Collector)
		if err := writeFile(*traceOut, t.WriteChrome); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  trace:       %s\n", *traceOut)
	}
	if *svgOut == "" {
		return nil
	}
	return writeFile(*svgOut, func(w io.Writer) error { return vtrace.WriteSVG(w, 1200) })
}

// writeFile creates path, fills it with write and closes it, reporting the
// first error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

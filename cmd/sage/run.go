package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/sagert"
	"repro/internal/trace"
	"repro/internal/viz"
)

// cmdRun executes a model under the SAGE runtime on the simulated
// multicomputer: it loads (or spreads) a mapping, generates the glue tables
// (or loads pre-generated table source), runs the configured number of
// iterations, and reports period and latency per §3.3. With -viz it prints
// the Visualizer report and with -svg it writes the Visualizer's timeline;
// with -trace it writes a Chrome trace-event JSON of the whole run (kernel,
// runtime and MPI layers) for chrome://tracing or Perfetto, which sage viz
// reads back.
//
//	sage run -model fft2d.sage -platform CSPI -nodes 8 -iterations 100
//	sage run -model fft2d.sage -mapping fft2d.map -viz -trace trace.json
//	sage run -tables fft2d.tbl                  # run pre-generated glue
//	sage run -model fft2d.sage -hw custom.hw    # custom hardware design
func cmdRun(args []string, stdout, stderr io.Writer) error {
	fs := flags("run", stderr)
	d := designFlags(fs, "mapping", "hw", "tables")
	iterations := fs.Int("iterations", 10, "data sets to process")
	sequential := fs.Bool("sequential", false, "process one data set at a time (no pipelining)")
	optimized := fs.Bool("optimized-buffers", false, "enable the future-work buffer optimisation")
	vizReport := fs.Bool("viz", false, "print the Visualizer report")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON of the run (open in chrome://tracing or Perfetto)")
	svgOut := fs.String("svg", "", "export the execution timeline as SVG")
	latencyBound := fs.Duration("latency-threshold", 0, "flag iterations over this latency")
	if err := parse(fs, args); err != nil {
		return err
	}
	if d.model == "" && d.tables == "" {
		return usagef("pass -model or -tables")
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
	opts := sagert.Options{Iterations: *iterations, Sequential: *sequential, OptimizedBuffers: *optimized}
	if *vizReport || *svgOut != "" || *traceOut != "" {
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
	var vtrace *viz.Trace
	if *vizReport || *svgOut != "" {
		if vtrace, err = viz.FromRun(opts.Collector); err != nil {
			return err
		}
	}
	if *vizReport {
		fmt.Fprintln(stdout)
		if err := vtrace.Report(stdout, 100); err != nil {
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

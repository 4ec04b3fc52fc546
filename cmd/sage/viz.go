package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/trace"
	"repro/internal/viz"
)

// cmdViz renders the Visualizer report from the Chrome trace-event JSON of
// one run, as sage run -trace writes it.
//
//	sage viz -trace trace.json
//	sage viz -trace trace.json -width 120
func cmdViz(args []string, stdout, stderr io.Writer) error {
	fs := flags("viz", stderr)
	traceFile := fs.String("trace", "", "Chrome trace JSON of one run, from sage run -trace (required)")
	width := fs.Int("width", 100, "timeline width in columns")
	breakdownOnly := fs.Bool("breakdown", false, "print only the per-function breakdown")
	svgOut := fs.String("svg", "", "write the timeline as an SVG file")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *traceFile == "" {
		return usagef("-trace is required")
	}
	data, err := os.ReadFile(*traceFile)
	if err != nil {
		return err
	}
	runs, err := trace.ReadChrome(data)
	if err != nil {
		return err
	}
	if n := len(runs.Runs()); n != 1 {
		return fmt.Errorf("viz: %s holds %d runs; sage viz reads one, as sage run -trace writes", *traceFile, n)
	}
	vtrace, err := viz.FromRun(runs.Runs()[0])
	if err != nil {
		return err
	}
	if *svgOut != "" {
		return writeFile(*svgOut, func(w io.Writer) error { return vtrace.WriteSVG(w, 1200) })
	}
	if *breakdownOnly {
		for _, b := range vtrace.Breakdown() {
			fmt.Fprintf(stdout, "%-16s compute=%-14v recv=%-14v send=%-14v\n", b.Fn, b.Compute, b.Recv, b.Send)
		}
		return nil
	}
	return vtrace.Report(stdout, *width)
}

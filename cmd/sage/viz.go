package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/viz"
)

// cmdViz renders the Visualizer report from a probe-event CSV exported by
// sage run -trace-csv (or by any program using internal/viz.WriteCSV).
//
//	sage viz -trace trace.csv
//	sage viz -trace trace.csv -width 120
func cmdViz(args []string, stdout, stderr io.Writer) error {
	fs := flags("viz", stderr)
	traceFile := fs.String("trace", "", "probe-event CSV file (required)")
	width := fs.Int("width", 100, "timeline width in columns")
	breakdownOnly := fs.Bool("breakdown", false, "print only the per-function breakdown")
	svgOut := fs.String("svg", "", "write the timeline as an SVG file")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *traceFile == "" {
		return cli.Usagef("-trace is required")
	}
	f, err := os.Open(*traceFile)
	if err != nil {
		return err
	}
	defer f.Close()
	trace, err := viz.ReadCSV(f)
	if err != nil {
		return err
	}
	if *svgOut != "" {
		return writeFile(*svgOut, func(w io.Writer) error { return trace.WriteSVG(w, 1200) })
	}
	if *breakdownOnly {
		for _, b := range trace.Breakdown() {
			fmt.Fprintf(stdout, "%-16s compute=%-14v recv=%-14v send=%-14v\n", b.Fn, b.Compute, b.Recv, b.Send)
		}
		return nil
	}
	return trace.Report(stdout, *width)
}

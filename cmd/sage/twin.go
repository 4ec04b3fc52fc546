package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/gluegen"
	"repro/internal/sagert"
	"repro/internal/sim"
	"repro/internal/twin"
	"repro/internal/twin/validate"
)

// twinOptions are the prediction flags beside the design group.
type twinOptions struct {
	iterations            int
	sequential, optimized bool
	compare               bool
}

// cmdTwin is the analytical twin's front door: it predicts what a SAGE run
// would measure — elapsed virtual time, latency, period, per-node busy
// accounting, per-phase breakdowns — in closed form, without simulating a
// single event. It can also compare its prediction against the real
// discrete-event run, sweep node counts, and replay the twin-vs-DES
// calibration matrix that gates the model in CI.
//
//	sage twin -model fft2d.sage -platform CSPI -nodes 8 -iterations 100
//	sage twin -model fft2d.sage -nodes 8 -compare       # twin vs DES
//	sage twin -model fft2d.sage -sweep 1,2,4,8,16,32    # scaling forecast
//	sage twin -validate -seeds 24 -quick                # calibration gates
func cmdTwin(args []string, stdout, stderr io.Writer) error {
	fs := flags("twin", stderr)
	d := designFlags(fs, "mapping")
	var o twinOptions
	fs.IntVar(&o.iterations, "iterations", 10, "data sets to process")
	fs.BoolVar(&o.sequential, "sequential", false, "predict the barrier-synchronised mode")
	fs.BoolVar(&o.optimized, "optimized-buffers", false, "predict the optimised-buffer mode")
	fs.BoolVar(&o.compare, "compare", false, "also run the DES and report the prediction error")
	sweep := fs.String("sweep", "", "comma-separated node counts to forecast (spread mapping each)")
	doValidate := fs.Bool("validate", false, "run the twin-vs-DES calibration matrix instead of predicting")
	seedStart := fs.Int64("seed-start", 1, "validate: first conformance seed")
	seeds := fs.Int("seeds", 16, "validate: number of seeded cases")
	quick := fs.Bool("quick", false, "validate: small graphs (the CI gate matrix)")
	parallel := fs.Int("parallel", 0, "validate: worker pool width (0 = all cores)")
	if err := parse(fs, args); err != nil {
		return err
	}
	switch {
	case *doValidate:
		return runValidate(stdout, validate.Config{SeedStart: *seedStart, Seeds: *seeds, Quick: *quick, Parallelism: *parallel})
	case d.model == "":
		return usagef("-model is required (or use -validate)")
	case o.iterations < 1:
		return usagef("-iterations must be >= 1")
	case *sweep != "":
		return runSweep(stdout, d, o, *sweep)
	}
	l, pred, tables, err := predictOne(d, o)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s on %s, %d nodes, %d iterations (sequential=%v optimized=%v)\n",
		l.app.Name, d.platform, d.nodes, o.iterations, o.sequential, o.optimized)
	fmt.Fprintf(stdout, "predicted elapsed:   %v\n", pred.Elapsed)
	fmt.Fprintf(stdout, "predicted latency:   %v\n", pred.AvgLatency)
	fmt.Fprintf(stdout, "predicted period:    %v\n", pred.Period)
	fmt.Fprintf(stdout, "fill iteration:      %v\n", pred.FirstIteration)
	fmt.Fprintf(stdout, "steady iteration:    %v\n", pred.SteadyIteration)
	fmt.Fprintf(stdout, "bottleneck period:   %v\n", pred.BottleneckPeriod)
	fmt.Fprintf(stdout, "phases: recv=%v dispatch=%v compute=%v send=%v\n",
		pred.Phases.Recv, pred.Phases.Dispatch, pred.Phases.Compute, pred.Phases.Send)
	for n, nc := range pred.Nodes {
		fmt.Fprintf(stdout, "  node %-3d compute=%-14v copy=%-14v comm=%v\n", n, nc.Compute, nc.Copy, nc.Comm)
	}
	if !o.compare {
		return nil
	}
	res, err := o.runDES(l, tables)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "DES elapsed:         %v (twin error %.2f%%)\n",
		sim.Duration(res.Elapsed), ape(pred.Elapsed, sim.Duration(res.Elapsed)))
	fmt.Fprintf(stdout, "DES latency:         %v\n", res.AvgLatency())
	fmt.Fprintf(stdout, "DES period:          %v\n", res.Period)
	return nil
}

// predictOne loads the design, generates its tables and prices them.
func predictOne(d *design, o twinOptions) (*loaded, *twin.Prediction, *gluegen.Tables, error) {
	l, err := d.load()
	if err != nil {
		return nil, nil, nil, err
	}
	tables, err := l.generate()
	if err != nil {
		return nil, nil, nil, err
	}
	ev, err := twin.NewEvaluator(tables, l.pl)
	if err != nil {
		return nil, nil, nil, err
	}
	pred := ev.Predict(twin.Options{Iterations: o.iterations, Sequential: o.sequential, OptimizedBuffers: o.optimized})
	return l, pred, tables, nil
}

func (o twinOptions) runDES(l *loaded, tables *gluegen.Tables) (*sagert.Result, error) {
	return sagert.Run(tables, l.pl, sagert.Options{Iterations: o.iterations, Sequential: o.sequential, OptimizedBuffers: o.optimized})
}

// runSweep forecasts each node count of sweep on its spread mapping.
func runSweep(w io.Writer, d *design, o twinOptions, sweep string) error {
	if d.mapping != "" {
		return usagef("-sweep derives a spread mapping per point; drop -mapping")
	}
	var counts []int
	for _, part := range strings.Split(sweep, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return usagef("bad -sweep entry %q", part)
		}
		counts = append(counts, n)
	}
	fmt.Fprintf(w, "%-6s %14s %14s %14s", "nodes", "elapsed", "latency", "period")
	if o.compare {
		fmt.Fprintf(w, " %14s %7s", "des", "ape%")
	}
	fmt.Fprintln(w)
	for _, nodes := range counts {
		point := *d
		point.nodes = nodes
		l, pred, tables, err := predictOne(&point, o)
		if err != nil {
			return fmt.Errorf("nodes=%d: %w", nodes, err)
		}
		fmt.Fprintf(w, "%-6d %14v %14v %14v", nodes, pred.Elapsed, pred.AvgLatency, pred.Period)
		if o.compare {
			res, err := o.runDES(l, tables)
			if err != nil {
				return fmt.Errorf("nodes=%d: %w", nodes, err)
			}
			fmt.Fprintf(w, " %14v %7.2f", sim.Duration(res.Elapsed), ape(pred.Elapsed, sim.Duration(res.Elapsed)))
		}
		fmt.Fprintln(w)
	}
	return nil
}

func runValidate(w io.Writer, cfg validate.Config) error {
	if cfg.Seeds < 1 {
		return usagef("-seeds must be >= 1")
	}
	rep, err := validate.Validate(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(w, rep.Table())
	fmt.Fprintln(w, rep.Summary())
	if !rep.Pass() {
		return fmt.Errorf("calibration gates failed: MAPE=%.2f%% (gate %.0f%%), spearman=%.4f (gate %.2f)",
			rep.MAPE, validate.GateMAPE, rep.Spearman, validate.GateSpearman)
	}
	return nil
}

func ape(pred, des sim.Duration) float64 {
	if des == 0 {
		return 0
	}
	d := float64(pred) - float64(des)
	if d < 0 {
		d = -d
	}
	return 100 * d / float64(des)
}

package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/atot"
	"repro/internal/cli"
	"repro/internal/funclib"
	"repro/internal/model"
	"repro/internal/twin"
)

// cmdAtot runs the Architecture Trades and Optimization Tool's mapping
// stage: it maps a model's threads onto a platform with the genetic
// algorithm (or a baseline), prints the cost breakdown and estimated
// schedule, and optionally writes the mapping file gluegen and run read.
//
//	sage atot -model fft2d.sage -platform CSPI -nodes 8 -o fft2d.map
//	sage atot -model fft2d.sage -platform CSPI -nodes 8 -strategy greedy
//	sage atot -model fft2d.sage -platform CSPI -nodes 8 -strategy twin -topk 4
func cmdAtot(args []string, stdout, stderr io.Writer) error {
	fs := flags("atot", stderr)
	d := designFlags(fs)
	strategy := fs.String("strategy", "ga", "mapping strategy: ga | twin | greedy | roundrobin | spread")
	pop := fs.Int("pop", 64, "GA population")
	gens := fs.Int("gens", 150, "GA generations")
	seed := fs.Int64("seed", 1, "GA seed")
	topK := fs.Int("topk", 4, "twin strategy: candidates promoted to DES evaluation")
	iters := fs.Int("iterations", 4, "twin strategy: iterations per scored run")
	parallel := fs.Int("parallel", 0, "worker pool width for scoring (0 = all cores)")
	schedule := fs.Bool("schedule", false, "print the estimated execution schedule")
	out := fs.String("o", "", "write the mapping file")
	if err := parse(fs, args); err != nil {
		return err
	}
	l, err := d.load()
	if err != nil {
		return err
	}
	app, pl, nodes := l.app, l.pl, l.nodes
	if err := funclib.ValidateApp(app); err != nil {
		return err
	}
	ev, err := atot.NewEvaluator(app, pl, nodes)
	if err != nil {
		return err
	}
	ga := atot.GAConfig{Population: *pop, Generations: *gens, Seed: *seed, Parallelism: *parallel}

	var mapping *model.Mapping
	switch *strategy {
	case "ga":
		var stats *atot.GAStats
		if mapping, stats, err = atot.MapGA(ev, ga); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "GA: %d generations, %d evaluations, best objective %.4g\n",
			stats.Generations, stats.Evaluations, stats.Best.Total)
	case "twin":
		res, err := twin.MapGAPromote(app, pl, nodes, *topK, ga, twin.Options{Iterations: *iters})
		if err != nil {
			return err
		}
		mapping = res.Mapping
		fmt.Fprintf(stdout, "twin GA: %d generations, %d twin evaluations, %d candidates promoted to DES\n",
			res.Stats.Generations, res.Stats.Evaluations, len(res.Candidates))
		for i, c := range res.Candidates {
			mark := " "
			if i == res.Winner {
				mark = "*"
			}
			fmt.Fprintf(stdout, "  %s candidate %d: twin=%v des=%v\n", mark, i, c.TwinElapsed, c.DESElapsed)
		}
	case "greedy":
		if mapping, err = atot.MapGreedy(ev); err != nil {
			return err
		}
	case "roundrobin":
		mapping = model.RoundRobin(app, nodes)
	case "spread":
		if mapping, err = model.SpreadParallel(app, nodes); err != nil {
			return err
		}
	default:
		return cli.Usagef("unknown strategy %q", *strategy)
	}

	cost, err := ev.Evaluate(mapping, atot.Weights{})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "mapping cost: max-node-busy=%v comm=%v critical-path=%v\n",
		cost.MaxNodeBusy, cost.Comm, cost.CriticalPath)
	for _, fn := range app.Functions {
		fmt.Fprintf(stdout, "  %-14s -> nodes %v\n", fn.Name, mapping.Assign[fn.Name])
	}

	if *schedule {
		sched, err := ev.EstimateSchedule(mapping)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "\nestimated schedule (one iteration):")
		for _, s := range sched {
			fmt.Fprintf(stdout, "  %-14s[%d] node %-3d %12v .. %v\n", s.Fn, s.Thread, s.Node, s.Start, s.End)
		}
	}

	if *out == "" {
		return nil
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	return mapping.WriteText(f, app.Name)
}

package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/apps"
	"repro/internal/atot"
	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/platforms"
	"repro/internal/trace"
)

// cmdBench regenerates the paper's evaluation tables and figures (see
// DESIGN.md's experiment index).
//
//	sage bench -experiment table1              # Table 1.0 at paper scale
//	sage bench -experiment table1 -quick       # reduced protocol
//	sage bench -experiment table1 -parallel 4  # 4-worker simulation pool
//	sage bench -experiment all -quick
//
// Independent simulation runs fan out across a bounded worker pool
// (-parallel, default GOMAXPROCS). Results are identical at any pool size —
// all timing is virtual — so -parallel trades host wall-clock only.
//
// -faults plan.txt injects a deterministic fault plan (drops, degraded
// links, node stalls — see DESIGN.md §6 and sage check fault) into every
// simulated run of the selected experiment; the faultsweep experiment
// instead sweeps drop rates itself and takes no -faults file.
//
// -trace out.json records a Chrome trace (open in chrome://tracing or
// Perfetto) covering every simulation run the experiment performs;
// -trace-summary prints per-node utilisation, link traffic and wait
// statistics derived from the same trace. Tracing never changes results.
//
// Host performance is measured by the repo benchmark (benchmark/); the
// virtual-time fingerprint of a fixed full-size matrix is pinned by
// internal/bench's committed golden.
func cmdBench(args []string, stdout, stderr io.Writer) error {
	fs := flags("bench", stderr)
	exp := fs.String("experiment", "table1", "experiment to run (table1|twonode|aggregate|crossvendor|portability|genstudy|pipeline|mapping|heterogeneous|realtime|scaling|faultsweep|all)")
	quick := fs.Bool("quick", false, "reduced sizes and protocol for a fast smoke run")
	paper := fs.Bool("paper", false, "use the literal §3.3 protocol (10 executions x 100 iterations); slow, and — the simulator being deterministic — numerically identical to the default reduced protocol")
	parallel := fs.Int("parallel", 0, "worker pool size for independent simulation runs (0 = GOMAXPROCS, 1 = sequential); output is identical at any setting")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON of every simulation run to this file")
	traceSummary := fs.Bool("trace-summary", false, "print a per-node/per-link trace summary (requires or implies tracing)")
	faultsPath := fs.String("faults", "", "fault-plan file injected into every simulated run (validate with sage check fault)")
	if err := parse(fs, args); err != nil {
		return err
	}

	// Default: paper sizes, reduced repetition count. Averages are exact
	// because virtual timing is deterministic across repetitions.
	proto := experiments.Protocol{Repetitions: 1, Iterations: 5}
	if *paper {
		proto = experiments.Paper()
	}
	sizes := []int{256, 512, 1024}
	nodes := []int{4, 8}
	anomalyN := 512
	vendorN := 1024
	vendorNodes := []int{2, 4, 8, 16}
	if *quick {
		proto = experiments.Quick()
		sizes = []int{64, 128}
		anomalyN = 128
		vendorN = 128
		vendorNodes = []int{4, 8}
	}
	proto.Parallelism = *parallel
	if *faultsPath != "" {
		src, err := os.ReadFile(*faultsPath)
		if err != nil {
			return err
		}
		plan, err := fault.ParsePlan(string(src))
		if err != nil {
			return fmt.Errorf("%s: %w", *faultsPath, err)
		}
		proto.Faults = plan
	}
	var tr *trace.Trace
	if *tracePath != "" || *traceSummary {
		tr = trace.NewTrace()
		proto.Trace = tr
	}
	tblCfg := experiments.Table1Config{Sizes: sizes, Nodes: nodes, Protocol: proto}

	// formatted is what every experiment returns: a table to print.
	type formatted interface{ Format() string }
	show := func(t formatted, err error) error {
		if err == nil {
			fmt.Fprintln(stdout, t.Format())
		}
		return err
	}
	runOne := func(name string) error {
		switch name {
		case "table1":
			return show(experiments.RunTable1(tblCfg))
		case "twonode":
			t, err := experiments.RunTwoNode(platforms.CSPI(), anomalyN, proto)
			if err := show(t, err); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "two-node configuration is the worst: %v (paper §3.4 observed the same)\n\n", t.WorstIsTwoNodes())
		case "aggregate":
			return show(experiments.RunAggregate(tblCfg))
		case "crossvendor":
			return show(experiments.RunCrossVendor(vendorN, vendorNodes, proto))
		case "portability":
			p, err := experiments.RunPortability(experiments.AppFFT2D, min(512, vendorN), 8, experiments.Quick())
			if err := show(p, err); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "identical output on every platform: %v\n\n", p.AllVerified())
		case "genstudy":
			for _, kind := range []experiments.AppKind{experiments.AppFFT2D, experiments.AppCornerTurn} {
				if err := show(experiments.RunGenStudy(kind, platforms.CSPI(), vendorN, 8)); err != nil {
					return err
				}
			}
			fmt.Fprintln(stdout)
		case "pipeline":
			return show(experiments.RunPipeline(experiments.AppFFT2D, platforms.CSPI(), min(512, vendorN), 8, 8))
		case "mapping":
			app, err := apps.STAP(min(256, vendorN), 6)
			if err != nil {
				return err
			}
			gens := 120
			if *quick {
				gens = 30
			}
			return show(experiments.RunMappingStudy(app, platforms.CSPI(), 8, atot.GAConfig{Generations: gens, Seed: 1}))
		case "heterogeneous":
			app, err := apps.STAP(min(128, vendorN), 4)
			if err != nil {
				return err
			}
			gens := 60
			if *quick {
				gens = 25
			}
			return show(experiments.RunHeterogeneous(app, platforms.CSPI(),
				[]float64{2, 2, 1, 1, 1, 1, 0.5, 0.5},
				atot.GAConfig{Generations: gens, Seed: 1}))
		case "scaling":
			for _, kind := range []experiments.AppKind{experiments.AppFFT2D, experiments.AppCornerTurn} {
				if err := show(experiments.RunScaling(kind, platforms.CSPI(), min(512, vendorN), vendorNodes, proto)); err != nil {
					return err
				}
			}
		case "faultsweep":
			fc := experiments.FaultSweepConfig{N: min(256, vendorN), Protocol: proto}
			if *quick {
				fc.Rates = []float64{0, 0.1, 0.3}
			}
			return show(experiments.RunFaultSweep(fc))
		case "realtime":
			return show(experiments.RunRealTime(experiments.AppCornerTurn, platforms.CSPI(), min(512, vendorN), 8, 8, nil))
		default:
			return cli.Usagef("unknown experiment %q", name)
		}
		return nil
	}

	if *exp != "all" {
		if err := runOne(*exp); err != nil {
			return err
		}
		return writeTrace(stdout, stderr, tr, *tracePath, *traceSummary)
	}
	for _, name := range []string{"table1", "twonode", "aggregate", "crossvendor", "portability", "genstudy", "pipeline", "mapping", "heterogeneous", "realtime", "scaling", "faultsweep"} {
		fmt.Fprintf(stdout, "=== %s ===\n", name)
		if err := runOne(name); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return writeTrace(stdout, stderr, tr, *tracePath, *traceSummary)
}

// writeTrace emits the collected trace as Chrome trace-event JSON and/or a
// text summary after the experiments finish.
func writeTrace(stdout, stderr io.Writer, tr *trace.Trace, path string, summary bool) error {
	if tr == nil {
		return nil
	}
	if len(tr.Runs()) == 0 {
		fmt.Fprintln(stderr, "sage bench: note: the selected experiment produced no traced runs")
	}
	if path != "" {
		if err := writeFile(path, tr.WriteChrome); err != nil {
			return err
		}
		// Status goes to stderr so traced stdout stays byte-identical to an
		// untraced run of the same experiment.
		fmt.Fprintf(stderr, "trace: %d runs written to %s (open in chrome://tracing or Perfetto)\n", len(tr.Runs()), path)
	}
	if summary {
		return tr.WriteSummary(stdout)
	}
	return nil
}

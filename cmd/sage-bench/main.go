// sage-bench regenerates the paper's evaluation tables and figures (see
// DESIGN.md's experiment index).
//
// Usage:
//
//	sage-bench -experiment table1              # Table 1.0 at paper scale
//	sage-bench -experiment table1 -quick       # reduced protocol
//	sage-bench -experiment table1 -parallel 4  # 4-worker simulation pool
//	sage-bench -experiment all -quick
//
// Experiments: table1, twonode, aggregate, crossvendor, portability,
// genstudy, pipeline, mapping, faultsweep, all.
//
// Independent simulation runs fan out across a bounded worker pool
// (-parallel, default GOMAXPROCS). Results are identical at any pool size —
// all timing is virtual — so -parallel trades host wall-clock only.
// -shards N additionally shards each SAGE simulation internally
// (sagert.Options.Shards) — useful when one huge run dominates; like
// -parallel it never changes a reported number.
//
// -faults plan.txt injects a deterministic fault plan (drops, degraded
// links, node stalls — see DESIGN.md §6 and sage-faultcheck) into every
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
package main

import (
	"flag"
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

func main() { os.Exit(cliMain(os.Args[1:], os.Stderr)) }

// cliMain parses flags and maps errors to the shared exit-code discipline:
// usage mistakes exit 2, experiment failures exit 1.
func cliMain(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("sage-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("experiment", "table1", "experiment to run (table1|twonode|aggregate|crossvendor|portability|genstudy|pipeline|mapping|heterogeneous|realtime|scaling|faultsweep|all)")
	quick := fs.Bool("quick", false, "reduced sizes and protocol for a fast smoke run")
	paper := fs.Bool("paper", false, "use the literal §3.3 protocol (10 executions x 100 iterations); slow, and — the simulator being deterministic — numerically identical to the default reduced protocol")
	parallel := fs.Int("parallel", 0, "worker pool size for independent simulation runs (0 = GOMAXPROCS, 1 = sequential); output is identical at any setting")
	shards := fs.Int("shards", 1, "shard each SAGE simulation run across up to this many cores (byte-identical output; sequential-mode comparisons and shared-fabric platforms ignore it)")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON of every simulation run to this file")
	traceSummary := fs.Bool("trace-summary", false, "print a per-node/per-link trace summary (requires or implies tracing)")
	faultsPath := fs.String("faults", "", "fault-plan file injected into every simulated run (validate with sage-faultcheck)")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}

	if err := run(*exp, *quick, *paper, *parallel, *shards, *tracePath, *traceSummary, *faultsPath); err != nil {
		fmt.Fprintln(stderr, "sage-bench:", err)
		return cli.ExitCode(err)
	}
	return cli.ExitOK
}

func run(exp string, quick, paper bool, parallel, shards int, tracePath string, traceSummary bool, faultsPath string) error {
	// Default: paper sizes, reduced repetition count. Averages are exact
	// because virtual timing is deterministic across repetitions.
	proto := experiments.Protocol{Repetitions: 1, Iterations: 5}
	if paper {
		proto = experiments.Paper()
	}
	sizes := []int{256, 512, 1024}
	nodes := []int{4, 8}
	anomalyN := 512
	vendorN := 1024
	vendorNodes := []int{2, 4, 8, 16}
	if quick {
		proto = experiments.Quick()
		sizes = []int{64, 128}
		anomalyN = 128
		vendorN = 128
		vendorNodes = []int{4, 8}
	}
	proto.Parallelism = parallel
	proto.Shards = shards
	if faultsPath != "" {
		src, err := os.ReadFile(faultsPath)
		if err != nil {
			return err
		}
		plan, err := fault.ParsePlan(string(src))
		if err != nil {
			return fmt.Errorf("%s: %w", faultsPath, err)
		}
		proto.Faults = plan
	}
	var tr *trace.Trace
	if tracePath != "" || traceSummary {
		tr = trace.NewTrace()
		proto.Trace = tr
	}
	tblCfg := experiments.Table1Config{Sizes: sizes, Nodes: nodes, Protocol: proto}

	runOne := func(name string) error {
		switch name {
		case "table1":
			t, err := experiments.RunTable1(tblCfg)
			if err != nil {
				return err
			}
			fmt.Println(t.Format())
		case "twonode":
			t, err := experiments.RunTwoNode(platforms.CSPI(), anomalyN, proto)
			if err != nil {
				return err
			}
			fmt.Println(t.Format())
			fmt.Printf("two-node configuration is the worst: %v (paper §3.4 observed the same)\n\n", t.WorstIsTwoNodes())
		case "aggregate":
			a, err := experiments.RunAggregate(tblCfg)
			if err != nil {
				return err
			}
			fmt.Println(a.Format())
		case "crossvendor":
			c, err := experiments.RunCrossVendor(vendorN, vendorNodes, proto)
			if err != nil {
				return err
			}
			fmt.Println(c.Format())
		case "portability":
			p, err := experiments.RunPortability(experiments.AppFFT2D, min(512, vendorN), 8, experiments.Quick())
			if err != nil {
				return err
			}
			fmt.Println(p.Format())
			fmt.Printf("identical output on every platform: %v\n\n", p.AllVerified())
		case "genstudy":
			for _, kind := range []experiments.AppKind{experiments.AppFFT2D, experiments.AppCornerTurn} {
				s, err := experiments.RunGenStudy(kind, platforms.CSPI(), vendorN, 8)
				if err != nil {
					return err
				}
				fmt.Println(s.Format())
			}
			fmt.Println()
		case "pipeline":
			p, err := experiments.RunPipeline(experiments.AppFFT2D, platforms.CSPI(), min(512, vendorN), 8, 8)
			if err != nil {
				return err
			}
			fmt.Println(p.Format())
		case "mapping":
			app, err := apps.STAP(min(256, vendorN), 6)
			if err != nil {
				return err
			}
			gens := 120
			if quick {
				gens = 30
			}
			s, err := experiments.RunMappingStudy(app, platforms.CSPI(), 8, atot.GAConfig{Generations: gens, Seed: 1})
			if err != nil {
				return err
			}
			fmt.Println(s.Format())
		case "heterogeneous":
			app, err := apps.STAP(min(128, vendorN), 4)
			if err != nil {
				return err
			}
			gens := 60
			if quick {
				gens = 25
			}
			h, err := experiments.RunHeterogeneous(app, platforms.CSPI(),
				[]float64{2, 2, 1, 1, 1, 1, 0.5, 0.5},
				atot.GAConfig{Generations: gens, Seed: 1})
			if err != nil {
				return err
			}
			fmt.Println(h.Format())
		case "scaling":
			sc, err := experiments.RunScaling(experiments.AppFFT2D, platforms.CSPI(),
				min(512, vendorN), vendorNodes, proto)
			if err != nil {
				return err
			}
			fmt.Println(sc.Format())
			sc2, err := experiments.RunScaling(experiments.AppCornerTurn, platforms.CSPI(),
				min(512, vendorN), vendorNodes, proto)
			if err != nil {
				return err
			}
			fmt.Println(sc2.Format())
		case "faultsweep":
			fc := experiments.FaultSweepConfig{N: min(256, vendorN), Protocol: proto}
			if quick {
				fc.Rates = []float64{0, 0.1, 0.3}
			}
			fs, err := experiments.RunFaultSweep(fc)
			if err != nil {
				return err
			}
			fmt.Println(fs.Format())
		case "realtime":
			rt, err := experiments.RunRealTime(experiments.AppCornerTurn, platforms.CSPI(),
				min(512, vendorN), 8, 8, nil)
			if err != nil {
				return err
			}
			fmt.Println(rt.Format())
		default:
			return cli.Usagef("unknown experiment %q", name)
		}
		return nil
	}

	if exp == "all" {
		for _, name := range []string{"table1", "twonode", "aggregate", "crossvendor", "portability", "genstudy", "pipeline", "mapping", "heterogeneous", "realtime", "scaling", "faultsweep"} {
			fmt.Printf("=== %s ===\n", name)
			if err := runOne(name); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return writeTrace(tr, tracePath, traceSummary)
	}
	if err := runOne(exp); err != nil {
		return err
	}
	return writeTrace(tr, tracePath, traceSummary)
}

// writeTrace emits the collected trace as Chrome trace-event JSON and/or a
// text summary after the experiments finish.
func writeTrace(tr *trace.Trace, path string, summary bool) error {
	if tr == nil {
		return nil
	}
	if len(tr.Runs()) == 0 {
		fmt.Fprintln(os.Stderr, "sage-bench: note: the selected experiment produced no traced runs")
	}
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := tr.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		// Status goes to stderr so traced stdout stays byte-identical to an
		// untraced run of the same experiment.
		fmt.Fprintf(os.Stderr, "trace: %d runs written to %s (open in chrome://tracing or Perfetto)\n", len(tr.Runs()), path)
	}
	if summary {
		if err := tr.WriteSummary(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

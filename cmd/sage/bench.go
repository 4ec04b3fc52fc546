package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/trace"
)

// cmdBench regenerates the paper's evaluation tables and figures (see
// EXPERIMENTS.md); each experiment is one entry of experiments.Experiments.
//
//	sage bench -experiment table1              # Table 1.0 at paper scale
//	sage bench -experiment table1 -parallel 4  # 4-worker simulation pool
//	sage bench -experiment all
//
// Every run follows §3.3's 100 iterations once: the simulator is
// deterministic, so the paper's ten executions would print the same numbers.
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
	exp := fs.String("experiment", "table1", "experiment to run ("+experimentNames()+"|all)")
	parallel := fs.Int("parallel", 0, "worker pool size for independent simulation runs (0 = GOMAXPROCS, 1 = sequential); output is identical at any setting")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON of every simulation run to this file")
	traceSummary := fs.Bool("trace-summary", false, "print a per-node/per-link trace summary (requires or implies tracing)")
	faultsPath := fs.String("faults", "", "fault-plan file injected into every simulated run (validate with sage check fault)")
	if err := parse(fs, args); err != nil {
		return err
	}

	proto := experiments.Protocol{Parallelism: *parallel}
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

	if *exp != "all" {
		e, ok := experiments.Lookup(*exp)
		if !ok {
			return usagef("unknown experiment %q", *exp)
		}
		out, err := e.Run(proto)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, out)
		return writeTrace(stdout, stderr, tr, *tracePath, *traceSummary)
	}
	for _, e := range experiments.Experiments {
		fmt.Fprintf(stdout, "=== %s ===\n", e.Name)
		out, err := e.Run(proto)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Fprint(stdout, out)
	}
	return writeTrace(stdout, stderr, tr, *tracePath, *traceSummary)
}

// experimentNames joins the registry's names for the flag's help text.
func experimentNames() string {
	names := make([]string, len(experiments.Experiments))
	for i, e := range experiments.Experiments {
		names[i] = e.Name
	}
	return strings.Join(names, "|")
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

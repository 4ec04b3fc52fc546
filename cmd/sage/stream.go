package main

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/stream"
)

// cmdStream runs streaming SAGE scenarios: a JSON scenario file (class mix,
// app/platform/mapping case, optional fault plan and remap policy) is
// compiled and executed on the simulated machine, and the SLO report —
// per-class latency percentiles, throughput, fairness, backpressure
// high-water marks and remap events — is printed as a table or as JSON.
// Reports are pure virtual-time artifacts: byte-identical for a given
// scenario on every host. sage check stream validates a report's schema.
//
//	sage stream scenario.json                  run, print the SLO report
//	sage stream -json scenario.json            same, report as JSON
//	sage stream -compare scenario.json         remap vs static baseline
//	sage stream -compare -require-improved ... exit 1 unless remap won
//	sage stream -replay scenario.json          determinism check: compare at
//	                                           -parallel 1 vs -parallel N,
//	                                           fail on any byte difference
func cmdStream(args []string, stdout, stderr io.Writer) error {
	fs := flags("stream", stderr)
	compare := fs.Bool("compare", false, "run the scenario twice (remap policy off and on) and print both cells")
	requireImproved := fs.Bool("require-improved", false, "with -compare: exit 1 unless remapping reduced late+shed frames")
	replay := fs.Bool("replay", false, "determinism check: run the comparison at -parallel 1 and -parallel N and fail on any report byte difference")
	asJSON := fs.Bool("json", false, "print the report as JSON instead of a table")
	parallel := fs.Int("parallel", 1, "experiment parallelism for -compare / the second -replay leg")
	if err := parse(fs, args); err != nil {
		return err
	}
	switch {
	case fs.NArg() != 1:
		return cli.Usagef("want one scenario file: sage stream [-compare [-require-improved] | -replay] [-json] [-parallel N] file.json")
	case *compare && *replay:
		return cli.Usagef("-compare and -replay are mutually exclusive")
	case *requireImproved && !*compare:
		return cli.Usagef("-require-improved only applies with -compare")
	case *parallel < 1:
		return cli.Usagef("-parallel must be >= 1 (got %d)", *parallel)
	}
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	sc, err := stream.ReadScenario(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	switch {
	case *compare:
		cmp, err := experiments.RunStreamCompare(experiments.StreamCompareConfig{Scenario: sc, Parallelism: *parallel})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, cmp.Format())
		if *requireImproved && !cmp.Improved() {
			return fmt.Errorf("remapping did not improve late+shed (static %d, remap %d)",
				cmp.Static.Late+cmp.Static.Shed, cmp.Remap.Late+cmp.Remap.Shed)
		}
		return nil
	case *replay:
		return replayStream(stdout, sc, *parallel)
	}
	cfg, err := sc.Build()
	if err != nil {
		return err
	}
	res, err := stream.Run(cfg)
	if err != nil {
		return err
	}
	rep := stream.BuildReport(cfg.Classes, cfg.Seed, res)
	if err := rep.Validate(); err != nil {
		return fmt.Errorf("report failed schema validation: %w", err)
	}
	if *asJSON {
		return rep.WriteJSON(stdout)
	}
	rep.Format(stdout)
	return nil
}

// replayStream is the determinism gate CI runs: the comparison executed at
// experiment parallelism 1 and at -parallel N must produce byte-identical
// report JSON for both cells.
func replayStream(w io.Writer, sc *stream.Scenario, parallel int) error {
	render := func(p int) ([]byte, error) {
		cmp, err := experiments.RunStreamCompare(experiments.StreamCompareConfig{Scenario: sc, Parallelism: p})
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		if err := cmp.Static.WriteJSON(&b); err != nil {
			return nil, err
		}
		if err := cmp.Remap.WriteJSON(&b); err != nil {
			return nil, err
		}
		return b.Bytes(), nil
	}
	seq, err := render(1)
	if err != nil {
		return err
	}
	par, err := render(parallel)
	if err != nil {
		return err
	}
	if !bytes.Equal(seq, par) {
		return fmt.Errorf("replay diverged: reports at -parallel 1 and -parallel %d differ", parallel)
	}
	fmt.Fprintf(w, "replay ok: reports byte-identical at -parallel 1 and -parallel %d (%d bytes)\n",
		parallel, len(seq))
	return nil
}

package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/cli"
	"repro/internal/conformance"
)

// cmdConform drives the randomized end-to-end conformance subsystem: for
// every seed in a range it generates a valid dataflow application (a
// layered DAG of function-library ops with randomized shapes, stripings,
// fan-in and fan-out), maps it onto a randomized platform, generates the
// runtime tables, executes them on the simulated multicomputer, and
// differentially checks the outputs against a single-node sequential
// oracle — plus the metamorphic invariants (re-execution, sequential mode,
// optimized buffers, traced, faulted with forced delivery, node-permuted
// mapping), all bit for bit. Failing seeds are greedily shrunk and written
// as reproducer corpus files that the test suite replays.
//
//	sage conform -seed-range 0:200                  # the standard campaign
//	sage conform -seed 17                           # one seed, verbose
//	sage conform -seed-range 0:64 -quick -parallel 8
//	sage conform -seed-range 0:32 -mutate           # harness self-test
//	sage conform -seed-range 0:32 -mutate-exec      # generated-code self-test
//	sage conform -replay internal/conformance/testdata/corpus
//	sage conform -seed-range 0:64 -corpus ./failing # write reproducers
func cmdConform(args []string, stdout, stderr io.Writer) error {
	fs := flags("conform", stderr)
	var (
		seedRange  = fs.String("seed-range", "", "half-open seed range from:to, e.g. 0:200")
		seed       = fs.Int64("seed", -1, "check a single seed (prints the generated case summary)")
		quick      = fs.Bool("quick", false, "bound graph and platform sizes (CI smoke runs)")
		parallel   = fs.Int("parallel", 1, "concurrent checker workers; output is identical for any value")
		mutate     = fs.Bool("mutate", false, "self-test: inject a runtime miscomputation; every seed must fail and shrink small")
		mutateExec = fs.Bool("mutate-exec", false, "self-test: corrupt the generated-code execution output; every seed must fail on the exec variant")
		corpus     = fs.String("corpus", "", "directory receiving seed-<n>.case reproducers for failing seeds")
		replay     = fs.String("replay", "", "replay every .case reproducer in a directory instead of generating")
		noShrink   = fs.Bool("no-shrink", false, "report raw failures without minimizing")
		maxShrink  = fs.Int("max-shrink-checks", 0, "differential check budget per shrink (0 = default)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	switch {
	case *replay != "":
		return replayCorpus(stdout, *replay)
	case *seed >= 0:
		opt := conformance.CheckOptions{MutateRuntime: *mutate, MutateExec: *mutateExec}
		return conformSeed(stdout, *seed, *quick, opt, *maxShrink)
	case *seedRange == "":
		return cli.Usagef("one of -seed-range, -seed or -replay is required")
	}
	from, to, err := cli.ParseRange(*seedRange)
	if err != nil {
		return err
	}
	rep, err := conformance.Run(from, to, conformance.Config{
		Quick:           *quick,
		Parallelism:     *parallel,
		Mutate:          *mutate,
		MutateExec:      *mutateExec,
		CorpusDir:       *corpus,
		MaxShrinkChecks: *maxShrink,
		NoShrink:        *noShrink,
	})
	if rep != nil {
		fmt.Fprint(stdout, rep.Format())
	}
	if err == nil && !rep.OK() {
		err = fmt.Errorf("%d of %d seeds failed", rep.Failed, len(rep.Seeds))
	}
	return err
}

// conformSeed checks a single seed verbosely, shrinking it on failure.
func conformSeed(w io.Writer, seed int64, quick bool, opt conformance.CheckOptions, maxShrink int) error {
	c, err := conformance.Generate(seed, conformance.GenConfig{Quick: quick})
	if err != nil {
		return fmt.Errorf("seed %d: generator: %w", seed, err)
	}
	fmt.Fprintf(w, "seed %d: app %s: %d tasks, %d arcs, %d nodes, platform %s, %d iterations\n",
		seed, c.App.Name, c.Tasks(), c.Arcs(), c.Nodes, c.Platform, c.Iterations)
	for _, f := range c.App.Functions {
		fmt.Fprintf(w, "  %-24s kind=%-18s threads=%d\n", f.Name, f.Kind, f.Threads)
	}
	fail := c.Check(opt)
	if fail == nil {
		fmt.Fprintf(w, "seed %d: PASS (oracle + all metamorphic variants agree bit for bit)\n", seed)
		return nil
	}
	fmt.Fprintf(w, "seed %d: FAIL %s\n", seed, fail)
	sr := conformance.Shrink(c, opt, maxShrink)
	fmt.Fprintf(w, "seed %d: shrunk to %d tasks / %d arcs in %d checks: %s\n",
		seed, sr.Case.Tasks(), sr.Case.Arcs(), sr.Checks, sr.Failure)
	return errors.Join(fmt.Errorf("seed %d failed", seed), conformance.WriteCase(w, sr.Case))
}

// replayCorpus re-checks every committed reproducer in dir.
func replayCorpus(w io.Writer, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".case") {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		fmt.Fprintf(w, "replay %s: no .case files\n", dir)
		return nil
	}
	bad := 0
	for _, name := range files {
		c, err := conformance.ReadCaseFile(filepath.Join(dir, name))
		if err != nil {
			fmt.Fprintf(w, "replay %s: UNREADABLE: %v\n", name, err)
			bad++
			continue
		}
		if fail := c.Check(conformance.CheckOptions{}); fail != nil {
			fmt.Fprintf(w, "replay %s: FAIL %s\n", name, fail)
			bad++
		} else {
			fmt.Fprintf(w, "replay %s: pass (%d tasks, %d nodes)\n", name, c.Tasks(), c.Nodes)
		}
	}
	fmt.Fprintf(w, "replay: %d/%d reproducers pass\n", len(files)-bad, len(files))
	if bad > 0 {
		return fmt.Errorf("%d of %d reproducers fail", bad, len(files))
	}
	return nil
}

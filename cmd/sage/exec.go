package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"repro/internal/codegen"
	"repro/internal/codegen/rtl"
	"repro/internal/conformance"
	"repro/internal/experiments"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/sagert"
)

// execOptions carries the parsed flags both modes share.
type execOptions struct {
	quick      bool
	build      bool
	race       bool
	emitDir    string
	iterations int
	bench      int
}

// cmdExec closes the paper's code-generation loop for real: it lowers
// gluegen's runtime tables into an actual Go program — one goroutine per
// SAGE thread, buffered-channel lanes with the simulated runtime's credit
// semantics, function-library kernels on real []complex128 data — and then
// proves the generated code correct by differential execution. Every run is
// compared bit for bit against the sequential oracle (every iteration) and
// against the simulated kernel's data path (iteration 0). With -build the
// emitted source is additionally compiled with the host toolchain and the
// binary's output byte-compared against the in-process execution.
//
//	sage exec -seed 7                        # one conformance seed, verbose
//	sage exec -seed-range 0:32 -quick        # a seed sweep (CI smoke)
//	sage exec -seed-range 0:8 -quick -build -race
//	sage exec -seed 7 -emit ./out            # keep the emitted source
//	sage exec -app fft2d -n 64 -nodes 4 -iterations 3
//	sage exec -app ct -n 64 -nodes 4 -bench 5   # wall clock vs handcoded loop
func cmdExec(args []string, stdout, stderr io.Writer) error {
	fs := flags("exec", stderr)
	var (
		seed      = fs.Int64("seed", -1, "check one conformance seed")
		seedRange = fs.String("seed-range", "", "half-open seed range from:to")
		quick     = fs.Bool("quick", false, "bound generated graph and platform sizes")
		build     = fs.Bool("build", false, "also compile the emitted source and diff the binary's output")
		race      = fs.Bool("race", false, "build the emitted program with -race (implies -build)")
		emitDir   = fs.String("emit", "", "write the emitted source package(s) under this directory")
		app       = fs.String("app", "", "run a benchmark app instead of a seed: fft2d or ct")
		n         = fs.Int("n", 64, "app mode: problem size (n x n)")
		nodes     = fs.Int("nodes", 4, "app mode: platform nodes")
		threads   = fs.Int("threads", 0, "app mode: worker threads per stage (0 = nodes)")
		platform  = fs.String("platform", "Workstations", "app mode: platform name")
		iters     = fs.Int("iterations", 1, "app mode: pipeline iterations to execute")
		bench     = fs.Int("bench", 0, "app mode: repetitions for the wall-clock comparison vs the handcoded loop")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	opt := execOptions{
		quick: *quick, build: *build || *race, race: *race,
		emitDir: *emitDir, iterations: *iters, bench: *bench,
	}
	switch {
	case *app != "":
		return execApp(*app, *n, *nodes, *threads, *platform, opt, stdout)
	case *seed >= 0:
		return checkSeeds(*seed, *seed+1, opt, stdout, stderr)
	case *seedRange == "":
		return usagef("one of -seed, -seed-range or -app is required")
	}
	from, to, err := parseRange(*seedRange)
	if err != nil {
		return err
	}
	return checkSeeds(from, to, opt, stdout, stderr)
}

// checkSeeds runs the full differential loop for every seed in [from, to):
// generate -> gluegen -> plan -> execute, diffed against the oracle and the
// sim kernel, optionally through the compiler.
func checkSeeds(from, to int64, opt execOptions, stdout, stderr io.Writer) error {
	failed := 0
	for seed := from; seed < to; seed++ {
		if err := checkSeed(seed, opt, stdout); err != nil {
			fmt.Fprintf(stderr, "sage exec: seed %d: %v\n", seed, err)
			failed++
		}
	}
	fmt.Fprintf(stdout, "sage exec: %d/%d seeds pass\n", to-from-int64(failed), to-from)
	if failed > 0 {
		return fmt.Errorf("%d of %d seeds failed", failed, to-from)
	}
	return nil
}

func checkSeed(seed int64, opt execOptions, stdout io.Writer) error {
	c, err := conformance.Generate(seed, conformance.GenConfig{Quick: opt.quick})
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	pl, err := platforms.ByName(c.Platform)
	if err != nil {
		return err
	}
	gout, err := gluegen.Generate(gluegen.Input{
		App: c.App, Mapping: c.Mapping, Platform: pl, NumNodes: c.Nodes,
	})
	if err != nil {
		return fmt.Errorf("gluegen: %w", err)
	}
	prog, err := codegen.Plan(gout.Tables, c.Iterations)
	if err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	res, err := rtl.Execute(prog)
	if err != nil {
		return fmt.Errorf("execute: %w", err)
	}
	if err := checkOracle(c.App, res, c.Iterations); err != nil {
		return fmt.Errorf("vs oracle, %w", err)
	}
	// Iteration 0 against the simulated kernel's data path.
	sres, err := sagert.Run(gout.Tables, pl, sagert.Options{Iterations: c.Iterations})
	if err != nil {
		return fmt.Errorf("sim kernel: %w", err)
	}
	if d := conformance.CompareOutputs(sres.Outputs, res.Iters[0]); d != "" {
		return fmt.Errorf("vs sim kernel: %s", d)
	}

	detail := fmt.Sprintf("%d threads, %d lanes, %d iterations, wall %v",
		len(prog.Threads), len(prog.Conns), prog.Iterations, res.Wall.Round(time.Microsecond))
	if opt.emitDir != "" || opt.build {
		src, err := codegen.EmitSource(prog)
		if err != nil {
			return fmt.Errorf("emit: %w", err)
		}
		if opt.emitDir != "" {
			dir := filepath.Join(opt.emitDir, fmt.Sprintf("seed-%d", seed))
			if err := codegen.WritePackage(dir, src); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "seed %d: emitted %s\n", seed, filepath.Join(dir, "main.go"))
		}
		if opt.build {
			if err := buildAndDiff(src, res, opt.race); err != nil {
				return err
			}
			detail += ", compiled output identical"
			if opt.race {
				detail += " (-race)"
			}
		}
	}
	fmt.Fprintf(stdout, "seed %d: PASS oracle+sim (%s)\n", seed, detail)
	return nil
}

// checkOracle compares every executed iteration with the sequential oracle.
func checkOracle(app *model.App, res *rtl.Result, iterations int) error {
	for iter := 0; iter < iterations; iter++ {
		want, err := conformance.Oracle(app, iter)
		if err != nil {
			return fmt.Errorf("oracle iteration %d: %w", iter, err)
		}
		if d := conformance.CompareOutputs(want, res.Iters[iter]); d != "" {
			return fmt.Errorf("iteration %d: %s", iter, d)
		}
	}
	return nil
}

// buildAndDiff compiles the emitted source with the host toolchain, runs it
// and requires its output to equal the in-process execution's.
func buildAndDiff(src []byte, res *rtl.Result, race bool) error {
	var want bytes.Buffer
	if err := res.WriteText(&want); err != nil {
		return err
	}
	bres, err := codegen.BuildAndRun(src, codegen.BuildOptions{Race: race, Vet: true})
	if err != nil {
		return err
	}
	if !bytes.Equal(bres.Stdout, want.Bytes()) {
		return fmt.Errorf("compiled output differs from in-process output")
	}
	return nil
}

// execApp generates, verifies and (optionally) benchmarks one of the
// paper's benchmark applications as a real executing program.
func execApp(name string, n, nodes, threads int, platform string, opt execOptions, stdout io.Writer) error {
	kind, ok := map[string]experiments.AppKind{
		"fft2d": experiments.AppFFT2D, "ct": experiments.AppCornerTurn, "cornerturn": experiments.AppCornerTurn,
	}[name]
	if !ok {
		return usagef("unknown app %q (want fft2d or ct)", name)
	}
	if threads <= 0 {
		threads = nodes
	}
	opt.iterations = max(opt.iterations, 1)
	pl, err := platforms.ByName(platform)
	if err != nil {
		return usagef("%v", err)
	}
	app, err := experiments.BuildApp(kind, n, threads)
	if err != nil {
		return err
	}
	gout, err := experiments.GenerateTablesWide(kind, pl, nodes, threads, n)
	if err != nil {
		return err
	}
	prog, err := codegen.Plan(gout.Tables, opt.iterations)
	if err != nil {
		return err
	}
	res, err := rtl.Execute(prog)
	if err != nil {
		return err
	}
	if err := checkOracle(app, res, opt.iterations); err != nil {
		return fmt.Errorf("%s %w", kind, err)
	}
	fmt.Fprintf(stdout, "%s n=%d nodes=%d threads=%d: %d threads, %d lanes, %d iterations verified vs oracle, wall %v\n",
		kind, n, nodes, threads, len(prog.Threads), len(prog.Conns), opt.iterations, res.Wall.Round(time.Microsecond))

	if opt.emitDir != "" || opt.build {
		src, err := codegen.EmitSource(prog)
		if err != nil {
			return err
		}
		if opt.emitDir != "" {
			if err := codegen.WritePackage(opt.emitDir, src); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "emitted %s\n", filepath.Join(opt.emitDir, "main.go"))
		}
		if opt.build {
			if err := buildAndDiff(src, res, opt.race); err != nil {
				return err
			}
			fmt.Fprintln(stdout, "compiled output identical to in-process execution")
		}
	}
	if opt.bench > 0 {
		return benchApp(kind, app, prog, opt, stdout)
	}
	return nil
}

// benchApp measures real wall clock: the generated concurrent program
// against the handcoded-style sequential loop (the oracle evaluating the
// same model once per data set), averaged over repetitions. This is the
// paper's Table-1 comparison re-run on actual execution rather than the
// simulator — numbers land in README.md's "running generated code for
// real" walkthrough.
func benchApp(kind experiments.AppKind, app *model.App, prog *rtl.Program, opt execOptions, stdout io.Writer) error {
	reps := opt.bench
	var genTotal, handTotal time.Duration
	for r := 0; r < reps; r++ {
		res, err := rtl.Execute(prog)
		if err != nil {
			return err
		}
		genTotal += res.Wall
		start := time.Now()
		for iter := 0; iter < opt.iterations; iter++ {
			if _, err := conformance.Oracle(app, iter); err != nil {
				return err
			}
		}
		handTotal += time.Since(start)
	}
	gen := genTotal / time.Duration(reps)
	hand := handTotal / time.Duration(reps)
	fmt.Fprintf(stdout, "bench %s: generated %v, handcoded-loop %v, ratio %.2f (avg of %d reps, %d iterations)\n",
		kind, gen.Round(time.Microsecond), hand.Round(time.Microsecond),
		float64(gen)/float64(hand), reps, opt.iterations)
	return nil
}

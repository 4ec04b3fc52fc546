package conformance

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/codegen/rtl"
	"repro/internal/gluegen"
	"repro/internal/isspl"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/sagert"
	"repro/internal/trace"
)

// Failure is one conformance violation: the variant that exposed it and a
// deterministic human-readable detail (no run-dependent noise, so reports
// are byte-identical across driver parallelism).
type Failure struct {
	Variant string
	Detail  string
}

func (f *Failure) String() string { return "[" + f.Variant + "] " + f.Detail }

// CheckOptions tunes a conformance check.
type CheckOptions struct {
	// MutateRuntime simulates a runtime miscomputation: after every runtime
	// execution the first sample of the first sink's output is sign-flipped
	// before comparison. The differential checker must catch it and the
	// shrinker must reduce it to a tiny reproducer — the mutation self-test
	// that proves the harness can actually detect a broken runtime.
	MutateRuntime bool
	// MutateExec applies the same sign-flip to the generated-code execution
	// path instead: the emitted program's iteration-0 output is corrupted
	// before comparison, so the exec variant must fail — proving the
	// compiled-code differential check can actually detect a miscompiled or
	// miscomputing generated program.
	MutateExec bool
}

// mutateFirstSample sign-flips the first nonzero sample of the first sink
// (flipping an exact zero is invisible: -0.0 == 0.0); an all-zero output
// gets a spike instead.
func mutateFirstSample(out map[string]*isspl.Matrix) {
	if names := sortedNames(out); len(names) > 0 {
		if m := out[names[0]]; m != nil && len(m.Data) > 0 {
			for i, v := range m.Data {
				if v != 0 {
					m.Data[i] = -v
					return
				}
			}
			m.Data[0] = 1
		}
	}
}

// runVariant executes tables under the given options and returns the
// per-sink outputs plus the kernel dispatch count.
func (c *Case) runVariant(tables *gluegen.Tables, opts sagert.Options, opt CheckOptions) (map[string]*isspl.Matrix, uint64, error) {
	pl, err := platforms.ByName(c.Platform)
	if err != nil {
		return nil, 0, err
	}
	res, err := sagert.Run(tables, pl, opts)
	if err != nil {
		return nil, 0, err
	}
	if opt.MutateRuntime {
		mutateFirstSample(res.Outputs)
	}
	return res.Outputs, res.Dispatches, nil
}

// CompareOutputs demands bit-identical agreement: the same sink set, the
// same shapes, and exactly equal samples. Every library kind performs the
// identical floating-point operations per element whether the data set is
// whole or striped, so the distributed runtime has no legitimate reason to
// deviate from the sequential oracle by even one ULP.
func CompareOutputs(want, got map[string]*isspl.Matrix) string {
	wn, gn := sortedNames(want), sortedNames(got)
	if len(wn) != len(gn) {
		return fmt.Sprintf("sink sets differ: want %v, got %v", wn, gn)
	}
	for i := range wn {
		if wn[i] != gn[i] {
			return fmt.Sprintf("sink sets differ: want %v, got %v", wn, gn)
		}
	}
	for _, name := range wn {
		w, g := want[name], got[name]
		if w == nil || g == nil {
			return fmt.Sprintf("sink %s: missing output (want %v, got %v)", name, w != nil, g != nil)
		}
		if w.Rows != g.Rows || w.Cols != g.Cols {
			return fmt.Sprintf("sink %s: shape %dx%d, want %dx%d", name, g.Rows, g.Cols, w.Rows, w.Cols)
		}
		for i := range w.Data {
			if w.Data[i] != g.Data[i] {
				return fmt.Sprintf("sink %s: sample %d (r%d,c%d) = %v, want %v (maxdiff %g)",
					name, i, i/w.Cols, i%w.Cols, g.Data[i], w.Data[i], w.MaxDiff(g))
			}
		}
	}
	return ""
}

// permutedMapping renames every node of m through perm.
func permutedMapping(m *model.Mapping, perm []int) *model.Mapping {
	out := model.NewMapping()
	for fn, nodes := range m.Assign {
		ns := make([]int, len(nodes))
		for i, n := range nodes {
			ns[i] = perm[n]
		}
		out.Set(fn, ns...)
	}
	return out
}

// validPerm reports whether perm is a permutation of [0, n).
func validPerm(perm []int, n int) bool {
	if len(perm) != n {
		return false
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

// Check runs the full differential verification of one case:
//
//  1. the sequential oracle evaluates the model;
//  2. the pipeline (gluegen on the case's mapping and platform, executed by
//     sagert on the sim kernel) must reproduce the oracle bit for bit;
//  3. metamorphic variants — re-execution, the generated program, sequential
//     mode, optimized buffers, traced, faulted under forced delivery, and a
//     node-permuted mapping — must each reproduce the baseline run bit for
//     bit.
//
// A nil return means every invariant held.
func (c *Case) Check(opt CheckOptions) *Failure {
	pl, err := platforms.ByName(c.Platform)
	if err != nil {
		return &Failure{Variant: "setup", Detail: err.Error()}
	}
	want, err := Oracle(c.App, 0)
	if err != nil {
		return &Failure{Variant: "oracle-eval", Detail: err.Error()}
	}
	out, err := gluegen.Generate(gluegen.Input{
		App: c.App, Mapping: c.Mapping, Platform: pl, NumNodes: c.Nodes,
	})
	if err != nil {
		return &Failure{Variant: "gluegen", Detail: err.Error()}
	}
	tables := out.Tables

	base := sagert.Options{Iterations: c.Iterations}
	baseOut, baseDispatch, err := c.runVariant(tables, base, opt)
	if err != nil {
		return &Failure{Variant: "run", Detail: err.Error()}
	}
	if d := CompareOutputs(want, baseOut); d != "" {
		return &Failure{Variant: "oracle", Detail: d}
	}

	// Re-execution: a fresh kernel over the same tables must replay the run
	// exactly, down to the dispatch count.
	againOut, againDispatch, err := c.runVariant(tables, base, opt)
	if err != nil {
		return &Failure{Variant: "replay", Detail: err.Error()}
	}
	if d := CompareOutputs(baseOut, againOut); d != "" {
		return &Failure{Variant: "replay", Detail: d}
	}
	if againDispatch != baseDispatch {
		return &Failure{Variant: "replay",
			Detail: fmt.Sprintf("dispatch count %d, want %d", againDispatch, baseDispatch)}
	}

	// Generated-code execution: the same tables lowered into a real
	// goroutines-and-channels program computing on real data. Iteration 0
	// must reproduce the base sim run bit for bit; because the generated
	// program computes real data on every iteration (the sim kernel only
	// materializes its final compute iteration), each later iteration is
	// independently checked against the sequential oracle at that iteration.
	prog, err := codegen.Plan(tables, c.Iterations)
	if err != nil {
		return &Failure{Variant: "exec-plan", Detail: err.Error()}
	}
	eres, err := rtl.Execute(prog)
	if err != nil {
		return &Failure{Variant: "exec-run", Detail: err.Error()}
	}
	if opt.MutateExec && len(eres.Iters) > 0 {
		mutateFirstSample(eres.Iters[0])
	}
	if d := CompareOutputs(baseOut, eres.Iters[0]); d != "" {
		return &Failure{Variant: "exec", Detail: d}
	}
	for iter := 1; iter < c.Iterations; iter++ {
		iwant, err := Oracle(c.App, iter)
		if err != nil {
			return &Failure{Variant: "exec-oracle", Detail: err.Error()}
		}
		if d := CompareOutputs(iwant, eres.Iters[iter]); d != "" {
			return &Failure{Variant: "exec-oracle",
				Detail: fmt.Sprintf("iteration %d: %s", iter, d)}
		}
	}

	variants := []struct {
		name string
		opts sagert.Options
		skip bool
	}{
		{name: "sequential", opts: sagert.Options{Iterations: c.Iterations, Sequential: true}},
		{name: "optimized", opts: sagert.Options{Iterations: c.Iterations, OptimizedBuffers: true}},
		{name: "traced", opts: sagert.Options{Iterations: c.Iterations,
			Collector: trace.New(fmt.Sprintf("conform seed %d", c.Seed))}},
		{name: "faulted", opts: sagert.Options{Iterations: c.Iterations, Faults: c.Faults},
			skip: c.Faults.Empty()},
	}
	for _, v := range variants {
		if v.skip {
			continue
		}
		got, _, err := c.runVariant(tables, v.opts, opt)
		if err != nil {
			return &Failure{Variant: v.name, Detail: err.Error()}
		}
		if d := CompareOutputs(baseOut, got); d != "" {
			return &Failure{Variant: v.name, Detail: d}
		}
	}

	// Node permutation: renaming the processors must not change what the
	// application computes — only (possibly) when.
	if c.Perm != nil && validPerm(c.Perm, c.Nodes) {
		pm := permutedMapping(c.Mapping, c.Perm)
		pout, err := gluegen.Generate(gluegen.Input{
			App: c.App, Mapping: pm, Platform: pl, NumNodes: c.Nodes,
		})
		if err != nil {
			return &Failure{Variant: "permuted", Detail: err.Error()}
		}
		got, _, err := c.runVariant(pout.Tables, base, opt)
		if err != nil {
			return &Failure{Variant: "permuted", Detail: err.Error()}
		}
		if d := CompareOutputs(baseOut, got); d != "" {
			return &Failure{Variant: "permuted", Detail: d}
		}
	}
	return nil
}

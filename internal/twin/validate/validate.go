// Package validate cross-validates the analytical twin against the
// discrete-event simulator, the same way the conformance harness validates
// the runtime against its sequential oracle: a seeded matrix of randomized
// dataflow graphs (reusing the conformance generator) runs through both
// predictors, and the aggregate error statistics — MAPE for calibration,
// Spearman rank correlation for search-ordering fidelity — are gated in
// `go test` so the twin cannot silently drift from the runtime it models.
package validate

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/conformance"
	"repro/internal/gluegen"
	"repro/internal/platforms"
	"repro/internal/pool"
	"repro/internal/sagert"
	"repro/internal/sim"
	"repro/internal/twin"
)

// Config selects the validation matrix.
type Config struct {
	// SeedStart and Seeds delimit the conformance-generator seed range.
	SeedStart int64
	Seeds     int
	// Quick bounds generated graph sizes (the CI gate matrix).
	Quick bool
	// ExtraIterations is added to each case's iteration count so steady-state
	// credit flow is exercised (default 3 when zero).
	ExtraIterations int
	// Parallelism bounds the worker pool (0 = all cores). Any setting yields
	// a byte-identical report.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.Seeds <= 0 {
		c.Seeds = 16
	}
	if c.ExtraIterations <= 0 {
		c.ExtraIterations = 3
	}
	return c
}

// Run is one twin-vs-DES comparison.
type Run struct {
	Seed       int64
	Platform   string
	Nodes      int
	Tasks      int
	Iterations int
	Sequential bool
	Optimized  bool
	DES        sim.Duration // oracle: sagert.Run's Elapsed
	Twin       sim.Duration // prediction
	APE        float64      // |Twin-DES|/DES, percent
}

// Report aggregates a validation matrix.
type Report struct {
	Runs []Run
	// MAPE is the mean absolute percentage error of Twin vs DES, in percent.
	MAPE float64
	// MaxAPE is the worst single-run error, in percent.
	MaxAPE float64
	// Spearman is the rank correlation between twin and DES elapsed times
	// across the matrix — the property that makes twin-guided search trust-
	// worthy: if the twin ranks candidate A under B, the DES should too.
	Spearman float64
}

// Gates are the calibration thresholds the twin must hold (issue acceptance
// criteria; enforced by go test and the CI twin-validate job).
const (
	GateMAPE     = 25.0 // percent
	GateSpearman = 0.90
)

// Pass reports whether the matrix satisfies the calibration gates.
func (r *Report) Pass() bool {
	return r.MAPE <= GateMAPE && r.Spearman >= GateSpearman
}

// Summary renders the aggregate line the CLI and CI logs print.
func (r *Report) Summary() string {
	verdict := "PASS"
	if !r.Pass() {
		verdict = "FAIL"
	}
	return fmt.Sprintf("twin-validate: %d runs MAPE=%.2f%% (gate %.0f%%) maxAPE=%.2f%% spearman=%.4f (gate %.2f) %s",
		len(r.Runs), r.MAPE, GateMAPE, r.MaxAPE, r.Spearman, GateSpearman, verdict)
}

// Table renders the per-run detail.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-8s %5s %5s %4s %-4s %-4s %14s %14s %7s\n",
		"seed", "platform", "nodes", "tasks", "iter", "seq", "opt", "des", "twin", "ape%")
	for _, x := range r.Runs {
		fmt.Fprintf(&b, "%-6d %-8s %5d %5d %4d %-4v %-4v %14v %14v %7.2f\n",
			x.Seed, x.Platform, x.Nodes, x.Tasks, x.Iterations, x.Sequential, x.Optimized, x.DES, x.Twin, x.APE)
	}
	return b.String()
}

// Validate runs the matrix: for each seed, a conformance-generated graph is
// played through the DES and the twin under every protocol combination
// (sequential × optimized buffers), on the case's own platform, nodes and
// mapping. Fault plans are ignored — fault paths are a documented twin blind
// spot and are excluded from calibration.
func Validate(cfg Config) (*Report, error) {
	c := cfg.withDefaults()
	type caseRuns struct{ runs []Run }
	results, err := pool.Run(c.Parallelism, c.Seeds, func(i int) (caseRuns, error) {
		seed := c.SeedStart + int64(i)
		cc, err := conformance.Generate(seed, conformance.GenConfig{Quick: c.Quick})
		if err != nil {
			return caseRuns{}, fmt.Errorf("seed %d: %w", seed, err)
		}
		pl, err := platforms.ByName(cc.Platform)
		if err != nil {
			return caseRuns{}, err
		}
		out, err := gluegen.Generate(gluegen.Input{App: cc.App, Mapping: cc.Mapping, Platform: pl, NumNodes: cc.Nodes})
		if err != nil {
			return caseRuns{}, fmt.Errorf("seed %d: %w", seed, err)
		}
		ev, err := twin.NewEvaluator(out.Tables, pl)
		if err != nil {
			return caseRuns{}, fmt.Errorf("seed %d: %w", seed, err)
		}
		iters := cc.Iterations + c.ExtraIterations
		var cr caseRuns
		for _, seq := range []bool{true, false} {
			for _, opt := range []bool{false, true} {
				res, err := sagert.Run(out.Tables, pl, sagert.Options{
					Iterations: iters, ComputeIterations: sagert.NoSamples,
					Sequential: seq, OptimizedBuffers: opt,
				})
				if err != nil {
					return caseRuns{}, fmt.Errorf("seed %d seq=%v opt=%v: %w", seed, seq, opt, err)
				}
				pred := ev.Predict(twin.Options{
					Iterations: iters, Sequential: seq, OptimizedBuffers: opt,
				})
				des := sim.Duration(res.Elapsed)
				ape := 0.0
				if des > 0 {
					ape = 100 * math.Abs(float64(pred.Elapsed)-float64(des)) / float64(des)
				}
				cr.runs = append(cr.runs, Run{
					Seed: seed, Platform: cc.Platform, Nodes: cc.Nodes,
					Tasks: len(cc.App.Functions), Iterations: iters,
					Sequential: seq, Optimized: opt,
					DES: des, Twin: pred.Elapsed, APE: ape,
				})
			}
		}
		return cr, nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{}
	for _, cr := range results {
		rep.Runs = append(rep.Runs, cr.runs...)
	}
	var sum float64
	for _, x := range rep.Runs {
		sum += x.APE
		if x.APE > rep.MaxAPE {
			rep.MaxAPE = x.APE
		}
	}
	if len(rep.Runs) > 0 {
		rep.MAPE = sum / float64(len(rep.Runs))
	}
	des := make([]float64, len(rep.Runs))
	tw := make([]float64, len(rep.Runs))
	for i, x := range rep.Runs {
		des[i] = float64(x.DES)
		tw[i] = float64(x.Twin)
	}
	rep.Spearman = Spearman(tw, des)
	return rep, nil
}

// Spearman computes the rank correlation coefficient of two equal-length
// samples, with fractional (average) ranks for ties.
func Spearman(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return 0
	}
	ra := ranks(a)
	rb := ranks(b)
	// Pearson correlation of the rank vectors (exact under ties, unlike the
	// 6Σd² shortcut).
	var ma, mb float64
	for i := range ra {
		ma += ra[i]
		mb += rb[i]
	}
	ma /= float64(len(ra))
	mb /= float64(len(rb))
	var cov, va, vb float64
	for i := range ra {
		da, db := ra[i]-ma, rb[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 1 // constant ranks: no ordering to get wrong
	}
	return cov / math.Sqrt(va*vb)
}

// ranks assigns fractional ranks (1-based; ties share the average rank).
func ranks(x []float64) []float64 {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return x[idx[i]] < x[idx[j]] })
	r := make([]float64, len(x))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && x[idx[j+1]] == x[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

package twin

import (
	"fmt"

	"repro/internal/atot"
	"repro/internal/gluegen"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/sagert"
	"repro/internal/sim"
)

// Candidate is one GA survivor: its assignment, the twin score that earned
// its promotion, and the DES measurement that judged it.
type Candidate struct {
	Assign      []int
	TwinElapsed sim.Duration
	DESElapsed  sim.Duration
}

// PromoteResult reports a twin-accelerated mapping search.
type PromoteResult struct {
	// Mapping is the winner: the promoted candidate with the lowest true DES
	// cost (lowest candidate index on ties).
	Mapping *model.Mapping
	// Winner indexes the winning entry of Candidates.
	Winner int
	// Candidates are the top-K assignments the twin-scored GA promoted to
	// full DES evaluation, in archive order (GA winner first).
	Candidates []Candidate
	// Stats is the GA search trajectory (objective values are twin
	// predictions in nanoseconds).
	Stats *atot.GAStats
}

// MapGAPromote runs AToT's genetic mapping search with the analytical twin
// as the fitness function, then promotes the top-K distinct survivors to
// full discrete-event evaluation and returns the one the DES likes best.
// Every stage is deterministic at any parallelism: the GA's trajectory is
// rng-exact (scoring is pure), the archive fills in batch order, and the DES
// promotions run on an order-preserving pool.
func MapGAPromote(app *model.App, pl machine.Platform, nodes, topK int, cfg atot.GAConfig, opts Options) (*PromoteResult, error) {
	if topK < 1 {
		topK = 1
	}
	aev, err := atot.NewEvaluator(app, pl, nodes)
	if err != nil {
		return nil, err
	}
	// Any valid mapping yields the same striping transfers: the runtime
	// tables only bake the assignment into FuncEntry.Nodes, which
	// PredictAssign overrides and Tables.WithMapping replaces. Generate
	// once, predict everywhere, re-map for each promoted candidate.
	base, err := gluegen.Generate(gluegen.Input{App: app, Mapping: model.RoundRobin(app, nodes), Platform: pl, NumNodes: nodes})
	if err != nil {
		return nil, err
	}
	tev, err := NewEvaluator(base.Tables, pl)
	if err != nil {
		return nil, err
	}
	if tev.Tasks() == 0 {
		return nil, fmt.Errorf("twin: application has no tasks")
	}
	cfg.Fitness = func(assign []int) float64 {
		return float64(tev.PredictElapsed(assign, opts))
	}
	assigns, stats, err := atot.MapGAK(aev, cfg, topK)
	if err != nil {
		return nil, err
	}

	sopts := sagert.Options{
		Iterations:        opts.Iterations,
		ComputeIterations: sagert.NoSamples, // candidates are ranked by Elapsed
		DispatchOverhead:  opts.DispatchOverhead,
		BufferSlots:       opts.BufferSlots,
		Sequential:        opts.Sequential,
		OptimizedBuffers:  opts.OptimizedBuffers,
		NodeSpeeds:        opts.NodeSpeeds,
	}
	cands, err := pool.Run(cfg.Parallelism, len(assigns), func(i int) (Candidate, error) {
		tables, err := base.Tables.WithMapping(tev.MappingFromAssign(assigns[i]))
		if err != nil {
			return Candidate{}, err
		}
		res, err := sagert.Run(tables, pl, sopts)
		if err != nil {
			return Candidate{}, err
		}
		return Candidate{
			Assign:      assigns[i],
			TwinElapsed: tev.PredictElapsed(assigns[i], opts),
			DESElapsed:  sim.Duration(res.Elapsed),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	win := 0
	for i, c := range cands {
		if c.DESElapsed < cands[win].DESElapsed {
			win = i
		}
	}
	return &PromoteResult{
		Mapping:    tev.MappingFromAssign(cands[win].Assign),
		Winner:     win,
		Candidates: cands,
		Stats:      stats,
	}, nil
}

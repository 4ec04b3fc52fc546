package atot

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/sim"
)

// GAConfig tunes the genetic search. Zero values select defaults.
type GAConfig struct {
	Population  int     // default 64
	Generations int     // default 150
	Crossover   float64 // default 0.85
	Mutation    float64 // per-gene, default 0.04
	Elite       int     // default 2
	Tournament  int     // default 3
	Seed        int64   // default 1
	// Parallelism bounds the worker pool that batch-scores each generation's
	// offspring (0 = GOMAXPROCS, 1 = sequential). Any setting yields the
	// identical search trajectory: random numbers are consumed only while
	// breeding genomes, never while scoring them, so the rng stream — and
	// therefore every generation's population — is unchanged by pooling.
	Parallelism int
	Weights     Weights
	// Fitness, when non-nil, replaces the memoized DES-calibrated cost model
	// as the scoring function: each genome (a thread->node assignment in
	// function-table order, threads ascending — see MappingFromAssign) is
	// priced by Fitness alone. Fitness must be pure and safe for concurrent
	// calls; the search trajectory stays deterministic at any Parallelism.
	Fitness func(assign []int) float64
}

func (c GAConfig) withDefaults() GAConfig {
	if c.Population <= 0 {
		c.Population = 64
	}
	if c.Generations <= 0 {
		c.Generations = 150
	}
	if c.Crossover <= 0 {
		c.Crossover = 0.85
	}
	if c.Mutation <= 0 {
		c.Mutation = 0.04
	}
	if c.Elite <= 0 {
		c.Elite = 2
	}
	if c.Tournament <= 0 {
		c.Tournament = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	c.Weights = c.Weights.withDefaults()
	return c
}

// GAStats reports the search trajectory.
type GAStats struct {
	Generations int
	// BestByGen[g] is the best objective value after generation g.
	BestByGen []float64
	// Evaluations is the number of cost evaluations performed.
	Evaluations int
	// Best is the winning mapping's cost breakdown.
	Best Cost
}

// MapGA runs the genetic algorithm and returns the best mapping found
// together with search statistics. The search is deterministic for a given
// seed.
func MapGA(e *Evaluator, cfg GAConfig) (*model.Mapping, *GAStats, error) {
	winner, stats, err := runGA(e, cfg, nil)
	if err != nil {
		return nil, nil, err
	}
	return e.mappingFromGenome(winner.g), stats, nil
}

// MapGAK runs the same search as MapGA and additionally returns the k best
// distinct assignments ever scored, ordered best-first (ties by discovery
// order). The archive is updated after each batch is scored, in batch index
// order, so its contents are byte-identical at any Parallelism. The winning
// mapping is always candidates[0].
func MapGAK(e *Evaluator, cfg GAConfig, k int) ([][]int, *GAStats, error) {
	if k < 1 {
		k = 1
	}
	arch := &gaArchive{k: k, seen: make(map[string]struct{})}
	_, stats, err := runGA(e, cfg, arch)
	if err != nil {
		return nil, nil, err
	}
	out := make([][]int, len(arch.top))
	for i, s := range arch.top {
		out[i] = append([]int(nil), s.g...)
	}
	return out, stats, nil
}

type scored struct {
	g    genome
	cost Cost
}

// gaArchive keeps the k best distinct genomes observed during a search.
type gaArchive struct {
	k    int
	top  []scored
	seen map[string]struct{}
}

func (a *gaArchive) offer(s scored) {
	// A genome too costly for a full archive is turned away before its key
	// is built, so offers after the archive fills mostly allocate nothing.
	if len(a.top) == a.k && s.cost.Total >= a.top[a.k-1].cost.Total {
		return
	}
	key := genomeKey(s.g)
	if _, dup := a.seen[key]; dup {
		return
	}
	a.seen[key] = struct{}{}
	// Insert keeping the slice sorted by cost; existing entries win ties so
	// the archive order reflects discovery order.
	i := len(a.top)
	for i > 0 && a.top[i-1].cost.Total > s.cost.Total {
		i--
	}
	a.top = append(a.top, scored{})
	copy(a.top[i+1:], a.top[i:])
	a.top[i] = scored{g: append(genome(nil), s.g...), cost: s.cost}
	if len(a.top) > a.k {
		evicted := a.top[a.k]
		a.top = a.top[:a.k]
		delete(a.seen, genomeKey(evicted.g))
	}
}

// promote moves (or inserts) s to the head of the archive so that the
// search's winner is always candidate 0, even when equal-cost genomes were
// discovered earlier.
func (a *gaArchive) promote(s scored) {
	key := genomeKey(s.g)
	at := -1
	for i, t := range a.top {
		if genomeKey(t.g) == key {
			at = i
			break
		}
	}
	if at == -1 {
		if len(a.top) == a.k {
			evicted := a.top[a.k-1]
			a.top = a.top[:a.k-1]
			delete(a.seen, genomeKey(evicted.g))
		}
		a.top = append(a.top, scored{})
		at = len(a.top) - 1
		a.seen[key] = struct{}{}
		a.top[at] = scored{g: append(genome(nil), s.g...), cost: s.cost}
	}
	head := a.top[at]
	copy(a.top[1:at+1], a.top[:at])
	a.top[0] = head
}

func genomeKey(g genome) string {
	b := make([]byte, 0, len(g)*2)
	for _, n := range g {
		b = append(b, byte(n), byte(n>>8))
	}
	return string(b)
}

func runGA(e *Evaluator, cfg GAConfig, arch *gaArchive) (scored, *GAStats, error) {
	c := cfg.withDefaults()
	if len(e.tasks) == 0 {
		return scored{}, nil, fmt.Errorf("atot: application has no tasks")
	}
	rng := rand.New(rand.NewSource(c.Seed))
	genomeLen := len(e.tasks)

	// A search holds two generations for its whole run, each a population
	// whose genomes are fixed slots of one arena: a generation breeds into
	// next while selection reads pop, then the two swap.
	generation := func() []scored {
		arena := make([]int, c.Population*genomeLen)
		g := make([]scored, c.Population)
		for i := range g {
			g[i].g = arena[i*genomeLen : (i+1)*genomeLen : (i+1)*genomeLen]
		}
		return g
	}
	pop, next := generation(), generation()
	randomize := func(g genome) {
		for i := range g {
			g[i] = rng.Intn(e.NumNodes)
		}
	}

	stats := &GAStats{Generations: c.Generations, BestByGen: make([]float64, 0, c.Generations)}
	// scoreAll prices a batch of genomes on the worker pool. The cost model
	// is pure (memoized tables, no rng; each worker owns one scratch for the
	// search) and Fitness is required to be, so scoring in parallel is safe
	// and preserves the exact sequential trajectory. The archive is fed
	// afterwards, sequentially.
	width := pool.Width(c.Population, c.Parallelism)
	var scratch []*evalScratch
	if c.Fitness == nil {
		scratch = make([]*evalScratch, width)
		for w := range scratch {
			scratch[w] = e.scratch.Get().(*evalScratch)
			defer e.scratch.Put(scratch[w])
		}
	}
	var batch []scored
	score := func(w, i int) {
		if c.Fitness != nil {
			batch[i].cost = Cost{Total: c.Fitness(batch[i].g)}
		} else {
			batch[i].cost = e.evalGenomeInto(batch[i].g, c.Weights, scratch[w])
		}
	}
	scoreAll := func(b []scored) {
		stats.Evaluations += len(b)
		batch = b
		pool.Stride(len(b), width, score)
		if arch != nil {
			for _, s := range b {
				arch.offer(s)
			}
		}
	}

	// Seed the population with the two deterministic baselines plus random
	// genomes, so the GA never does worse than the heuristics.
	baseline := func(g genome, m *model.Mapping, err error) {
		if err == nil {
			if h, err := e.genomeFromMapping(m); err == nil {
				copy(g, h)
				return
			}
		}
		randomize(g)
	}
	baseline(pop[0].g, model.RoundRobin(e.App, e.NumNodes), nil)
	if c.Population > 1 {
		m, err := model.SpreadParallel(e.App, e.NumNodes)
		baseline(pop[1].g, m, err)
	}
	for i := 2; i < c.Population; i++ {
		randomize(pop[i].g)
	}
	scoreAll(pop)

	best := func() scored {
		b := pop[0]
		for _, s := range pop[1:] {
			if s.cost.Total < b.cost.Total {
				b = s
			}
		}
		return b
	}
	tournament := func() genome {
		b := pop[rng.Intn(len(pop))]
		for i := 1; i < c.Tournament; i++ {
			s := pop[rng.Intn(len(pop))]
			if s.cost.Total < b.cost.Total {
				b = s
			}
		}
		return b.g
	}

	elites := min(c.Elite, c.Population)
	order := make([]int, c.Population) // pop indices, partially sorted by cost
	for gen := 0; gen < c.Generations; gen++ {
		// Elitism: carry the best genomes unchanged, picked by a partial
		// selection sort over indices (the first-found minimum wins a tie).
		for i := range order {
			order[i] = i
		}
		for i := 0; i < elites; i++ {
			bi := i
			for j := i + 1; j < len(order); j++ {
				if pop[order[j]].cost.Total < pop[order[bi]].cost.Total {
					bi = j
				}
			}
			order[i], order[bi] = order[bi], order[i]
			copy(next[i].g, pop[order[i]].g)
			next[i].cost = pop[order[i]].cost
		}
		// Breed all offspring first (rng-consuming, sequential), then score
		// the batch on the pool. Tournament selection reads only the previous
		// generation's costs, so deferring the children's scores changes
		// nothing.
		for _, s := range next[elites:] {
			a := tournament()
			b := tournament()
			child := s.g
			if rng.Float64() < c.Crossover {
				// Single-point crossover preserves contiguous function
				// thread groups reasonably well.
				cut := rng.Intn(genomeLen)
				copy(child, a[:cut])
				copy(child[cut:], b[cut:])
			} else {
				copy(child, a)
			}
			for i := range child {
				if rng.Float64() < c.Mutation {
					child[i] = rng.Intn(e.NumNodes)
				}
			}
		}
		scoreAll(next[elites:])
		pop, next = next, pop
		stats.BestByGen = append(stats.BestByGen, best().cost.Total)
	}

	winner := best()
	stats.Best = winner.cost
	if arch != nil {
		// The elitism-preserved winner heads the archive even if an equal-cost
		// genome was discovered first.
		arch.promote(winner)
	}
	return winner, stats, nil
}

// MapGreedy is the deterministic list-scheduling baseline: tasks are placed
// in topological order onto the node minimising (load + inbound transfer
// cost), a classic HEFT-style heuristic.
func MapGreedy(e *Evaluator) (*model.Mapping, error) {
	g := make(genome, len(e.tasks))
	for i := range g {
		g[i] = -1
	}
	nodeBusy := make([]sim.Duration, e.NumNodes)
	for _, f := range e.order {
		slot := e.fnSlot[f.ID]
		base := e.taskBase[slot]
		for th := 0; th < f.Threads; th++ {
			ti := base + th
			bestNode, bestCost := 0, sim.Duration(1<<62)
			for n := 0; n < e.NumNodes; n++ {
				cost := nodeBusy[n] + e.taskNode[ti][n]
				for _, fi := range e.incoming[slot] {
					if e.flows[fi].dstThread != th {
						continue
					}
					src := g[e.flowSrc[fi]]
					if src >= 0 {
						cost += e.flowTime(fi, src, n)
					}
				}
				if cost < bestCost {
					bestNode, bestCost = n, cost
				}
			}
			g[ti] = bestNode
			nodeBusy[bestNode] += e.taskNode[ti][bestNode]
		}
	}
	return e.mappingFromGenome(g), nil
}

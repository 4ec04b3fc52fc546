package atot

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/model"
	"repro/internal/platforms"
)

// referenceOffer is gaArchive.offer as it was before a full archive turned
// away a too-costly genome ahead of building its key.
func referenceOffer(a *gaArchive, s scored) {
	key := genomeKey(s.g)
	if _, dup := a.seen[key]; dup {
		return
	}
	if len(a.top) == a.k && s.cost.Total >= a.top[a.k-1].cost.Total {
		return
	}
	a.seen[key] = struct{}{}
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

// referenceRunGA is the generation loop that allocated a fresh population,
// an elite pool and a genome per child in every generation, kept as the
// oracle for runGA's two reused generations. Scoring is sequential: pooled
// scoring writes the same costs.
func referenceRunGA(e *Evaluator, cfg GAConfig, arch *gaArchive) (scored, *GAStats, error) {
	c := cfg.withDefaults()
	if len(e.tasks) == 0 {
		return scored{}, nil, fmt.Errorf("atot: application has no tasks")
	}
	rng := rand.New(rand.NewSource(c.Seed))
	genomeLen := len(e.tasks)

	newGenome := func() genome {
		g := make(genome, genomeLen)
		for i := range g {
			g[i] = rng.Intn(e.NumNodes)
		}
		return g
	}

	stats := &GAStats{Generations: c.Generations}
	// scoreAll prices a batch of genomes in index order; the archive is fed
	// afterwards.
	scoreAll := func(batch []scored) {
		stats.Evaluations += len(batch)
		for i := range batch {
			if c.Fitness != nil {
				batch[i].cost = Cost{Total: c.Fitness(batch[i].g)}
			} else {
				batch[i].cost = e.evalGenome(batch[i].g, c.Weights)
			}
		}
		if arch != nil {
			for _, s := range batch {
				referenceOffer(arch, s)
			}
		}
	}

	pop := make([]scored, c.Population)
	// Seed the population with the two deterministic baselines plus random
	// genomes, so the GA never does worse than the heuristics.
	if g, err := e.genomeFromMapping(model.RoundRobin(e.App, e.NumNodes)); err == nil {
		pop[0] = scored{g: g}
	} else {
		pop[0] = scored{g: newGenome()}
	}
	if m, err := model.SpreadParallel(e.App, e.NumNodes); err == nil {
		if g, err := e.genomeFromMapping(m); err == nil {
			pop[1] = scored{g: g}
		}
	}
	if pop[1].g == nil {
		pop[1] = scored{g: newGenome()}
	}
	for i := 2; i < c.Population; i++ {
		pop[i] = scored{g: newGenome()}
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

	for gen := 0; gen < c.Generations; gen++ {
		next := make([]scored, 0, c.Population)
		// Elitism: carry the best genomes unchanged.
		elitePool := append([]scored(nil), pop...)
		for i := 0; i < c.Elite && i < len(elitePool); i++ {
			bi := i
			for j := i + 1; j < len(elitePool); j++ {
				if elitePool[j].cost.Total < elitePool[bi].cost.Total {
					bi = j
				}
			}
			elitePool[i], elitePool[bi] = elitePool[bi], elitePool[i]
			next = append(next, elitePool[i])
		}
		// Breed all offspring first (rng-consuming, sequential), then score
		// the batch on the pool. Tournament selection reads only the previous
		// generation's costs, so deferring the children's scores changes
		// nothing.
		elites := len(next)
		for len(next) < c.Population {
			a := tournament()
			b := tournament()
			child := make(genome, genomeLen)
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
			next = append(next, scored{g: child})
		}
		scoreAll(next[elites:])
		pop = next
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

// oneTaskEvaluator prices a genome of length 1 through Fitness alone: no
// valid application has a single task, so the tables evalGenome reads are
// never built.
func oneTaskEvaluator(nodes int) *Evaluator {
	app := model.NewApp("one")
	f := app.AddFunction(&model.Function{Name: "only", Kind: "identity", Threads: 1})
	return &Evaluator{App: app, NumNodes: nodes, tasks: []task{{fn: f}}}
}

// tiedFitness prices a genome on a handful of levels, so most comparisons
// the search makes are ties and every tie-break shows.
func tiedFitness(assign []int) float64 {
	s := 0
	for i, n := range assign {
		s += n * (i%3 + 1)
	}
	return float64(s % 5)
}

// TestGAMatchesReference: the two reused generations, the index-array
// elite pick, the strided scoring and the early archive rejection reproduce
// the allocating loop exactly — same winner, same BestByGen, Evaluations and
// Best, same MapGAK archive — over seeded configurations at every scoring
// width, with the cost model and with a tie-heavy Fitness.
func TestGAMatchesReference(t *testing.T) {
	type shape struct {
		name string
		e    *Evaluator
	}
	stap, err := apps.STAP(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	stapEv, err := NewEvaluator(stap, platforms.CSPI(), 8)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []shape{
		{"fft2d64x4/4", evaluatorFor(t, 64, 4, 4)},
		{"fft2d64x4/2", evaluatorFor(t, 64, 4, 2)}, // SpreadParallel fails: a random second seed
		{"stap64x3/8", stapEv},
		{"one-task/3", oneTaskEvaluator(3)},
	}
	rng := rand.New(rand.NewSource(40))
	pick := func(xs ...int) int { return xs[rng.Intn(len(xs))] }
	var cfgs []GAConfig
	for i := 0; i < 12; i++ {
		pop := pick(2, 3, 7, 16)
		cfgs = append(cfgs, GAConfig{
			Population:  pop,
			Generations: pick(1, 5, 20),
			Crossover:   []float64{0.3, 0.85, 1}[rng.Intn(3)],
			Mutation:    []float64{0.01, 0.04, 0.3}[rng.Intn(3)],
			Elite:       pick(1, 2, 5, pop, pop+3),
			Tournament:  pick(1, 3, 5),
			Seed:        int64(1 + rng.Intn(1000)),
		})
	}
	for _, sh := range shapes {
		for ci, base := range cfgs {
			for _, fitness := range []func([]int) float64{nil, tiedFitness} {
				if fitness == nil && sh.e.taskNode == nil {
					continue // the cost model needs a valid application
				}
				for _, par := range []int{1, 2, 4, 0} { // 0: GOMAXPROCS
					cfg := base
					cfg.Fitness, cfg.Parallelism = fitness, par
					name := fmt.Sprintf("%s/cfg%d/fitness=%v/par=%d", sh.name, ci, fitness != nil, par)
					refArch := &gaArchive{k: 5, seen: map[string]struct{}{}}
					refWin, refStats, err := referenceRunGA(sh.e, cfg, refArch)
					if err != nil {
						t.Fatal(err)
					}
					arch := &gaArchive{k: 5, seen: map[string]struct{}{}}
					win, stats, err := runGA(sh.e, cfg, arch)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(win.g, refWin.g) || win.cost != refWin.cost {
						t.Fatalf("%s: winner %v %+v, reference %v %+v", name, win.g, win.cost, refWin.g, refWin.cost)
					}
					if !reflect.DeepEqual(stats, refStats) {
						t.Fatalf("%s: stats %+v, reference %+v", name, stats, refStats)
					}
					if !reflect.DeepEqual(arch.top, refArch.top) {
						t.Fatalf("%s: archive %v, reference %v", name, arch.top, refArch.top)
					}
					m, mstats, err := MapGA(sh.e, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(m.Assign) != fmt.Sprint(sh.e.mappingFromGenome(refWin.g).Assign) || !reflect.DeepEqual(mstats, refStats) {
						t.Fatalf("%s: MapGA differs from the reference", name)
					}
				}
			}
		}
	}
}

// TestGAPopulationOne: a population of one is the round-robin seed, carried
// as the elite through every generation (it used to index a second seed
// that did not exist).
func TestGAPopulationOne(t *testing.T) {
	e := evaluatorFor(t, 64, 4, 4)
	m, stats, err := MapGA(e, GAConfig{Population: 1, Generations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := model.RoundRobin(e.App, 4); fmt.Sprint(m.Assign) != fmt.Sprint(want.Assign) {
		t.Fatalf("mapping %v, want round robin %v", m.Assign, want.Assign)
	}
	if stats.Evaluations != 1 || len(stats.BestByGen) != 3 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestGAAllocCeiling: a search allocates its working set once, so at
// Parallelism 1 an 80-generation search makes no more allocations than a
// 40-generation one plus a small constant, and the daemon's ga shape (fft2d
// 256, 4 threads, 8 CSPI nodes, population 32, 40 generations) allocates at
// most 40 KB (48 allocations, ~17 KB). Every generation allocating its
// population, a copy of it to pick elites and a genome per child cost that
// shape 1 397 allocations and 278 KB, and 80 generations twice that.
func TestGAAllocCeiling(t *testing.T) {
	e := evaluatorFor(t, 256, 4, 8)
	measure := func(gens int) (mallocs, bytes uint64) {
		cfg := GAConfig{Population: 32, Generations: gens, Seed: 5, Parallelism: 1}
		once := func() (mallocs, bytes uint64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, _, err := MapGA(e, cfg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
		}
		once() // fill the evaluator's scratch pool
		mallocs, bytes = once()
		for i := 0; i < 2; i++ {
			m, b := once()
			mallocs, bytes = min(mallocs, m), min(bytes, b)
		}
		return mallocs, bytes
	}
	m40, b40 := measure(40)
	m80, b80 := measure(80)
	t.Logf("40 generations: %d allocations, %d bytes; 80: %d, %d", m40, b40, m80, b80)
	if m80 > m40+4 {
		t.Errorf("80 generations make %d allocations, 40 make %d: want at most 4 more", m80, m40)
	}
	if b40 > 40_000 {
		t.Errorf("the serve ga shape allocates %d bytes, want <= 40 KB", b40)
	}
}

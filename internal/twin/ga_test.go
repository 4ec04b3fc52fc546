package twin

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/atot"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/sagert"
)

// desElapsed measures the true DES cost of one mapping.
func desElapsed(t *testing.T, app *model.App, plName string, nodes int, m *model.Mapping, opts sagert.Options) float64 {
	t.Helper()
	pl, err := platforms.ByName(plName)
	if err != nil {
		t.Fatal(err)
	}
	out, err := gluegen.Generate(gluegen.Input{App: app, Mapping: m, Platform: pl, NumNodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sagert.Run(out.Tables, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	return float64(res.Elapsed)
}

// The twin-scored GA with top-K DES promotion must land within a fixed bound
// of a GA that pays for a full DES run on every genome (issue satellite 3).
func TestTwinGAWithinBoundOfAllDESGA(t *testing.T) {
	const (
		plName = "CSPI"
		nodes  = 4
		n      = 32
		iters  = 2
		bound  = 1.10 // promoted winner may cost at most 10% more true time
	)
	app, err := apps.FFT2D(n, nodes)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := platforms.ByName(plName)
	if err != nil {
		t.Fatal(err)
	}
	gaCfg := atot.GAConfig{Population: 12, Generations: 6, Seed: 1}
	opts := Options{Iterations: iters}
	sopts := sagert.Options{Iterations: iters}

	res, err := MapGAPromote(app, pl, nodes, 4, gaCfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	twinWinner := desElapsed(t, app, plName, nodes, res.Mapping, sopts)
	if got := float64(res.Candidates[res.Winner].DESElapsed); got != twinWinner {
		t.Fatalf("winner's recorded DES cost %v != remeasured %v", got, twinWinner)
	}

	// The all-DES GA: every genome scored by a full discrete-event run.
	aev, err := atot.NewEvaluator(app, pl, nodes)
	if err != nil {
		t.Fatal(err)
	}
	desCfg := gaCfg
	desCfg.Fitness = func(assign []int) float64 {
		m, err := aev.MappingFromAssign(assign)
		if err != nil {
			panic(err)
		}
		out, err := gluegen.Generate(gluegen.Input{App: app, Mapping: m, Platform: pl, NumNodes: nodes})
		if err != nil {
			panic(err)
		}
		r, err := sagert.Run(out.Tables, pl, sopts)
		if err != nil {
			panic(err)
		}
		return float64(r.Elapsed)
	}
	allDES, _, err := atot.MapGA(aev, desCfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle := desElapsed(t, app, plName, nodes, allDES, sopts)

	t.Logf("twin-promoted winner: %v, all-DES GA: %v (ratio %.3f)", twinWinner, oracle, twinWinner/oracle)
	if twinWinner > oracle*bound {
		t.Fatalf("twin-promoted mapping costs %v, all-DES GA found %v; exceeds %.0f%% bound",
			twinWinner, oracle, (bound-1)*100)
	}
}

// The twin-scored search must be byte-identical at any Parallelism: same
// candidates, same twin and DES scores, same winner (issue satellite 3).
func TestTwinGADeterministicAtAnyParallelism(t *testing.T) {
	app, err := apps.FFT2D(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := platforms.ByName("Mercury")
	if err != nil {
		t.Fatal(err)
	}
	var ref *PromoteResult
	for _, par := range []int{1, 3, 8} {
		cfg := atot.GAConfig{Population: 12, Generations: 5, Seed: 7, Parallelism: par}
		res, err := MapGAPromote(app, pl, 4, 3, cfg, Options{Iterations: 3})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res.Candidates, ref.Candidates) {
			t.Fatalf("parallelism %d: candidates diverge:\n%+v\nvs\n%+v", par, res.Candidates, ref.Candidates)
		}
		if res.Winner != ref.Winner || !reflect.DeepEqual(res.Mapping, ref.Mapping) {
			t.Fatalf("parallelism %d: winner diverges", par)
		}
		if !reflect.DeepEqual(res.Stats, ref.Stats) {
			t.Fatalf("parallelism %d: GA stats diverge", par)
		}
	}
	// Promotions run on the base tables re-mapped, not regenerated: every
	// candidate's DES score must be what a cold Generate of its mapping
	// measures, which is how it was measured before.
	aev, err := atot.NewEvaluator(app, pl, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range ref.Candidates {
		m, err := aev.MappingFromAssign(c.Assign)
		if err != nil {
			t.Fatal(err)
		}
		if cold := desElapsed(t, app, "Mercury", 4, m, sagert.Options{Iterations: 3}); float64(c.DESElapsed) != cold {
			t.Fatalf("candidate %d: promoted on re-mapped tables at %v, a cold generation measures %v", i, c.DESElapsed, cold)
		}
	}
}

// MapGAK's archive must contain distinct genomes, best-first, with the
// search winner at index 0.
func TestMapGAKArchive(t *testing.T) {
	app, err := apps.FFT2D(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := platforms.ByName("CSPI")
	if err != nil {
		t.Fatal(err)
	}
	aev, err := atot.NewEvaluator(app, pl, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := atot.GAConfig{Population: 16, Generations: 8, Seed: 3}
	assigns, stats, err := atot.MapGAK(aev, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(assigns) == 0 || len(assigns) > 5 {
		t.Fatalf("archive size %d", len(assigns))
	}
	seen := map[string]bool{}
	for _, a := range assigns {
		k := ""
		for _, n := range a {
			k += string(rune('a' + n))
		}
		if seen[k] {
			t.Fatal("duplicate genome in archive")
		}
		seen[k] = true
	}
	// Index 0 is the same winner MapGA returns.
	winner, _, err := atot.MapGA(aev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m0, err := aev.MappingFromAssign(assigns[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m0, winner) {
		t.Fatalf("archive head is not the MapGA winner:\n%+v\nvs\n%+v", m0, winner)
	}
	if stats == nil || stats.Evaluations == 0 {
		t.Fatal("missing stats")
	}
}

package twin

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/platforms"
)

// TestAllocCeilingNewEvaluator pins what NewEvaluator allocates on the
// benchmark's wide1024 shape (Mercury, 1 024 nodes, fft2d 256 on 64 threads
// a function, staggered), where the twin and shard2 classes build one per
// op. Most of it is the plan (plan.Build); the rest is the cost tables,
// priced from the plan's charge-only blocks in each kind's port order
// through one pair of slices and one context reused thread after thread:
// 24 allocations, 215 kB (31 under -race). While every thread built a map
// of its ports' blocks per side and a context, and Verify indexed every
// buffer's transfers, it was 679 and 326 kB.
func TestAllocCeilingNewEvaluator(t *testing.T) {
	app, err := apps.FFT2D(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	pl := platforms.Mercury()
	mapping, err := model.StaggerParallel(app, 1024)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: pl, NumNodes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	build := func() {
		if _, err := NewEvaluator(gen.Tables, pl); err != nil {
			t.Fatal(err)
		}
	}
	build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(5, build)
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / 6
	t.Logf("wide1024 NewEvaluator: %.0f allocations, %d bytes", allocs, bytes)
	if allocs > 40 || bytes > 240_000 {
		t.Fatalf("NewEvaluator allocates %.0f objects and %d bytes on the wide1024 shape, ceilings 40 and 240 kB", allocs, bytes)
	}
}

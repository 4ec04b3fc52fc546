package plan_test

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/apps"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/platforms"
)

// TestAllocCeilingBuild pins what plan.Build allocates on the benchmark's
// 1 024-node shape (Mercury, fft2d 256, staggered) at 32 and at 64 threads
// a function: 1 088 and 4 224 lanes. Every port comes from one array and
// every port's Edges list from another, sized by a counting pass, so the
// object count does not grow with the lanes (nor with the threads), and an
// Edge is 24 bytes: 18 objects and 242 kB at 64 threads. While each thread's
// ports were two objects, every port's list grew by append and an Edge was
// 40 bytes, it was 1 181 objects and 329 kB at 64 threads, 538 at 32.
func TestAllocCeilingBuild(t *testing.T) {
	if size := unsafe.Sizeof(plan.Edge{}); size != 24 {
		t.Fatalf("plan.Edge is %d bytes, want 24", size)
	}
	measure := func(threads int) (lanes int, allocs float64, bytes uint64) {
		app, err := apps.FFT2D(256, threads)
		if err != nil {
			t.Fatal(err)
		}
		m, err := model.StaggerParallel(app, 1024)
		if err != nil {
			t.Fatal(err)
		}
		tb := generate(t, app.Name, app, m, platforms.Mercury(), 1024).tables
		build := func() {
			p, err := plan.Build(tb)
			if err != nil {
				t.Fatal(err)
			}
			lanes = len(p.Edges)
		}
		build()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(5, build)
		runtime.ReadMemStats(&after)
		return lanes, allocs, (after.TotalAlloc - before.TotalAlloc) / 6
	}
	fewLanes, few, fewBytes := measure(32)
	lanes, many, bytes := measure(64)
	t.Logf("plan.Build: %d lanes %.0f allocations %d bytes; %d lanes %.0f allocations %d bytes", fewLanes, few, fewBytes, lanes, many, bytes)
	if lanes < 3*fewLanes || many != few {
		t.Fatalf("plan.Build allocates %.0f objects for %d lanes and %.0f for %d; want the same count", few, fewLanes, many, lanes)
	}
}

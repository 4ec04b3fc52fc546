package atot

import (
	"runtime"
	"sync"
)

// poolWidth is how many workers score a batch of n genomes: parallelism,
// where <= 0 selects runtime.GOMAXPROCS(0), capped at n and at least 1.
func poolWidth(n, parallelism int) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return max(min(parallelism, n), 1)
}

// runPool runs job(w, i) for every i in [0, n) on up to width workers. The
// GA's jobs are tiny (one genome, about a microsecond) and uniform, so the
// shares are fixed up front instead of handed out one index at a time over
// a channel as internal/pool does for experiment cells, whose hand-off
// would cost more than the job: worker w runs jobs w, w+width, w+2*width,
// ... and the calling goroutine is worker 0. Width 1 runs the jobs inline
// (the sequential reference).
//
// Each job writes only its own output slot and worker w's own state, so
// pooled execution produces byte-identical results to sequential
// execution: width changes wall-clock time, never a computed number.
func runPool(n, width int, job func(w, i int)) {
	width = min(width, n)
	if width <= 1 {
		for i := 0; i < n; i++ {
			job(0, i)
		}
		return
	}
	share := func(w int) {
		for i := w; i < n; i += width {
			job(w, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			share(w)
		}()
	}
	share(0)
	wg.Wait()
}

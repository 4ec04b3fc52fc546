// Package pool provides the two fan-out shapes every concurrent batch in
// the repo runs on: Run, the order-preserving worker pool of experiment
// sweeps, the serve daemon's repetition batches, the twin's GA candidate
// promotions and the streaming comparison; and Stride, the static striding
// of the GA's genome scoring, for jobs too tiny to hand out one at a time.
// It lives below those packages precisely so they can all share it without
// import cycles.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Run executes n independent jobs on a bounded worker pool and returns
// their results in input order.
//
// Every job must be self-contained — each simulation run owns a fresh
// sim.Kernel, machine and RNG seed, so host-level concurrency cannot change
// any virtual-time result. Because results are written to slot i regardless
// of completion order, pooled output is byte-identical to sequential output:
// parallelism only changes wall-clock time, never a reported number.
//
// parallelism <= 0 selects runtime.GOMAXPROCS(0) workers; 1 runs the jobs
// inline on the calling goroutine (the sequential reference the determinism
// tests compare against). When several jobs fail, the error of the lowest
// input index is returned — the same error a sequential loop would hit
// first.
//
// The first failure cancels the rest of the batch: the dispatcher stops
// handing out new indices, so a long sweep does not burn hours simulating
// cells whose results will be discarded. (A daemon putting a deadline on a
// request relies on this: one canceled run must stop the whole batch.)
// Indices already handed out run to completion, and dispatch is in input
// order, so the dispatched set is always a prefix 0..k that covers every
// index a sequential loop would have reached before its first error — the
// lowest-index-error contract is unaffected by cancellation.
func Run[T any](parallelism, n int, job func(i int) (T, error)) ([]T, error) {
	parallelism = Width(n, parallelism)
	results := make([]T, n)
	if parallelism <= 1 {
		for i := 0; i < n; i++ {
			r, err := job(i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	errs := make([]error, n)
	jobs := make(chan int)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i], errs[i] = job(i)
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n && !failed.Load(); i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Width is how many workers run a batch of n jobs: parallelism, where <= 0
// selects runtime.GOMAXPROCS(0), capped at n and at least 1.
func Width(n, parallelism int) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return max(min(parallelism, n), 1)
}

// Stride runs job(w, i) for every i in [0, n) on up to width workers. It is
// for tiny, uniform jobs (the GA scores one genome in about a microsecond),
// whose hand-off over Run's channel would cost more than the job, so the
// shares are fixed up front: worker w runs jobs w, w+width, w+2*width, ...
// and the calling goroutine is worker 0. Width 1 runs the jobs inline (the
// sequential reference). Jobs cannot fail; w lets each worker own scratch
// state.
//
// A job that writes only its own output slot and worker w's own state gives
// byte-identical results to sequential execution: width changes wall-clock
// time, never a computed number.
func Stride(n, width int, job func(w, i int)) {
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

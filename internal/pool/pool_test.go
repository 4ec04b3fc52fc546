package pool

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestOrderPreserved: results land in input order at every parallelism.
func TestOrderPreserved(t *testing.T) {
	for _, p := range []int{0, 1, 2, 8, 100} {
		got, err := Run(p, 50, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallelism %d: slot %d = %d, want %d", p, i, v, i*i)
			}
		}
	}
}

// TestLowestIndexError: with several failures, the error a sequential loop
// would hit first is the one returned.
func TestLowestIndexError(t *testing.T) {
	for _, p := range []int{1, 4} {
		_, err := Run(p, 20, func(i int) (int, error) {
			if i == 7 || i == 3 || i == 15 {
				return 0, fmt.Errorf("job %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "job 3 failed" {
			t.Fatalf("parallelism %d: err = %v, want job 3's", p, err)
		}
	}
}

// TestFirstFailureStopsDispatch: after a failure the dispatcher stops
// handing out indices, so a long batch is not fully executed.
func TestFirstFailureStopsDispatch(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	_, err := Run(2, 10_000, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n == 10_000 {
		t.Error("every job ran despite an index-0 failure")
	}
}

// TestZeroJobs: an empty batch succeeds with an empty slice.
func TestZeroJobs(t *testing.T) {
	got, err := Run(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestEveryJobRunsExactlyOnce: each index is dispatched to exactly one
// worker.
func TestEveryJobRunsExactlyOnce(t *testing.T) {
	var calls [50]atomic.Int32
	if _, err := Run(8, len(calls), func(i int) (struct{}, error) {
		calls[i].Add(1)
		return struct{}{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("job %d ran %d times", i, c)
		}
	}
}

// TestCancelKeepsLowestIndexError: cancellation must not change which error
// is reported. A slow failure at index 0 and an instant failure at index 1
// race; the batch still reports index 0's error, exactly as a sequential
// loop would.
func TestCancelKeepsLowestIndexError(t *testing.T) {
	_, err := Run(2, 100, func(i int) (int, error) {
		switch i {
		case 0:
			time.Sleep(20 * time.Millisecond)
			return 0, errors.New("job 0 failed")
		case 1:
			return 0, errors.New("job 1 failed")
		default:
			time.Sleep(time.Millisecond)
			return i, nil
		}
	})
	if err == nil || err.Error() != "job 0 failed" {
		t.Fatalf("err = %v, want the lowest-index (job 0) error", err)
	}
}

// TestWidth: <= 0 means GOMAXPROCS, capped at the job count, never below 1.
func TestWidth(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ n, parallelism, want int }{
		{10, 3, 3}, {2, 3, 2}, {0, 3, 1}, {0, 0, 1}, {1 << 20, 0, procs}, {1 << 20, -1, procs}, {5, 1, 1},
	} {
		if got := Width(c.n, c.parallelism); got != c.want {
			t.Errorf("Width(%d, %d) = %d, want %d", c.n, c.parallelism, got, c.want)
		}
	}
}

// TestStrideSharesByResidue: every job runs exactly once, job i on worker
// i mod the width in use, and at most that many workers run.
func TestStrideSharesByResidue(t *testing.T) {
	for _, width := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 7, 50} {
			ran := make([]atomic.Int32, n)
			worker := make([]int, n)
			Stride(n, width, func(w, i int) {
				ran[i].Add(1)
				worker[i] = w
			})
			for i := range ran {
				if got := ran[i].Load(); got != 1 {
					t.Fatalf("width %d, n %d: job %d ran %d times", width, n, i, got)
				}
				if want := i % min(width, n); worker[i] != want {
					t.Fatalf("width %d, n %d: job %d ran on worker %d, want %d", width, n, i, worker[i], want)
				}
			}
		}
	}
}

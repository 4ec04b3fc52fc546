package pool

import (
	"errors"
	"fmt"
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

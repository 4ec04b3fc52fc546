package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pool"
)

// The sweeps below fan out through pool.Run. These four tests pin the parts
// of its contract that the sweeps depend on, at the shapes the sweeps use.

func TestRunPoolPreservesInputOrder(t *testing.T) {
	for _, par := range []int{0, 1, 2, 7, 64} {
		got, err := pool.Run(par, 20, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallelism %d: result[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

func TestRunPoolReturnsLowestIndexError(t *testing.T) {
	boom := func(i int) (int, error) {
		if i == 3 || i == 11 {
			return 0, fmt.Errorf("job %d failed", i)
		}
		return i, nil
	}
	for _, par := range []int{1, 4} {
		_, err := pool.Run(par, 16, boom)
		if err == nil || err.Error() != "job 3 failed" {
			t.Fatalf("parallelism %d: err = %v, want job 3's error", par, err)
		}
	}
}

// TestRunPoolEarlyCancelStopsDispatch is the regression test for the
// first-error cancellation: one failing job must stop the dispatcher from
// handing out the rest of a large batch. Workers that already hold an index
// finish it, so at most a few jobs beyond the failure ever execute.
func TestRunPoolEarlyCancelStopsDispatch(t *testing.T) {
	const n, par = 1000, 4
	var executed atomic.Int32
	_, err := pool.Run(par, n, func(i int) (int, error) {
		executed.Add(1)
		if i == 0 {
			return 0, errors.New("job 0 failed")
		}
		time.Sleep(50 * time.Millisecond)
		return i, nil
	})
	if err == nil || err.Error() != "job 0 failed" {
		t.Fatalf("err = %v, want job 0's error", err)
	}
	// Without cancellation all n jobs run. With it, only the jobs dispatched
	// before the failure became visible can run: the failing job, the workers'
	// in-flight indices, and at most one send completed concurrently with the
	// failure — comfortably under 2*parallelism.
	if got := executed.Load(); got > 2*par {
		t.Fatalf("executed %d jobs after an early failure, want <= %d", got, 2*par)
	}
}

func TestRunPoolZeroJobs(t *testing.T) {
	got, err := pool.Run(4, 0, func(i int) (int, error) { return 0, errors.New("never called") })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestTable1ParallelMatchesSequential is the engine's determinism contract:
// the same grid swept with an 8-worker pool must be deep-equal — and render
// byte-identical — to the sequential sweep. Virtual time must never depend
// on host concurrency.
func TestTable1ParallelMatchesSequential(t *testing.T) {
	run := func(parallelism int) *Table1 {
		t.Helper()
		proto := Quick()
		proto.Parallelism = parallelism
		tbl, err := RunTable1(Table1Config{
			Sizes:    []int{64, 128},
			Nodes:    []int{2, 4, 8},
			Protocol: proto,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	seq := run(1)
	par := run(8)
	// Protocol (carrying the differing Parallelism) is part of the struct;
	// the measured content must match exactly.
	par.Protocol = seq.Protocol
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel sweep diverged from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
			seq.Format(), par.Format())
	}
	if seq.Format() != par.Format() {
		t.Fatal("formatted tables differ byte-wise")
	}
}

// TestCrossVendorParallelMatchesSequential covers the larger sweep shape
// (platform x app x nodes) through the same pool.
func TestCrossVendorParallelMatchesSequential(t *testing.T) {
	run := func(parallelism int) *CrossVendor {
		t.Helper()
		proto := Quick()
		proto.Parallelism = parallelism
		cv, err := RunCrossVendor(128, []int{2, 4}, proto)
		if err != nil {
			t.Fatal(err)
		}
		return cv
	}
	if seq, par := run(1), run(8); !reflect.DeepEqual(seq, par) {
		t.Fatalf("cross-vendor sweep diverged:\n%s\nvs\n%s", seq.Format(), par.Format())
	}
}

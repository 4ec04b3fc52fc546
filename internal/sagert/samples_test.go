package sagert

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/funclib"
	"repro/internal/platforms"
)

// TestTwoFailingComputesReportTheFirst: both fft_rows threads' Compute fail,
// neither downstream of the other. The run drains and reports the failure of
// the earliest-submitted task — the error the kernel reported when the first
// failure stopped it — whichever task finishes first: each thread in turn is
// made slow, at GOMAXPROCS 1 (one worker, which takes the later-submitted
// task first) and 8.
func TestTwoFailingComputesReportTheFirst(t *testing.T) {
	tb := genTables(t, apps.FFT2D, 64, 2, 4)
	im, err := funclib.Lookup("fft_rows")
	if err != nil {
		t.Fatal(err)
	}
	compute := im.Compute
	defer func() { im.Compute = compute }()
	const want = "sagert: fft_rows thread 1 iteration 0: thread 1 refuses"
	for _, procs := range []int{1, 8} {
		for slow := range 2 {
			im.Compute = func(ctx *funclib.Context, in, out map[string]*funclib.Block) error {
				if ctx.Thread == slow {
					time.Sleep(20 * time.Millisecond)
				}
				return fmt.Errorf("thread %d refuses", ctx.Thread)
			}
			prev := runtime.GOMAXPROCS(procs)
			res, err := Run(tb, platforms.CSPI(), Options{Iterations: 2})
			runtime.GOMAXPROCS(prev)
			if res != nil || err == nil || err.Error() != want {
				t.Fatalf("GOMAXPROCS=%d, thread %d slow: Run = %v, %v; want error %q", procs, slow, res, err, want)
			}
		}
	}
}

// TestCanceledSampleRunStopsItsTasks: a run that carries samples through
// every data set, canceled mid-run with slow sample tasks queued, returns
// ErrCanceled; when Run returns no task is running, none starts afterwards,
// and the workers are gone.
func TestCanceledSampleRunStopsItsTasks(t *testing.T) {
	base := runtime.NumGoroutine()
	tb := genTables(t, apps.FFT2D, 64, 2, 4)
	im, err := funclib.Lookup("fft_cols")
	if err != nil {
		t.Fatal(err)
	}
	compute := im.Compute
	defer func() { im.Compute = compute }()
	var running, calls atomic.Int64
	im.Compute = func(ctx *funclib.Context, in, out map[string]*funclib.Block) error {
		running.Add(1)
		defer running.Add(-1)
		calls.Add(1)
		time.Sleep(time.Millisecond)
		return compute(ctx, in, out)
	}
	cancel := make(chan struct{})
	close(cancel)
	for range 5 {
		res, err := Run(tb, platforms.CSPI(), Options{Iterations: 50, ComputeIterations: 50, Cancel: cancel, CancelEvery: 3000})
		if !errors.Is(err, ErrCanceled) || res != nil {
			t.Fatalf("Run = %v, %v; want ErrCanceled", res, err)
		}
		if n := running.Load(); n != 0 {
			t.Fatalf("%d sample tasks still running when Run returned", n)
		}
		n := calls.Load()
		time.Sleep(10 * time.Millisecond)
		if m := calls.Load(); m != n {
			t.Fatalf("%d sample tasks started after Run returned", m-n)
		}
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("goroutines grew from %d to %d across canceled sample-carrying runs", base, n)
	}
}

// TestTasksDownstreamOfAFailureAreSkipped: when one fft_rows thread's Compute
// fails, every fft_cols thread — each reads a tile of every fft_rows thread —
// is skipped, not run on a half-written block, and Run reports the failure.
func TestTasksDownstreamOfAFailureAreSkipped(t *testing.T) {
	tb := genTables(t, apps.FFT2D, 64, 2, 4)
	rows, err := funclib.Lookup("fft_rows")
	if err != nil {
		t.Fatal(err)
	}
	cols, err := funclib.Lookup("fft_cols")
	if err != nil {
		t.Fatal(err)
	}
	rowsCompute, colsCompute := rows.Compute, cols.Compute
	defer func() { rows.Compute, cols.Compute = rowsCompute, colsCompute }()
	rows.Compute = func(ctx *funclib.Context, in, out map[string]*funclib.Block) error {
		if ctx.Thread == 0 {
			return errors.New("refused")
		}
		return rowsCompute(ctx, in, out)
	}
	var ran atomic.Int64
	cols.Compute = func(ctx *funclib.Context, in, out map[string]*funclib.Block) error {
		ran.Add(1)
		return colsCompute(ctx, in, out)
	}
	res, err := Run(tb, platforms.CSPI(), Options{Iterations: 3, ComputeIterations: 3})
	const want = "sagert: fft_rows thread 0 iteration 0: refused"
	if res != nil || err == nil || err.Error() != want {
		t.Fatalf("Run = %v, %v; want error %q", res, err, want)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("fft_cols computed %d times downstream of a failed fft_rows", n)
	}
}

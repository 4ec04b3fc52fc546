package sagert

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/funclib"
	"repro/internal/platforms"
)

// settleGoroutines polls until the live goroutine count drops to at most
// want, returning the last observation (teardown goroutines need a few
// scheduler rounds to exit).
func settleGoroutines(want int) int {
	var n int
	for i := 0; i < 200; i++ {
		n = runtime.NumGoroutine()
		if n <= want {
			return n
		}
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestCancelClosedChannelAborts: a cancel channel that is already closed
// aborts the run at the first poll, with processes spawned and data in
// flight — the tightest possible in-flight abort. The deferred
// Kernel.Shutdown must release every parked process goroutine, run after
// run.
func TestCancelClosedChannelAborts(t *testing.T) {
	base := runtime.NumGoroutine()
	tb := genTables(t, apps.FFT2D, 32, 2, 4)
	cancel := make(chan struct{})
	close(cancel)
	for i := 0; i < 50; i++ {
		// CancelEvery 1 polls after every event: the abort lands mid-run at
		// the earliest opportunity, at a different point than the default
		// interval would pick.
		res, err := Run(tb, platforms.CSPI(), Options{Iterations: 10, Cancel: cancel, CancelEvery: 1})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		if res != nil {
			t.Fatal("canceled run returned a result")
		}
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("goroutines grew from %d to %d across canceled runs", base, n)
	}
}

// TestCancelMidRunNoLeakAndFreshKernelIdentical is the daemon's cancellation
// path end to end: abort an in-flight run mid-simulation via a wall-clock
// deadline, verify no goroutine leaks, then verify a fresh kernel running
// the same tables produces results identical to a run that was never
// disturbed.
func TestCancelMidRunNoLeakAndFreshKernelIdentical(t *testing.T) {
	base := runtime.NumGoroutine()
	tb := genTables(t, apps.FFT2D, 64, 2, 4)

	// Reference: an undisturbed run with an armed (never fired) cancel
	// channel — the exact configuration the daemon uses for every request.
	neverFired := make(chan struct{})
	opts := Options{Iterations: 20, Cancel: neverFired}
	before, err := Run(tb, platforms.CSPI(), opts)
	if err != nil {
		t.Fatal(err)
	}

	// Abort a much longer run partway through. The cancel closes after a
	// short wall delay; the watchdog observes it at its next virtual poll
	// and stops the kernel mid-simulation.
	cancel := make(chan struct{})
	go func() {
		time.Sleep(5 * time.Millisecond)
		close(cancel)
	}()
	res, err := Run(tb, platforms.CSPI(), Options{Iterations: 200000, Cancel: cancel})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("long run: err = %v, want ErrCanceled", err)
	}
	if res != nil {
		t.Fatal("canceled run returned a result")
	}

	if n := settleGoroutines(base); n > base {
		t.Fatalf("goroutines grew from %d to %d after mid-run abort", base, n)
	}

	// A fresh kernel on the same worker (this goroutine) is undisturbed by
	// the aborted run: every field, including the virtual-time measurements,
	// the output samples and the dispatch count, must match exactly.
	after, err := Run(tb, platforms.CSPI(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("fresh kernel after abort diverged:\nbefore: %+v\nafter:  %+v", before, after)
	}
}

// TestCancelArmedDoesNotPerturbMeasurements: arming cancellation must not
// change any simulated result — the poll lives between events, outside
// virtual time, so even Dispatches is identical to an unarmed run.
func TestCancelArmedDoesNotPerturbMeasurements(t *testing.T) {
	tb := genTables(t, apps.CornerTurn, 32, 2, 4)
	plain, err := Run(tb, platforms.CSPI(), Options{Iterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	armed, err := Run(tb, platforms.CSPI(), Options{Iterations: 8, Cancel: make(chan struct{}), CancelEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, armed) {
		t.Fatal("armed-but-unfired cancellation changed simulated measurements")
	}
}

// TestKernelPanicBecomesRunError: a library function that panics inside a
// thread process must come back as Run's error, naming the thread, on the
// caller's goroutine, with the deferred
// Kernel.Shutdown releasing every other thread; the next Run is undisturbed.
func TestKernelPanicBecomesRunError(t *testing.T) {
	tb := genTables(t, apps.FFT2D, 64, 2, 4)
	good, err := Run(tb, platforms.CSPI(), Options{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	im, err := funclib.Lookup("fft_cols")
	if err != nil {
		t.Fatal(err)
	}
	compute := im.Compute
	im.Compute = func(ctx *funclib.Context, in, out []*funclib.Block) error {
		if ctx.Thread == 0 { // one thread only
			panic("kernel bug")
		}
		return compute(ctx, in, out)
	}
	defer func() { im.Compute = compute }()
	base := runtime.NumGoroutine()
	res, err := Run(tb, platforms.CSPI(), Options{Iterations: 2})
	const want = `sagert: execution failed: sim: process "fft2d_64.fft_cols[0]" (pid 3) panicked: kernel bug`
	if res != nil || err == nil || err.Error() != want {
		t.Fatalf("Run = %v, %v; want error %q", res, err, want)
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("goroutines grew from %d to %d after a panicking run", base, n)
	}
	im.Compute = compute
	again, err := Run(tb, platforms.CSPI(), Options{Iterations: 2})
	if err != nil || !reflect.DeepEqual(good, again) {
		t.Fatalf("run after a panicking run: err = %v, identical = %v", err, reflect.DeepEqual(good, again))
	}
}

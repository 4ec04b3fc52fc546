package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/atot"
	"repro/internal/conformance"
	"repro/internal/funclib"
	"repro/internal/handcoded"
	"repro/internal/isspl"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/twin"
)

// Floors are standalone calls into layers that sit under sagert, rtl or serve
// and so cannot be spanned from outside them. Each runs the layer alone on a
// shape a workload uses; a workload's op cannot be faster than its floors.

// timeMS returns the median wall time of reps calls of f, in ms.
func timeMS(reps int, f func() error) (float64, error) {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(xs), nil
}

// runFloors measures every floor. fft512AllocMB and fft512VirtualNS come from
// the design8 traced run: the bytes one fft512 sagert.Run allocates, and its
// simulated elapsed time.
func runFloors(seed int64, fft512AllocMB float64, fft512VirtualNS int64, put func(string, float64)) error {
	const events = 2_000_000
	var allocs float64
	ms, err := timeMS(3, func() error {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		k := sim.NewKernel()
		n := 0
		var tick func()
		tick = func() {
			if n++; n < events {
				k.After(time.Microsecond, tick)
			}
		}
		k.After(time.Microsecond, tick)
		err := k.Run()
		runtime.ReadMemStats(&m1)
		allocs = float64(m1.Mallocs-m0.Mallocs) / events
		return err
	})
	if err != nil {
		return fmt.Errorf("sim floor: %w", err)
	}
	put("sim.schedule_ns_per_event", ms*1e6/events)
	put("sim.schedule_allocs_per_event", allocs)

	// The payload of one fft512 op done once, on one core, with no runtime
	// around it: five data sets of row FFTs, transpose, row FFTs.
	const n, iters = 512, 5
	mat := isspl.TestMatrix(n, seed)
	if ms, err = timeMS(5, func() error {
		for it := 0; it < iters; it++ {
			if err := isspl.FFTRows(mat.Data, n, n); err != nil {
				return err
			}
			isspl.TransposeSquare(mat.Data, n)
			if err := isspl.FFTRows(mat.Data, n, n); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("isspl floor: %w", err)
	}
	put("isspl.fft2d_floor_ms.512", ms)
	dst := make([]complex128, n*n)
	ms, _ = timeMS(5, func() error {
		for it := 0; it < iters; it++ {
			isspl.Transpose(dst, mat.Data, n, n)
		}
		return nil
	})
	put("isspl.transpose_floor_ms.512", ms)

	// Allocating and zeroing, in one-thread stripes (64 rows of 512), as
	// many bytes as one fft512 sagert.Run allocates.
	stripe := model.Region{Rows: n / 8, Cols: n}
	blocks := int(fft512AllocMB * 1e6 / float64(stripe.Elems()*16))
	var keep *funclib.Block
	ms, _ = timeMS(5, func() error {
		for i := 0; i < blocks; i++ {
			keep = funclib.NewBlock(stripe)
		}
		return nil
	})
	runtime.KeepAlive(keep)
	put("funclib.block_alloc_floor_ms.512", ms)

	// The hand-coded programs: everything under sagert (sim, machine, mpi,
	// isspl) without sagert.
	pl := platforms.CSPI()
	hc := handcoded.Config{Platform: pl, Nodes: 8, N: n, Iterations: iters, Seed: seed}
	if ms, err = timeMS(5, func() error { _, err := handcoded.FFT2D(hc); return err }); err != nil {
		return fmt.Errorf("handcoded floor: %w", err)
	}
	put("handcoded.run_ms.fft512", ms)
	if ms, err = timeMS(5, func() error { _, err := handcoded.CornerTurn(hc); return err }); err != nil {
		return fmt.Errorf("handcoded floor: %w", err)
	}
	put("handcoded.run_ms.ct512", ms)

	// The plain single-threaded reference of the fft512 problem.
	fft512 := desShape{app: "fft2d", n: n, threads: 8, nodes: 8, pl: pl, iters: iters, seed: seed}
	app, err := fft512.buildApp()
	if err != nil {
		return err
	}
	if ms, err = timeMS(3, func() error { _, err := conformance.Oracle(app, 0); return err }); err != nil {
		return fmt.Errorf("oracle floor: %w", err)
	}
	put("conformance.oracle_ms.fft512", ms)

	// The twin's error on fft512 against the DES time the traced run saw.
	gen, err := fft512.generate(nil)
	if err != nil {
		return err
	}
	ev, err := twin.NewEvaluator(gen.Tables, pl)
	if err != nil {
		return err
	}
	pred := float64(ev.Predict(twin.Options{Iterations: iters}).Elapsed)
	put("twin.err_pct.fft512", abs(pctOver(pred, float64(fft512VirtualNS))))

	// The GA mapper on the serve_mix ga request's shape and budget.
	gaShape := desShape{app: "fft2d", n: 256, threads: 4, nodes: 8, pl: pl, seed: 1}
	gaApp, err := gaShape.buildApp()
	if err != nil {
		return err
	}
	var evals int
	if ms, err = timeMS(3, func() error {
		e, err := atot.NewEvaluator(gaApp, pl, gaShape.nodes)
		if err != nil {
			return err
		}
		_, st, err := atot.MapGA(e, atot.GAConfig{Population: 32, Generations: 40, Seed: seed})
		if err == nil {
			evals = st.Evaluations
		}
		return err
	}); err != nil {
		return fmt.Errorf("atot floor: %w", err)
	}
	put("atot.ga_ms", ms)
	put("atot.evals_per_s", float64(evals)/(ms/1e3))

	// The streaming runtime on the serve_mix stream request's scenario.
	sc := &stream.Scenario{App: "fft2d", N: 128, Threads: 4, Nodes: 8, Seed: streamSeed, Classes: []stream.Class{
		{Name: "interactive", Process: "poisson", Rate: 400, Frames: 30, SLOMs: 50},
		{Name: "batch", Process: "gamma", Rate: 100, Shape: 4, Frames: 10, Weight: 2},
	}}
	cfg, err := sc.Build()
	if err != nil {
		return fmt.Errorf("stream floor: %w", err)
	}
	var dispatches uint64
	if ms, err = timeMS(5, func() error {
		res, err := stream.Run(cfg)
		if err == nil {
			dispatches = res.Dispatches
		}
		return err
	}); err != nil {
		return fmt.Errorf("stream floor: %w", err)
	}
	put("stream.run_ms", ms)
	put("stream.host_us_per_frame", ms*1e3/streamFrames)
	put("stream.dispatches", float64(dispatches))
	return nil
}

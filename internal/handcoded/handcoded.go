// Package handcoded contains the baseline implementations the paper compares
// SAGE against: a Parallel 2D FFT and a Distributed Corner Turn written
// directly against the MPI substrate, the way a vendor engineer would code
// them (§3.1). They share the machine and the ISSPL kernels with the SAGE
// runtime but skip everything the SAGE runtime adds: no function-table
// dispatch, no per-function logical buffers, in-place computation, and the
// platform's vendor-tuned all-to-all for the corner turn.
//
// Each benchmark runs a sequence of iterations. Only iteration 0 moves and
// transforms real samples (so results can be verified bit-for-bit against
// references); later iterations charge identical virtual-time costs without
// recomputing, which is exact because the simulator's timing never depends
// on data content. This mirrors the paper's 10x100-execution averaging
// protocol at simulation speed.
package handcoded

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/funclib"
	"repro/internal/isspl"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config parameterises a baseline run.
type Config struct {
	Platform   machine.Platform
	Nodes      int
	N          int   // matrix edge (power of two)
	Iterations int   // total iterations (>= 1); iteration 0 computes real data
	Seed       int64 // source data seed
	// Trace, when non-nil, collects structured spans for the run: per-rank
	// benchmark stages, MPI collective spans, and the sim kernel's
	// process/wait events. One collector serves one run.
	Trace *trace.Collector
	// Faults, when non-nil and non-empty, installs a deterministic fault
	// injector on the simulated machine. The baseline's resilience is the
	// minimal, fair equivalent of the SAGE runtime's: the shared MPI
	// retry-with-backoff protocol on every send (what a vendor's reliable
	// link layer provides), nothing runtime-level on top.
	Faults *fault.Plan
}

func (c *Config) validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("handcoded: %d nodes", c.Nodes)
	}
	if !isspl.IsPow2(c.N) || c.N < 2 {
		return fmt.Errorf("handcoded: matrix edge %d must be a power of two >= 2", c.N)
	}
	if c.Iterations < 1 {
		return fmt.Errorf("handcoded: %d iterations", c.Iterations)
	}
	if c.Nodes > c.N {
		return fmt.Errorf("handcoded: %d nodes for %d rows", c.Nodes, c.N)
	}
	if !c.Faults.Empty() {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("handcoded: invalid fault plan: %w", err)
		}
		if err := c.Faults.CheckNodes(c.Nodes); err != nil {
			return fmt.Errorf("handcoded: fault plan does not fit the machine: %w", err)
		}
	}
	return nil
}

// Result reports a run: per-iteration latency (source-ready to sink-complete,
// per §3.3), the average period (time between completed data sets), and the
// final output matrix from the verified iteration.
type Result struct {
	Latencies []sim.Duration
	Period    sim.Duration
	Output    *isspl.Matrix
}

// AvgLatency returns the mean of the per-iteration latencies.
func (r *Result) AvgLatency() sim.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	var sum sim.Duration
	for _, l := range r.Latencies {
		sum += l
	}
	return sum / sim.Duration(len(r.Latencies))
}

// rowRange returns the row block of rank r among p ranks.
func rowRange(n, p, r int) (lo, hi int) { return r * n / p, (r + 1) * n / p }

// phase runs one stage of a benchmark under a trace span on the calling
// rank's track when the machine is traced; otherwise it just calls f.
func phase(r *mpi.Rank, name string, iter int, f func()) {
	tr := r.Trace()
	if !tr.Enabled() {
		f()
		return
	}
	start := r.Proc().Now()
	f()
	tr.Phase(trace.LayerHand, r.Node().ID, tr.Track(r.Proc()), name, iter, start, r.Proc().Now())
}

const (
	tagScatterRows = 100
	tagGatherRows  = 101
)

// run executes body once per iteration inside a fresh simulated world and
// collects the timing protocol shared by both benchmarks.
func run(cfg Config, body func(r *mpi.Rank, iter int, compute bool, out *isspl.Matrix)) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	defer k.Shutdown() // release parked rank goroutines on error paths
	m := machine.New(k, cfg.Platform, cfg.Nodes)
	m.SetTrace(cfg.Trace)
	m.SetFaults(cfg.Faults.NewInjector())
	w := mpi.NewWorld(m)
	res := &Result{Output: isspl.NewMatrix(cfg.N, cfg.N)}
	var firstDone, lastDone sim.Time
	w.Launch("handcoded", func(r *mpi.Rank) {
		for iter := 0; iter < cfg.Iterations; iter++ {
			start := r.Proc().Now()
			body(r, iter, iter == 0, res.Output)
			r.Barrier()
			if r.ID() == 0 {
				res.Latencies = append(res.Latencies, r.Proc().Now().Sub(start))
				if iter == 0 {
					firstDone = r.Proc().Now()
				}
				lastDone = r.Proc().Now()
			}
		}
	})
	if err := k.Run(); err != nil {
		return nil, err
	}
	m.TraceNodeTotals()
	if cfg.Iterations > 1 {
		res.Period = lastDone.Sub(firstDone) / sim.Duration(cfg.Iterations-1)
	} else {
		res.Period = res.Latencies[0]
	}
	return res, nil
}

// scatterRows distributes the source matrix's row blocks from rank 0. On the
// compute iteration rank 0 synthesises real data; otherwise only costs are
// charged. Returns this rank's local row block (real or placeholder).
func scatterRows(r *mpi.Rank, n int, seed int64, iter int, compute bool) []complex128 {
	p := r.Size()
	lo, hi := rowRange(n, p, r.ID())
	if r.ID() == 0 {
		// Generation cost: one pass over the matrix.
		r.Node().Memcpy(r.Proc(), n*n*mpi.BytesPerComplex)
		var full []complex128
		if compute {
			full = make([]complex128, n*n)
			b := &funclib.Block{Region: model.Region{Rows: n, Cols: n}, Data: full}
			funclib.FillSource(b, seed, iter)
		}
		parts := make([]mpi.Payload, p)
		for q := 0; q < p; q++ {
			qlo, qhi := rowRange(n, p, q)
			if compute {
				parts[q] = mpi.ComplexPayload(full[qlo*n : qhi*n])
			} else {
				parts[q] = mpi.Payload{Bytes: (qhi - qlo) * n * mpi.BytesPerComplex}
			}
		}
		return payloadRows(r.Scatter(0, parts), (hi-lo)*n, compute)
	}
	return payloadRows(r.Scatter(0, nil), (hi-lo)*n, compute)
}

// payloadRows extracts or fabricates a local block from a payload.
func payloadRows(p mpi.Payload, elems int, compute bool) []complex128 {
	if compute {
		// Copy: the baseline works in place on its own buffer.
		out := make([]complex128, elems)
		copy(out, p.Complex())
		return out
	}
	return make([]complex128, 0)
}

// gatherRows collects row blocks at rank 0 into out.
func gatherRows(r *mpi.Rank, local []complex128, n int, compute bool, out *isspl.Matrix) {
	p := r.Size()
	lo, hi := rowRange(n, p, r.ID())
	var body mpi.Payload
	if compute {
		body = mpi.ComplexPayload(local)
	} else {
		body = mpi.Payload{Bytes: (hi - lo) * n * mpi.BytesPerComplex}
	}
	parts := r.Gather(0, body)
	if r.ID() == 0 && compute {
		for q := 0; q < p; q++ {
			qlo := q * n / p
			copy(out.Data[qlo*n:], parts[q].Complex())
		}
	}
}

// cornerTurnExchangeAlg performs the tuned distributed corner turn: pack
// tiles, vendor all-to-all, unpack transposed. local is this rank's row
// block of X; the return value is this rank's row block of X^T.
func cornerTurnExchangeAlg(r *mpi.Rank, local []complex128, n int, compute bool, alg mpi.AlltoallAlgorithm) []complex128 {
	p := r.Size()
	myLo, myHi := rowRange(n, p, r.ID())
	myRows := myHi - myLo

	parts := make([]mpi.Payload, p)
	for q := 0; q < p; q++ {
		qLo, qHi := rowRange(n, p, q)
		w := qHi - qLo
		// Pack cost: one copy of the tile.
		r.Node().Memcpy(r.Proc(), myRows*w*mpi.BytesPerComplex)
		if compute {
			tile := make([]complex128, myRows*w)
			isspl.GatherTile(tile, local, myRows, n, 0, qLo, myRows, w)
			parts[q] = mpi.ComplexPayload(tile)
		} else {
			parts[q] = mpi.Payload{Bytes: myRows * w * mpi.BytesPerComplex}
		}
	}
	got := r.Alltoall(parts, alg)

	out := make([]complex128, 0)
	if compute {
		out = make([]complex128, myRows*n)
	}
	for q := 0; q < p; q++ {
		qLo, qHi := rowRange(n, p, q)
		h := qHi - qLo
		// Unpack cost: one copy of the tile.
		r.Node().Memcpy(r.Proc(), h*myRows*mpi.BytesPerComplex)
		if compute {
			// Tile from q: q's rows [qLo, qHi) x my cols [myLo, myHi),
			// stored row-major h x myRows; transpose into my block of X^T.
			isspl.ScatterTileTransposed(out, got[q].Complex(), n, 0, qLo, h, myRows)
		}
	}
	return out
}

// FFT2D runs the hand-coded Parallel 2D FFT: scatter rows, row FFTs, corner
// turn, row FFTs again (equivalent to column FFTs of the original), gather.
// The gathered result is the transpose of the 2D FFT; Output holds it
// re-transposed into natural orientation (outside the timed region, as the
// orientation convention is a reporting choice, not part of the benchmark).
func FFT2D(cfg Config) (*Result, error) {
	res, err := run(cfg, func(r *mpi.Rank, iter int, compute bool, out *isspl.Matrix) {
		n, p := cfg.N, r.Size()
		lo, hi := rowRange(n, p, r.ID())
		myRows := hi - lo
		var local []complex128
		phase(r, "scatter", iter, func() {
			local = scatterRows(r, n, cfg.Seed, iter, compute)
		})

		// Row FFTs, in place (no extra buffer: the hand-coded advantage).
		phase(r, "fft-rows", iter, func() {
			r.Node().ComputeFlops(r.Proc(), isspl.FFTRowsFlops(myRows, n))
			if compute {
				mustFFTRows(local, myRows, n)
			}
		})

		phase(r, "corner-turn", iter, func() {
			local = cornerTurnExchangeAlg(r, local, n, compute, mpi.AlgorithmFor(cfg.Platform.AllToAll))
		})

		phase(r, "fft-rows", iter, func() {
			r.Node().ComputeFlops(r.Proc(), isspl.FFTRowsFlops(myRows, n))
			if compute {
				mustFFTRows(local, myRows, n)
			}
		})

		phase(r, "gather", iter, func() {
			gatherRows(r, local, n, compute, out)
		})
	})
	if err != nil {
		return nil, err
	}
	// Undo the transposed orientation for reporting/verification.
	isspl.TransposeSquare(res.Output.Data, cfg.N)
	return res, nil
}

// CornerTurn runs the hand-coded Distributed Corner Turn: scatter rows,
// exchange + local transpose, gather. Output is X^T.
func CornerTurn(cfg Config) (*Result, error) {
	return run(cfg, func(r *mpi.Rank, iter int, compute bool, out *isspl.Matrix) {
		var local []complex128
		phase(r, "scatter", iter, func() {
			local = scatterRows(r, cfg.N, cfg.Seed, iter, compute)
		})
		phase(r, "exchange", iter, func() {
			local = cornerTurnExchangeAlg(r, local, cfg.N, compute, mpi.AlgorithmFor(cfg.Platform.AllToAll))
		})
		phase(r, "gather", iter, func() {
			gatherRows(r, local, cfg.N, compute, out)
		})
	})
}

func mustFFTRows(data []complex128, rows, cols int) {
	if err := isspl.FFTRows(data, rows, cols); err != nil {
		panic(err) // lengths validated by Config
	}
}

package sagert_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/platforms"
	"repro/internal/sagert"
)

// BenchmarkStripeDispatch measures a full generated-runtime run: stripe
// dispatch, credit flow control and inter-node transfers for a small FFT.
// Run with -benchmem; the allocation count here is the end-to-end figure
// the kernel fast path is meant to shrink.
func BenchmarkStripeDispatch(b *testing.B) {
	out, err := experiments.GenerateTables(experiments.AppFFT2D, platforms.CSPI(), 4, 128)
	if err != nil {
		b.Fatal(err)
	}
	pl := platforms.CSPI()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sagert.Run(out.Tables, pl, sagert.Options{Iterations: 4})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Latencies) == 0 {
			b.Fatal("no latencies")
		}
	}
}

// BenchmarkStripeDispatchSequential is the non-pipelined variant: one block
// in flight, so per-iteration runtime bookkeeping dominates.
func BenchmarkStripeDispatchSequential(b *testing.B) {
	out, err := experiments.GenerateTables(experiments.AppCornerTurn, platforms.CSPI(), 4, 128)
	if err != nil {
		b.Fatal(err)
	}
	pl := platforms.CSPI()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sagert.Run(out.Tables, pl, sagert.Options{Iterations: 4, Sequential: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw discrete-event throughput: how
// many simulated corner-turn iterations per host second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	out, err := experiments.GenerateTables(experiments.AppCornerTurn, platforms.CSPI(), 8, 256)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sagert.Run(out.Tables, platforms.CSPI(), sagert.Options{Iterations: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

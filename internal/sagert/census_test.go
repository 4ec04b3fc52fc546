package sagert_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/sagert"
	"repro/internal/sim"
	"repro/internal/twin"
)

// TestWindowStatsShard2Census pins the sharding census of the benchmark's
// wide1024 shard2 class — Mercury, 1 024 nodes, fft2d 256 on 64 threads,
// three data sets, two shards weighted by the twin's per-node forecast — as
// counts that repeat exactly on any host. The stage-banded partition leaves
// the two shards almost no concurrent work under the 8 µs lookahead: of
// 1 219 windows only one runs both shards, so no faster barrier can make the
// sharded run faster than the sequential one (ROADMAP item 1). The census
// observes the run: it is the same whether threads are coroutines or step
// machines, and it changes nothing in the result.
func TestWindowStatsShard2Census(t *testing.T) {
	app, err := apps.FFT2D(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	pl := platforms.Mercury()
	mapping, err := model.StaggerParallel(app, 1024)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: pl, NumNodes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	weights, err := twin.ShardWeights(gen.Tables, pl, twin.Options{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := sagert.Run(gen.Tables, pl, sagert.Options{Iterations: 3, ComputeIterations: sagert.NoSamples})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sagert.Run(gen.Tables, pl, sagert.Options{Iterations: 3, ComputeIterations: sagert.NoSamples, Shards: 2, ShardWeights: weights})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("shard2: %+v", res.Windows)
	want := sim.WindowStats{Windows: 1219, Concurrent: 1, Events: 119980, Mailbox: 23442}
	if res.Windows != want {
		t.Fatalf("shard2 census %+v, want %+v", res.Windows, want)
	}
	if seq.Windows != (sim.WindowStats{Events: 119980}) {
		t.Fatalf("sequential census %+v, want no windows and 119 980 events", seq.Windows)
	}
	if res.Elapsed != seq.Elapsed || res.Dispatches != seq.Dispatches {
		t.Fatalf("shard2 ran %v / %d events, sequential %v / %d", res.Elapsed, res.Dispatches, seq.Elapsed, seq.Dispatches)
	}
}

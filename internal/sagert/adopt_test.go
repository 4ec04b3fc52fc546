package sagert_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/conformance"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/platforms"
	"repro/internal/sagert"
)

// TestAdoptionOfAWiderBlock: a send hands over the producer's block and the
// lane names the region, so a port whose one lane covers its partition
// adopts a region of a wider block as a view of it. fft2d 64 with a 1-thread
// source and a 4-thread fft_rows on four CSPI nodes: each fft_rows thread
// adopts its 16-row stripe of the source's block — which lies in the sink's
// result (funclib.ResultBacked) — as a dense view over those rows, and
// transforms it there; the sink's bits equal the oracle's.
func TestAdoptionOfAWiderBlock(t *testing.T) {
	app, err := apps.FFT2D(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	pl := platforms.CSPI()
	m, err := model.SpreadParallel(app, 4)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := gluegen.Generate(gluegen.Input{App: app, Mapping: m, Platform: pl, NumNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	xp, err := plan.Build(gen.Tables)
	if err != nil {
		t.Fatal(err)
	}
	res, ins, err := sagert.RunInputs(gen.Tables, pl, sagert.Options{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	adopting := 0
	for ti := range xp.Threads {
		tp := &xp.Threads[ti]
		if tp.Fn.Name != "fft_rows" {
			continue
		}
		adopting++
		part, blk := tp.Ins[0].Region, ins[ti][0]
		if !tp.Ins[0].Adopt || blk == nil {
			t.Fatalf("fft_rows[%d]: adopts %v, block %v", tp.Index, tp.Ins[0].Adopt, blk)
		}
		if blk.Region != part || part.Rows != 16 || blk.RowStride != 64 || blk.ColStride != 1 || len(blk.Data) != part.Elems() {
			t.Fatalf("fft_rows[%d] holds %v (strides %d, %d; %d samples), want a dense view of its %v", tp.Index, blk.Region, blk.RowStride, blk.ColStride, len(blk.Data), part)
		}
		if &blk.Data[0] != &res.Output.Data[part.R0*64] {
			t.Fatalf("fft_rows[%d]'s block does not lie at row %d of the source's block", tp.Index, part.R0)
		}
	}
	if adopting != 4 {
		t.Fatalf("%d fft_rows threads, want 4", adopting)
	}
	want, err := conformance.Oracle(app, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := conformance.CompareOutputs(want, res.Outputs); d != "" {
		t.Fatal(d)
	}
}

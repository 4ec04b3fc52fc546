package plan_test

import (
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/platforms"
)

// TestUncoveredResultHostsNothing: a source whose block a forwarding identity
// sends on to a sink that receives only half of it keeps that block in a
// storage of its own, read by the identity and, through it, the sink — in
// the sink's result, the half the sink never writes would keep the source's
// samples. Declared whole, the identity's buffer to the sink covers the
// result, and the result holds the block: no port has a storage. Verify
// passes both, as it tiles each buffer's own shape.
func TestUncoveredResultHostsNothing(t *testing.T) {
	for _, rows := range []int{2, 4} {
		tb := chain(2) // src -> id -> snk, one thread each
		for fi := range tb.Functions {
			fe := &tb.Functions[fi]
			for _, ports := range [][]gluegen.PortEntry{fe.Ins, fe.Outs} {
				for pi := range ports {
					ports[pi].Rows, ports[pi].Cols = 4, 4
				}
			}
		}
		for bi, r := range []int{4, rows} {
			b := &tb.Buffers[bi]
			b.Rows, b.Cols = r, 4
			b.Transfers[0].Region, b.Transfers[0].Bytes = model.Region{Rows: r, Cols: 4}, r*4*16
		}
		p, err := plan.Build(tb)
		if err != nil {
			t.Fatal(err)
		}
		ls := p.Layouts()
		if !p.Threads[1].InPlace || ls[1].Ins[0] != nil || ls[1].Outs[0] != nil || ls[2].Ins[0] != nil {
			t.Fatalf("rows %d: the identity computes in place %v on storages %v, the sink's %v",
				rows, p.Threads[1].InPlace, ls[1], ls[2].Ins[0])
		}
		src := ls[0]
		switch {
		case rows == 4 && (src.Result != 0 || src.Outs[0] != nil):
			t.Errorf("a covered result does not hold the source's block: result %d, storage %v", src.Result, src.Outs[0])
		case rows == 2 && (src.Result != -1 || src.Outs[0] == nil):
			t.Errorf("the source's block lies in a result the sink does not cover: result %d", src.Result)
		case rows == 2 && (!slices.Equal(src.Outs[0].Readers, []int{0, 1, 2}) || !src.Outs[0].Clear):
			t.Errorf("the source's storage: readers %v, clear %v; want [0 1 2], true", src.Outs[0].Readers, src.Outs[0].Clear)
		}
	}
}

// TestLayoutsOfTheBenchmarkShapes pins the storages of the two shapes the
// benchmark executes, 512² on eight threads. fft2d: the result holds the
// source's block, fft_rows transforms its row stripes where they lie, and
// fft_cols assembles its tiles in a storage per thread, which its tiles
// cover (no clearing) and which the sink reads. The corner turn: turn lands
// its tiles transposed in the result, so the source's block is the one
// storage, read by every ingest thread that forwards a view of it and every
// turn thread.
func TestLayoutsOfTheBenchmarkShapes(t *testing.T) {
	for _, tc := range []struct {
		build          func(n, threads int) (*model.App, error)
		hosted, stored string                    // the function whose storage lies in the result, the one that has storages
		storage        func(ti int) plan.Storage // thread ti's
	}{
		{apps.FFT2D, "source", "fft_cols", func(ti int) plan.Storage { return plan.Storage{Readers: []int{ti, 17}} }},
		{apps.CornerTurn, "turn", "source", func(int) plan.Storage {
			return plan.Storage{Readers: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, Clear: true}
		}},
	} {
		app, err := tc.build(512, 8)
		if err != nil {
			t.Fatal(err)
		}
		m, err := model.SpreadParallel(app, 8)
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Build(generate(t, app.Name, app, m, platforms.CSPI(), 8).tables)
		if err != nil {
			t.Fatal(err)
		}
		storages, want := 0, 0
		for ti, l := range p.Layouts() {
			tp := &p.Threads[ti]
			if hosted := tp.Fn.Name == tc.hosted; hosted != (l.Result == 0) {
				t.Errorf("%s: %s[%d] result %d, want hosted %v", app.Name, tp.Fn.Name, tp.Index, l.Result, hosted)
			}
			if tp.Fn.Name == tc.stored {
				want++
			}
			for _, s := range slices.Concat(l.Ins, l.Outs) {
				if s == nil {
					continue
				}
				storages++
				if w := tc.storage(ti); tp.Fn.Name != tc.stored || !slices.Equal(s.Readers, w.Readers) || s.Clear != w.Clear {
					t.Errorf("%s: %s[%d] storage %+v, want %s's %+v", app.Name, tp.Fn.Name, tp.Index, *s, tc.stored, w)
				}
			}
		}
		if storages != want {
			t.Errorf("%s: %d storages, want %d", app.Name, storages, want)
		}
	}
}

package plan_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/conformance"
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
		case rows == 2 && (!slices.Equal(src.Outs[0].Readers, []int32{0, 1, 2}) || !src.Outs[0].Clear):
			t.Errorf("the source's storage: readers %v, clear %v; want [0 1 2], true", src.Outs[0].Readers, src.Outs[0].Clear)
		}
	}
}

// TestLayoutsOfTheBenchmarkShapes pins the storages of the two shapes the
// benchmark executes, 512² on eight threads. fft2d: the result holds the
// source's block, fft_rows transforms its row stripes where they lie and
// sends its tiles from there, so fft_cols finds them at their places in its
// column stripe of the result and transforms them there, through the
// result's pitch: no port has a storage. The corner turn: turn lands its
// tiles transposed in the result, so the source's block is the one storage,
// read by every ingest thread that forwards a view of it and every turn
// thread.
func TestLayoutsOfTheBenchmarkShapes(t *testing.T) {
	for _, tc := range []struct {
		build   func(n, threads int) (*model.App, error)
		hosted  []string                  // the functions whose storage lies in the result
		stored  string                    // the one that has storages
		storage func(ti int) plan.Storage // thread ti's
	}{
		{apps.FFT2D, []string{"source", "fft_cols"}, "", nil},
		{apps.CornerTurn, []string{"turn"}, "source", func(int) plan.Storage {
			return plan.Storage{Readers: []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, Clear: true}
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
			if hosted := slices.Contains(tc.hosted, tp.Fn.Name); hosted != (l.Result == 0) {
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
				if tp.Fn.Name != tc.stored {
					t.Errorf("%s: %s[%d] has storage %+v, want none", app.Name, tp.Fn.Name, tp.Index, *s)
				} else if w := tc.storage(ti); !slices.Equal(s.Readers, w.Readers) || s.Clear != w.Clear {
					t.Errorf("%s: %s[%d] storage %+v, want %+v", app.Name, tp.Fn.Name, tp.Index, *s, w)
				}
			}
		}
		if storages != want {
			t.Errorf("%s: %d storages, want %d", app.Name, storages, want)
		}
	}
}

// TestSecondStoragesByDefinition holds the second storages Layouts decides
// (funclib.ResultBacked) to what makes them safe, over the corpus, 64
// generated graphs, the benchmark's fft2d and a replicated consumer. A
// second storage is that of an in-place thread u whose every payload comes
// from a block lying in u's result — a result-backed thread's, or one a
// thread forwards from such a block. A partition narrower than the result
// is a pitched view, so u's kind must compute through strides (Strided). And
// no other thread reads what u overwrites: no lane out of a block lying in
// the result, to a thread that does not forward it, nor any lane to the
// sink but u's own, carries a region that overlaps u's partition. A
// replicated consumer — fft_cols on two threads that each read every column
// stripe out of fft_rows's blocks — keeps its storages out of the result; the
// other cases must show second storages, pitched ones among them.
func TestSecondStoragesByDefinition(t *testing.T) {
	var ins []input
	files, err := filepath.Glob("../conformance/testdata/corpus/*.case")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus cases (%v)", err)
	}
	for _, f := range files {
		c, err := conformance.ReadCaseFile(f)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, fromCase(t, filepath.Base(f), c))
	}
	for seed := int64(0); seed < 64; seed++ {
		c, err := conformance.Generate(seed, conformance.GenConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, fromCase(t, fmt.Sprintf("seed%d", seed), c))
	}
	app, err := apps.FFT2D(512, 8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.SpreadParallel(app, 8)
	if err != nil {
		t.Fatal(err)
	}
	ins = append(ins, generate(t, "fft512", app, m, platforms.CSPI(), 8))
	replicated := buildText(t, `app peek
type m 16 16 complex
function src source_matrix threads 1
  out out m rows
function r fft_rows threads 4
  in in m rows
  out out m rows
function c fft_cols threads 2
  in in m replicated
  out out m replicated
function snk sink_matrix threads 1
  in in m rows
arc src.out -> r.in
arc r.out -> c.in
arc c.out -> snk.in
`)
	seconds, pitched := 0, 0
	check := func(name string, p *plan.Plan) {
		ls := p.Layouts()
		forwards := func(w int32) bool {
			tp := &p.Threads[w]
			return tp.InPlace && tp.Ins[0].Adopt && p.Edges[tp.Ins[0].Edges[0]].SrcContig
		}
		// lies is the sink whose result holds thread w's block, or -1.
		lies := func(w int32) int {
			for range p.Threads {
				if !forwards(w) {
					return ls[w].Result
				}
				w = p.Edges[p.Threads[w].Ins[0].Edges[0]].Src
			}
			return -1
		}
		for u := range p.Threads {
			tp, r := &p.Threads[u], ls[u].Result
			if r < 0 || !tp.InPlace || forwards(int32(u)) || slices.ContainsFunc(tp.Ins[0].Edges, func(ei int32) bool { return lies(p.Edges[ei].Src) != r }) {
				continue // not a second storage
			}
			seconds++
			part, sink := tp.Outs[0].Region, &p.Sinks[r]
			if part.Cols != sink.Cols {
				pitched++
				if !tp.Impl.Strided {
					t.Errorf("%s: %s[%d]: partition %v is a pitched view of a %dx%d result, but kind %s is not Strided",
						name, tp.Fn.Name, tp.Index, part, sink.Rows, sink.Cols, tp.Fn.Kind)
				}
			}
			for ei := range p.Edges {
				e := &p.Edges[ei]
				if int(e.Src) == u || int(e.Dst) == u || e.X.Region.Intersect(part).Empty() {
					continue
				}
				dst := &p.Threads[e.Dst]
				if lies(e.Src) == r && !forwards(e.Dst) {
					t.Errorf("%s: %s[%d] overwrites %v of the result, which %s[%d] reads as %v",
						name, tp.Fn.Name, tp.Index, part, dst.Fn.Name, dst.Index, e.X.Region)
				}
				if dst.Fn == sink.Fn {
					src := &p.Threads[e.Src]
					t.Errorf("%s: %s[%d] overwrites %v of the result, where %s[%d] sends the sink %v",
						name, tp.Fn.Name, tp.Index, part, src.Fn.Name, src.Index, e.X.Region)
				}
			}
		}
	}
	for _, in := range ins {
		p, err := plan.Build(in.tables)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		check(in.name, p)
	}
	if seconds == 0 || pitched == 0 {
		t.Fatalf("%d second storages, %d pitched: the cases exercise too little", seconds, pitched)
	}
	t.Logf("%d cases: %d second storages, %d of them pitched", len(ins), seconds, pitched)
	check("replicated consumer", replicated)
	for ti, l := range replicated.Layouts() {
		if tp := &replicated.Threads[ti]; tp.Fn.Name != "src" && l.Result >= 0 {
			t.Errorf("replicated consumer: %s[%d]'s storage lies in the result", tp.Fn.Name, tp.Index)
		}
	}
}

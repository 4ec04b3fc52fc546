package plan_test

import (
	"strings"
	"testing"

	"repro/internal/conformance"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/platforms"
)

// buildText lowers a model given as text, spread over four CSPI nodes.
func buildText(t *testing.T, text string) *plan.Plan {
	t.Helper()
	app, err := model.ReadText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.SpreadParallel(app, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(generate(t, app.Name, app, m, platforms.CSPI(), 4).tables)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestInPlaceOwnershipCases pins, shape by shape, which threads compute into
// their input block: an InPlace kind whose port assembled its block, took a
// dense copy of a pitched payload, or adopted a view nobody else is sent —
// and not one whose adopted view a second arc or a replicated sibling reads,
// nor any kind that is not InPlace.
func TestInPlaceOwnershipCases(t *testing.T) {
	const head = "type m 16 16 complex\nfunction src source_matrix threads 1\n  out out m rows\n"
	const sink = "function snk sink_matrix threads 1\n  in in m rows\n"
	op := func(name, kind, stripe string, threads string) string {
		return "function " + name + " " + kind + " threads " + threads + "\n  in in m " + stripe + "\n  out out m " + stripe + "\n"
	}
	corpus, err := conformance.ReadCaseFile("../conformance/testdata/corpus/fanout-inplace.case")
	if err != nil {
		t.Fatal(err)
	}
	fan, err := plan.Build(fromCase(t, "fanout-inplace", corpus).tables)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    *plan.Plan
		want map[string]bool // function -> every thread computes in place
	}{
		{"exclusive adopt: row stripes of one block, one consumer each",
			buildText(t, "app a\n"+head+op("f", "fft_rows", "rows", "2")+sink+"arc src.out -> f.in\narc f.out -> snk.in\n"),
			map[string]bool{"f": true}},
		{"a chain hands the same storage on: every stage owns what it adopted",
			buildText(t, "app b\n"+head+op("f", "scale", "rows", "2")+op("g", "mag2", "rows", "2")+sink+
				"arc src.out -> f.in\narc f.out -> g.in\narc g.out -> snk.in\n"),
			map[string]bool{"f": true, "g": true}},
		{"pitched-copied: a whole column stripe of a wider block arrives pitched and is copied dense",
			buildText(t, "app c\n"+head+op("f", "fft_cols", "cols", "2")+sink+"arc src.out -> f.in\narc f.out -> snk.in\n"),
			map[string]bool{"f": true}},
		{"assembled: several transfers fill a block of the port's own",
			buildText(t, "app d\n"+head+op("r", "identity", "rows", "4")+op("f", "fft_cols", "cols", "2")+sink+
				"arc src.out -> r.in\narc r.out -> f.in\narc f.out -> snk.in\n"),
			map[string]bool{"r": true, "f": true}},
		{"replicated consumer: both threads adopt the whole block",
			buildText(t, "app e\n"+head+op("f", "scale", "replicated", "2")+sink+"arc src.out -> f.in\narc f.out -> snk.in\n"),
			map[string]bool{"f": false}},
		{"two arcs from one port: the second consumer reads the same rows",
			buildText(t, "app f\n"+head+op("f", "fft_rows", "rows", "2")+op("g", "scale", "rows", "2")+sink+
				"function snk2 sink_matrix threads 1\n  in in m rows\n"+
				"arc src.out -> f.in\narc src.out -> g.in\narc f.out -> snk.in\narc g.out -> snk2.in\n"),
			map[string]bool{"f": false, "g": false}},
		{"two arcs from one port, one consumer assembling: the adopter still shares",
			buildText(t, "app g\n"+head+op("f", "identity", "rows", "1")+op("g", "fft_cols", "cols", "4")+sink+
				"function snk2 sink_matrix threads 1\n  in in m rows\n"+
				"arc src.out -> f.in\narc src.out -> g.in\narc f.out -> snk.in\narc g.out -> snk2.in\n"),
			map[string]bool{"f": false, "g": true}},
		{"not an InPlace kind, though it adopts exclusively",
			buildText(t, "app h\n"+head+op("f", "fir_rows", "rows", "2")+sink+"arc src.out -> f.in\narc f.out -> snk.in\n"),
			map[string]bool{"f": false}},
		{"the corpus fan-out: shared adopters fresh, their exclusive and assembling successors in place",
			fan, map[string]bool{"rows": false, "half": false, "win": true, "cols": true}},
	} {
		for ti := range tc.p.Threads {
			tp := &tc.p.Threads[ti]
			want, listed := tc.want[tp.Fn.Name]
			if !listed {
				want = false // sources and sinks
			}
			if tp.InPlace != want {
				t.Errorf("%s: %s[%d] InPlace %v, want %v", tc.name, tp.Fn.Name, tp.Index, tp.InPlace, want)
			}
		}
	}
}

// ownsByDefinition is Thread.InPlace from the tables alone, pairwise: the
// thread's kind is InPlace on one input and one output of one region, and the
// input port either assembles, or is handed a region that is not contiguous
// in its producer's partition, or is handed one that no other transfer out of
// the same producer thread's port — in any buffer — intersects.
func ownsByDefinition(t *testing.T, tb *gluegen.Tables, tp *plan.Thread) bool {
	if !tp.Impl.InPlace || len(tp.Ins) != 1 || len(tp.Outs) != 1 || tp.Ins[0].Region != tp.Outs[0].Region {
		return false
	}
	type sent struct {
		buf, src int // buffer and producer thread
		reg      model.Region
	}
	var mine []sent // transfers into this thread's port
	for bi := range tb.Buffers {
		b := &tb.Buffers[bi]
		if b.DstFn == tp.Fn.ID && b.DstPort == tp.Ins[0].Entry.Name {
			for _, x := range b.Transfers {
				if x.DstThread == tp.Index {
					mine = append(mine, sent{bi, x.SrcThread, x.Region})
				}
			}
		}
	}
	if len(mine) != 1 || mine[0].reg != tp.Ins[0].Region {
		return true // assembles
	}
	src := &tb.Buffers[mine[0].buf]
	srcThread := mine[0].src
	srcPart := partition(t, findPort(tb.Functions[src.SrcFn].Outs, src.SrcPort), tb.Functions[src.SrcFn].Threads, srcThread)
	if mine[0].reg.C0 != srcPart.C0 || mine[0].reg.Cols != srcPart.Cols {
		return true // pitched: copied dense
	}
	for bi := range tb.Buffers {
		b := &tb.Buffers[bi]
		if b.SrcFn != src.SrcFn || b.SrcPort != src.SrcPort {
			continue
		}
		for _, x := range b.Transfers {
			if x.SrcThread != srcThread || (bi == mine[0].buf && x.DstThread == tp.Index) {
				continue
			}
			if !x.Region.Intersect(mine[0].reg).Empty() {
				return false
			}
		}
	}
	return true
}

// TestInPlaceMatchesDefinition holds plan.Build's one-scan ownership decision
// to the pairwise definition over every corpus case, the seeded conformance
// graphs and the benchmark shapes — and, with it, that a kind without InPlace
// is never handed its input as its output.
func TestInPlaceMatchesDefinition(t *testing.T) {
	inPlace := 0
	for _, in := range inputs(t) {
		p, err := plan.Build(in.tables)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		for ti := range p.Threads {
			tp := &p.Threads[ti]
			if want := ownsByDefinition(t, in.tables, tp); tp.InPlace != want {
				t.Errorf("%s: %s[%d] InPlace %v, the definition says %v", in.name, tp.Fn.Name, tp.Index, tp.InPlace, want)
			}
			if tp.InPlace {
				inPlace++
				if !tp.Impl.InPlace {
					t.Errorf("%s: %s[%d] (kind %s, not InPlace) would be handed its input as its output", in.name, tp.Fn.Name, tp.Index, tp.Fn.Kind)
				}
			}
		}
	}
	if inPlace == 0 {
		t.Fatal("no thread of any input computes in place")
	}
}

package plan_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/codegen"
	"repro/internal/conformance"
	"repro/internal/funclib"
	"repro/internal/gluegen"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/plan"
	"repro/internal/platforms"
	"repro/internal/twin"
)

type input struct {
	name   string
	tables *gluegen.Tables
	pl     machine.Platform
}

func generate(t *testing.T, name string, app *model.App, m *model.Mapping, pl machine.Platform, nodes int) input {
	t.Helper()
	out, err := gluegen.Generate(gluegen.Input{App: app, Mapping: m, Platform: pl, NumNodes: nodes})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return input{name, out.Tables, pl}
}

func fromCase(t *testing.T, name string, c *conformance.Case) input {
	t.Helper()
	pl, err := platforms.ByName(c.Platform)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return generate(t, name, c.App, c.Mapping, pl, c.Nodes)
}

// inputs is every committed conformance corpus case, 32 seeded conformance
// graphs, and the two shapes the repo benchmark runs on the DES.
func inputs(t *testing.T) []input {
	t.Helper()
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
	for seed := int64(0); seed < 32; seed++ {
		c, err := conformance.Generate(seed, conformance.GenConfig{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, fromCase(t, fmt.Sprintf("seed%d", seed), c))
	}
	for _, s := range []struct {
		name              string
		n, threads, nodes int
		pl                machine.Platform
		mapping           func(*model.App, int) (*model.Mapping, error)
	}{
		{"fft512.cspi8", 512, 8, 8, platforms.CSPI(), model.SpreadParallel},
		{"fft256.mercury1024", 256, 64, 1024, platforms.Mercury(), model.StaggerParallel},
	} {
		app, err := apps.FFT2D(s.n, s.threads)
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.mapping(app, s.nodes)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, generate(t, s.name, app, m, s.pl, s.nodes))
	}
	return ins
}

func findPort(ports []gluegen.PortEntry, name string) *gluegen.PortEntry {
	for i := range ports {
		if ports[i].Name == name {
			return &ports[i]
		}
	}
	return nil
}

// referenceOrder is the definition of a port's receive or send order: the
// port's buffers in table order, each buffer's transfers in table order,
// keeping those that touch this thread on this side.
func referenceOrder(tb *gluegen.Tables, base []int, fe *gluegen.FuncEntry, pe *gluegen.PortEntry, thread int, isInput bool) []int32 {
	var ids []int32
	for _, bufID := range pe.Buffers {
		buf := &tb.Buffers[bufID]
		for xi, x := range buf.Transfers {
			if isInput {
				if buf.DstFn != fe.ID || buf.DstPort != pe.Name || x.DstThread != thread {
					continue
				}
			} else {
				if buf.SrcFn != fe.ID || buf.SrcPort != pe.Name || x.SrcThread != thread {
					continue
				}
			}
			ids = append(ids, int32(base[bufID]+xi))
		}
	}
	return ids
}

func partition(t *testing.T, pe *gluegen.PortEntry, threads, thread int) model.Region {
	t.Helper()
	reg, err := model.Partition(pe.Striping, pe.Rows, pe.Cols, threads, thread)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func checkInvariants(t *testing.T, tb *gluegen.Tables, p *plan.Plan) {
	// Edge IDs are dense and buffer-major, and carry the table's entry.
	base := make([]int, len(tb.Buffers))
	tags := map[int]int{}
	n := 0
	for bi := range tb.Buffers {
		buf := &tb.Buffers[bi]
		base[bi] = n
		src, dst := &tb.Functions[buf.SrcFn], &tb.Functions[buf.DstFn]
		srcPort, dstPort := findPort(src.Outs, buf.SrcPort), findPort(dst.Ins, buf.DstPort)
		for xi := range buf.Transfers {
			x := &buf.Transfers[xi]
			if n >= len(p.Edges) {
				t.Fatalf("plan has %d edges, tables more", len(p.Edges))
			}
			e := &p.Edges[n]
			if int(e.Buf) != buf.ID || e.X != x {
				t.Fatalf("edge %d is b%d %+v, want b%d's entry %+v", n, e.Buf, e.X, buf.ID, *x)
			}
			if s := &p.Threads[e.Src]; s.Fn != src || s.Index != x.SrcThread {
				t.Fatalf("edge %d: producer %s[%d], want %s[%d]", n, s.Fn.Name, s.Index, src.Name, x.SrcThread)
			}
			if d := &p.Threads[e.Dst]; d.Fn != dst || d.Index != x.DstThread {
				t.Fatalf("edge %d: consumer %s[%d], want %s[%d]", n, d.Fn.Name, d.Index, dst.Name, x.DstThread)
			}
			if want := funclib.ContiguousIn(x.Region, partition(t, srcPort, src.Threads, x.SrcThread)); e.SrcContig != want {
				t.Fatalf("edge %d: SrcContig %v, want %v", n, e.SrcContig, want)
			}
			if want := funclib.ContiguousIn(x.Region, partition(t, dstPort, dst.Threads, x.DstThread)); e.DstContig != want {
				t.Fatalf("edge %d: DstContig %v, want %v", n, e.DstContig, want)
			}
			if prev, dup := tags[e.DataTag()]; dup {
				t.Fatalf("edges %d and %d share data tag %d", prev, n, e.DataTag())
			}
			tags[e.DataTag()] = n
			if e.DataTag() >= mpi.TagUserLimit/2 || e.CreditTag() != e.DataTag()+mpi.TagUserLimit/2 {
				t.Fatalf("edge %d: tags %d/%d leave their ranges", n, e.DataTag(), e.CreditTag())
			}
			n++
		}
	}
	if n != len(p.Edges) {
		t.Fatalf("plan has %d edges, tables %d transfers", len(p.Edges), n)
	}

	// Threads are function-major; every port holds its partition and lists
	// its edges in the reference order.
	listedIn, listedOut := make([]int, n), make([]int, n)
	ti := 0
	for fi := range tb.Functions {
		fe := &tb.Functions[fi]
		if p.First[fi] != ti {
			t.Fatalf("First[%d] = %d, want %d", fi, p.First[fi], ti)
		}
		for th := 0; th < fe.Threads; th++ {
			tp := &p.Threads[ti]
			ti++
			if tp.Fn != fe || tp.Index != th || tp.Node != fe.Nodes[th] || tp.Impl.Kind != fe.Kind ||
				tp.Source != (len(fe.Ins) == 0) || tp.Sink != (len(fe.Outs) == 0) ||
				len(tp.Ins) != len(fe.Ins) || len(tp.Outs) != len(fe.Outs) {
				t.Fatalf("thread %s[%d] lowered wrongly: %+v", fe.Name, th, tp)
			}
			check := func(ports []plan.Port, entries []gluegen.PortEntry, isInput bool, listed []int) {
				for pi := range ports {
					port, pe := &ports[pi], &entries[pi]
					reg := partition(t, pe, fe.Threads, th)
					if port.Entry != pe || port.Region != reg || port.Charge.Region != reg || port.Charge.Data != nil {
						t.Fatalf("%s[%d] port %s: region %v charge %+v, want %v", fe.Name, th, pe.Name, port.Region, port.Charge, reg)
					}
					want := referenceOrder(tb, base, fe, pe, th, isInput)
					if !reflect.DeepEqual(port.Edges, want) {
						t.Fatalf("%s[%d] port %s: edges %v, reference walk %v", fe.Name, th, pe.Name, port.Edges, want)
					}
					for _, ei := range port.Edges {
						listed[ei]++
					}
					adopt := isInput && len(want) == 1 && p.Edges[want[0]].X.Region == reg
					if port.Adopt != adopt {
						t.Fatalf("%s[%d] port %s: Adopt %v, want %v", fe.Name, th, pe.Name, port.Adopt, adopt)
					}
				}
			}
			check(tp.Ins, fe.Ins, true, listedIn)
			check(tp.Outs, fe.Outs, false, listedOut)
		}
	}
	if ti != len(p.Threads) {
		t.Fatalf("plan has %d threads, tables %d", len(p.Threads), ti)
	}
	for ei := range p.Edges {
		if listedIn[ei] != 1 || listedOut[ei] != 1 {
			t.Fatalf("edge %d listed by %d input and %d output ports, want 1 and 1", ei, listedIn[ei], listedOut[ei])
		}
	}
}

// checkConsumers asserts "four consumers, one plan" for the two consumers
// that expose their shape: the twin's tasks and flows, and the emitter's
// threads and lanes, are the plan's threads and edges, index for index.
func checkConsumers(t *testing.T, in input, p *plan.Plan) {
	ev, err := twin.NewEvaluator(in.tables, in.pl)
	if err != nil {
		t.Fatal(err)
	}
	base := make([]int, len(p.Threads))
	for i := range p.Threads {
		base[i] = p.Threads[i].Node
	}
	if ev.Tasks() != len(p.Threads) || ev.Flows() != len(p.Edges) || !reflect.DeepEqual(ev.BaseAssign(), base) {
		t.Fatalf("twin: %d tasks %d flows base %v; plan: %d threads %d edges base %v",
			ev.Tasks(), ev.Flows(), ev.BaseAssign(), len(p.Threads), len(p.Edges), base)
	}
	prog, err := codegen.Plan(in.tables, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Threads) != len(p.Threads) || len(prog.Conns) != len(p.Edges) {
		t.Fatalf("program: %d threads %d conns; plan: %d threads %d edges",
			len(prog.Threads), len(prog.Conns), len(p.Threads), len(p.Edges))
	}
	for i, c := range prog.Conns {
		e := &p.Edges[i]
		if c.Buf != int(e.Buf) || c.SrcFn != p.Threads[e.Src].Fn.Name || c.SrcThread != e.X.SrcThread ||
			c.DstFn != p.Threads[e.Dst].Fn.Name || c.DstThread != e.X.DstThread {
			t.Fatalf("conn %d is %v, edge is b%d %s[%d]->%s[%d]", i, c, e.Buf,
				p.Threads[e.Src].Fn.Name, e.X.SrcThread, p.Threads[e.Dst].Fn.Name, e.X.DstThread)
		}
	}
	for i := range prog.Threads {
		pt, tp := &prog.Threads[i], &p.Threads[i]
		if pt.Fn != tp.Fn.Name || pt.Thread != tp.Index || pt.Node != tp.Node {
			t.Fatalf("program thread %d is %s[%d]@%d, plan thread is %s[%d]@%d",
				i, pt.Fn, pt.Thread, pt.Node, tp.Fn.Name, tp.Index, tp.Node)
		}
	}
}

func TestPlanInvariantsAndConsumerAgreement(t *testing.T) {
	for _, in := range inputs(t) {
		t.Run(in.name, func(t *testing.T) {
			p, err := plan.Build(in.tables)
			if err != nil {
				t.Fatal(err)
			}
			checkInvariants(t, in.tables, p)
			checkConsumers(t, in, p)
		})
	}
}

// TestTagPackingIsPinned holds the formula itself: tags name MPI channels,
// so they are visible in traces and may not drift.
func TestTagPackingIsPinned(t *testing.T) {
	e := plan.Edge{Buf: 3, X: &gluegen.Transfer{SrcThread: 5, DstThread: 7}}
	if e.DataTag() != (3*128+5)*128+7 || e.CreditTag() != 1<<23+e.DataTag() {
		t.Fatalf("tags %d/%d", e.DataTag(), e.CreditTag())
	}
}

// chain is source -> n-1 identity stages -> sink on one node, one thread
// each, moving a 1x1 matrix: n+1 functions, n buffers.
func chain(n int) *gluegen.Tables {
	tb := &gluegen.Tables{AppName: "chain", Platform: "CSPI", NumNodes: 1}
	port := func(name string, buf int) []gluegen.PortEntry {
		return []gluegen.PortEntry{{Name: name, Rows: 1, Cols: 1, ElemBytes: 16, Striping: model.ByRows, Buffers: []int{buf}}}
	}
	for i := 0; i <= n; i++ {
		fe := gluegen.FuncEntry{ID: i, Name: fmt.Sprintf("f%d", i), Kind: "identity", Threads: 1, Nodes: []int{0}}
		if i > 0 {
			fe.Ins = port("in", i-1)
		}
		if i < n {
			fe.Outs = port("out", i)
			tb.Buffers = append(tb.Buffers, gluegen.BufferEntry{
				ID: i, SrcFn: i, SrcPort: "out", DstFn: i + 1, DstPort: "in", Rows: 1, Cols: 1, ElemBytes: 16,
				Transfers: []gluegen.Transfer{{Region: model.Region{Rows: 1, Cols: 1}, Bytes: 16}},
			})
		}
		tb.Functions = append(tb.Functions, fe)
		tb.Order = append(tb.Order, i)
	}
	tb.Functions[0].Kind, tb.Functions[n].Kind = "source_matrix", "sink_matrix"
	return tb
}

func TestBuildRefuses(t *testing.T) {
	fft := func(threads int) *gluegen.Tables {
		app, err := apps.FFT2D(256, threads)
		if err != nil {
			t.Fatal(err)
		}
		m, err := model.SpreadParallel(app, 256)
		if err != nil {
			t.Fatal(err)
		}
		return generate(t, "fft", app, m, platforms.Mercury(), 256).tables
	}
	// Each of these passes Verify: it checks coverage per destination thread
	// it knows of and that both ports list the buffer, nothing more.
	dup := chain(2)
	dup.Buffers[1].Transfers = append(dup.Buffers[1].Transfers, gluegen.Transfer{}) // an empty region overlaps nothing
	stray := chain(2)
	stray.Buffers[1].Transfers = append(stray.Buffers[1].Transfers, gluegen.Transfer{DstThread: 7})
	twice := chain(2)
	twice.Functions[1].Ins[0].Buffers = []int{0, 0}
	foreign := chain(2)
	foreign.Functions[1].Outs[0].Buffers = []int{1, 9}
	// Verify does not match a function's ports to its kind's; Build must,
	// or a kind would find a nil block at a position.
	renamed := chain(2)
	renamed.Functions[1].Ins[0].Name, renamed.Buffers[0].DstPort = "x", "x"
	short := chain(2)
	short.Functions[1].Kind = "add2"
	for _, tc := range []struct {
		name   string
		tables *gluegen.Tables
		want   string // "" builds
	}{
		{"128 threads", fft(128), ""},
		{"256 threads", fft(256), `function "fft_rows" has 256 threads, limit 128`},
		{"511 buffers", chain(511), ""},
		{"512 buffers", chain(512), "512 buffers exceed the tag space"},
		{"duplicate lane", dup, "buffer 1: duplicate transfer 0->0"},
		{"transfer to a thread that does not exist", stray, "buffer 1: transfer names thread 7 of f2's 1"},
		{"port lists its buffer twice", twice, "buffer 0: transfer 0->0 is listed twice by f1's ports"},
		{"port lists a buffer that does not exist", foreign, "f1 port out lists buffer 9 of 2"},
		{"port its kind does not declare", renamed, "f1 port x is not a port of kind identity"},
		{"fewer ports than the kind declares", short, "f1 lists 1 ports where kind add2 declares 2"},
	} {
		if err := tc.tables.Verify(); err != nil {
			t.Fatalf("%s: the tables must pass Verify for the case to mean anything: %v", tc.name, err)
		}
		_, err := plan.Build(tc.tables)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// Package plan is the execution-plan IR every consumer of the generated
// runtime tables shares: Build verifies gluegen.Tables and lowers them once
// into threads × ports × lanes. The DES runtime (sagert), the streaming
// runtime (stream), the analytical twin and the Go emitter (codegen) all walk
// this one Plan, so they cannot disagree about which thread receives what, in
// which order, under which tag.
//
// The plan holds only what the tables determine. A thread's Node is the
// tables' own mapping, nothing more: consumers that re-map (stream epochs,
// twin.PredictAssign) resolve an edge's peer through Src/Dst themselves.
// Costs, credit ledgers and queues are run state and live with the consumer.
// Which threads may compute in place (Thread.InPlace) is the tables': whether
// anybody else reads a thread's input block follows from the lanes alone, so
// it is decided here, once, as is every other storage decision of DESIGN.md
// §14: which threads land their payloads transposed (Thread.Transposes), and,
// on demand (Layouts: only a run that carries samples asks), which keep their
// storage in a sink's result and which ports have a storage, read by whom.
// The runtimes that carry samples carry these decisions out.
package plan

import (
	"fmt"
	"slices"

	"repro/internal/funclib"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/mpi"
)

// TagThreadLimit bounds a function's thread count so that (buffer, source
// thread, destination thread) packs into one MPI user tag.
const TagThreadLimit = 128

// Edge is one lane: a striding entry of a logical buffer, moving one region
// from a producer thread to a consumer thread each iteration. Its indices are
// int32, so that an Edge is 24 bytes.
type Edge struct {
	X   *gluegen.Transfer // the table's striding entry, in Tables.Buffers[Buf].Transfers
	Buf int32             // logical buffer ID
	// Src and Dst index Plan.Threads.
	Src, Dst int32
	// SrcContig and DstContig report whether X.Region is contiguous in the
	// producer's and the consumer's logical buffer (funclib.ContiguousIn):
	// the side where it is not pays a pack or assembly copy.
	SrcContig, DstContig bool
}

// DataTag is the lane's MPI tag. The packing is visible in channel names and
// therefore in traces.
func (e *Edge) DataTag() int {
	return (int(e.Buf)*TagThreadLimit+e.X.SrcThread)*TagThreadLimit + e.X.DstThread
}

// CreditTag is the tag of the lane's pipelining-credit returns, in a disjoint
// range above every data tag.
func (e *Edge) CreditTag() int { return mpi.TagUserLimit/2 + e.DataTag() }

// Port is one thread's view of one port of its function.
type Port struct {
	Entry *gluegen.PortEntry
	// Region is the thread's partition of the port's data set.
	Region model.Region
	// Edges indexes Plan.Edges in the runtime's receive (input) or send
	// (output) order: the port's buffers in table order, each buffer's
	// transfers in table order. Every port's list is carved from one array.
	Edges []int32
	// Adopt marks an input port whose one edge covers the whole partition:
	// the payload becomes the block (funclib.Assemble with a nil destination;
	// a pitched payload is copied dense first).
	Adopt bool
	// Pos is the port's position among its kind's declared ports, the index
	// of its block in the slices Compute and Cost take (funclib.Position).
	Pos int32
	// Charge is the port's block when only costs are wanted: the region the
	// cost model prices, no samples.
	Charge funclib.Block
}

// Bytes is the size of the thread's partition.
func (p *Port) Bytes() int { return p.Region.Elems() * p.Entry.ElemBytes }

// Thread is one thread of one function-table entry.
type Thread struct {
	Fn    *gluegen.FuncEntry
	Index int // thread index within Fn
	Node  int // the tables' mapping: Fn.Nodes[Index]
	Impl  *funclib.Impl
	// Source and Sink mark functions without input or output ports.
	Source, Sink bool
	// InPlace marks a thread that computes into its input block: its kind is
	// funclib InPlace and the thread owns the block its one input port ends
	// up holding (it assembled it, or funclib.OwnsAdopted against the
	// producer port's other edges), so its kind's out[0] is its in[0] and no
	// output block is allocated.
	InPlace bool
	// Transposes marks a thread that lands its payloads in the transposed
	// view of its output block (funclib.LandsTransposed): its input port has
	// no block of its own, and Compute finds its output written.
	Transposes bool
	Ins, Outs  []Port
}

// Sink is a collected sink: a sink_matrix function with one input port, whose
// threads' payloads assemble one result matrix shaped like that port's type.
type Sink struct {
	Fn         *gluegen.FuncEntry
	Rows, Cols int
}

// Plan is the lowered form of one set of tables.
type Plan struct {
	Tables *gluegen.Tables
	// Threads lists every thread, function by function in table order,
	// threads ascending.
	Threads []Thread
	// First maps a function ID to the index of its thread 0 in Threads.
	First []int
	// Edges lists every lane, buffer by buffer in ID order, each buffer's
	// transfers in table order.
	Edges []Edge
	// Sinks lists the collected sinks in function-table order.
	Sinks []Sink
}

// Build verifies the tables and lowers them. It refuses tables whose lanes
// would alias in the tag space, lanes declared twice, and transfers that name
// a missing thread or are listed more than once on a side (Verify has
// already made sure both of a buffer's ports list it).
func Build(t *gluegen.Tables) (*Plan, error) {
	if err := t.Verify(); err != nil {
		return nil, fmt.Errorf("plan: refusing unverified tables: %w", err)
	}
	if len(t.Buffers)*TagThreadLimit*TagThreadLimit >= mpi.TagUserLimit/2 {
		return nil, fmt.Errorf("plan: %d buffers exceed the tag space", len(t.Buffers))
	}
	p := &Plan{Tables: t, First: make([]int, len(t.Functions))}
	n := 0
	for fi := range t.Functions {
		fe := &t.Functions[fi]
		if fe.Threads > TagThreadLimit {
			return nil, fmt.Errorf("plan: function %q has %d threads, limit %d", fe.Name, fe.Threads, TagThreadLimit)
		}
		p.First[fi] = n
		n += fe.Threads
	}
	p.Threads = make([]Thread, n)
	// Every thread's ports come from one array, function by function, each
	// thread's inputs then its outputs: w.ports[fi] is where function fi's
	// thread 0 starts.
	w := wiring{ports: make([]int, len(t.Functions)+1)}
	for fi := range t.Functions {
		fe := &t.Functions[fi]
		w.ports[fi+1] = w.ports[fi] + fe.Threads*(len(fe.Ins)+len(fe.Outs))
	}
	ports := make([]Port, w.ports[len(t.Functions)])
	for fi := range t.Functions {
		fe := &t.Functions[fi]
		impl, err := funclib.Lookup(fe.Kind)
		if err != nil {
			return nil, err
		}
		for th := 0; th < fe.Threads; th++ {
			tp := &p.Threads[p.First[fi]+th]
			*tp = Thread{
				Fn: fe, Index: th, Node: fe.Nodes[th], Impl: impl,
				Source: len(fe.Ins) == 0, Sink: len(fe.Outs) == 0,
			}
			k := w.ports[fi] + th*(len(fe.Ins)+len(fe.Outs))
			if tp.Ins, err = newPorts(fe, fe.Ins, impl.In, th, ports[k:k+len(fe.Ins):k+len(fe.Ins)]); err != nil {
				return nil, err
			}
			k += len(fe.Ins)
			if tp.Outs, err = newPorts(fe, fe.Outs, impl.Out, th, ports[k:k+len(fe.Outs):k+len(fe.Outs)]); err != nil {
				return nil, err
			}
		}
	}

	// base[b] is the ID of buffer b's first edge.
	w.base = make([]int, len(t.Buffers)+1)
	for bi := range t.Buffers {
		w.base[bi+1] = w.base[bi] + len(t.Buffers[bi].Transfers)
	}
	p.Edges = make([]Edge, w.base[len(t.Buffers)])
	w.wired = make([]uint8, len(p.Edges))
	// A first pass counts each port's lanes; every port's Edges list is then
	// carved from one array, and the second pass fills them in place.
	w.count = make([]int32, len(ports))
	for pass := range 2 {
		for fi := range t.Functions {
			fe := &t.Functions[fi]
			for pi := range fe.Ins {
				if err := p.wire(fe, pi, true, &w); err != nil {
					return nil, err
				}
			}
			for pi := range fe.Outs {
				if err := p.wire(fe, pi, false, &w); err != nil {
					return nil, err
				}
			}
		}
		if pass == 0 {
			total := 0
			for _, c := range w.count {
				total += int(c)
			}
			lanes, off := make([]int32, 0, total), 0
			for k, c := range w.count {
				if c > 0 { // a port without lanes keeps a nil list
					ports[k].Edges = lanes[off : off : off+int(c)]
					off += int(c)
				}
			}
			w.count = nil
		}
	}

	seen := make([]bool, TagThreadLimit*TagThreadLimit)
	for bi := range t.Buffers {
		clear(seen)
		for ei := w.base[bi]; ei < w.base[bi+1]; ei++ {
			e := &p.Edges[ei]
			lane := e.X.SrcThread*TagThreadLimit + e.X.DstThread
			if seen[lane] {
				return nil, fmt.Errorf("plan: buffer %d: duplicate transfer %d->%d", bi, e.X.SrcThread, e.X.DstThread)
			}
			seen[lane] = true
		}
	}
	for fi := range t.Functions {
		if fe := &t.Functions[fi]; fe.Kind == "sink_matrix" && len(fe.Ins) == 1 {
			p.Sinks = append(p.Sinks, Sink{Fn: fe, Rows: fe.Ins[0].Rows, Cols: fe.Ins[0].Cols})
		}
	}
	for ti := range p.Threads {
		tp := &p.Threads[ti]
		for pi := range tp.Ins {
			port := &tp.Ins[pi]
			port.Adopt = len(port.Edges) == 1 && p.Edges[port.Edges[0]].X.Region == port.Region
		}
		tp.InPlace = p.ownsInput(tp)
		tp.Transposes = len(tp.Ins) == 1 && len(tp.Outs) == 1 &&
			funclib.LandsTransposed(tp.Impl, tp.Ins[0].Region, tp.Outs[0].Region)
	}
	return p, nil
}

// Storage is the memory behind one logical buffer of one thread in a runtime
// that keeps a buffer's blocks for the whole run (rtl): an assembling input,
// an input that copies its one pitched payload dense, or the output of a
// thread that does not compute in place, unless it lies in a sink's result.
type Storage struct {
	// Readers lists, ascending, the threads that read a block in the
	// iteration that wrote it: the owner, the consumers of its sends and,
	// through one that forwards them (computes in place on the dense view it
	// adopted), that one's consumers, transitively.
	Readers []int32
	// Clear marks a storage whose recycled block must be zeroed: all but an
	// input whose transfers cover its partition, and the output of a thread
	// that lands transposed from such an input.
	Clear bool
}

// Layout is one thread's storage record (DESIGN.md §14): the sink whose
// result matrix holds its storage (an index into Sinks, or -1;
// funclib.ResultBacked), and each port's storage, nil for a port without one.
type Layout struct {
	Result    int
	Ins, Outs []*Storage
}

// Layouts decides, per thread, where its storage lives. Only a run that
// carries samples asks; the cost grows with the edges the blocks travel.
func (p *Plan) Layouts() []Layout {
	forwards := func(tp *Thread) bool { return tp.InPlace && tp.Ins[0].Adopt && p.Edges[tp.Ins[0].Edges[0]].SrcContig }
	seen, mark, counting := make([]int, len(p.Threads)), 0, true
	var readers []int32
	// walk adds to the reader set the walk marked mark the consumers of pp's
	// lanes and, through a thread that forwards, its consumers, and reports
	// how many; while counting it only counts them.
	var walk func(pp *Port) int
	walk = func(pp *Port) (added int) {
		for _, ei := range pp.Edges {
			if d := p.Edges[ei].Dst; seen[d] != mark {
				seen[d], added = mark, added+1
				if !counting {
					readers = append(readers, d)
				}
				if forwards(&p.Threads[d]) {
					added += walk(&p.Threads[d].Outs[0])
				}
			}
		}
		return added
	}
	// Every consumer list and reader set, back to back, comes from one array
	// that a counting pass sizes: a set holds its owner and what its walk
	// reaches, an input's its owner.
	n, sets := 0, 0
	for ti := range p.Threads {
		tp := &p.Threads[ti]
		n, sets = n+len(tp.Outs)+len(tp.Ins), sets+len(tp.Ins)
		for pi := range tp.Outs {
			if !forwards(tp) {
				mark++
				seen[ti], sets = mark, sets+1+walk(&tp.Outs[pi])
			}
		}
	}
	ls, ts := make([]Layout, len(p.Threads)), make([]funclib.ResultThread, len(p.Threads))
	store, ports, ints := make([]Storage, n), make([]*Storage, n), make([]int32, len(p.Edges)+sets)
	out, readers := ints[:0:len(p.Edges)], ints[len(p.Edges):len(p.Edges)]
	sends := make([]model.Region, 0, len(p.Edges))
	counting = false
	// From here on k indexes a thread's first output in store and ports,
	// j its first input.
	for ti, k := 0, 0; ti < len(p.Threads); ti++ {
		tp, l, t, j := &p.Threads[ti], &ls[ti], &ts[ti], k+len(p.Threads[ti].Outs)
		l.Outs, l.Ins = ports[k:j:j], ports[j:j+len(tp.Ins):j+len(tp.Ins)]
		start := len(out)
		for pi := range tp.Outs {
			for _, ei := range tp.Outs[pi].Edges {
				out, sends = append(out, p.Edges[ei].Dst), append(sends, p.Edges[ei].X.Region)
			}
			if !forwards(tp) {
				first := len(readers)
				mark++
				seen[ti], readers = mark, append(readers, int32(ti))
				walk(&tp.Outs[pi])
				slices.Sort(readers[first:])
				store[k+pi] = Storage{Readers: readers[first:len(readers):len(readers)], Clear: !tp.Transposes || !p.covered(tp, &tp.Ins[0])}
				if !tp.InPlace {
					l.Outs[pi] = &store[k+pi]
				}
			}
		}
		t.Fn, t.Out, t.Sends, t.Forwards = tp.Fn.ID, out[start:], sends[start:], forwards(tp)
		t.InPlace = tp.InPlace && !t.Forwards && p.covered(tp, &tp.Ins[0])
		t.Strided = tp.Impl.Strided
		if len(tp.Outs) == 1 && len(t.Out) > 0 && !forwards(tp) {
			t.Part, t.Threads, t.Readers = tp.Outs[0].Region, tp.Fn.Threads, store[k].Readers
		}
		for pi := range tp.Ins {
			if in := &tp.Ins[pi]; tp.Fn.Kind != "sink_matrix" && !tp.Transposes && !(in.Adopt && p.Edges[in.Edges[0]].SrcContig) {
				readers = append(readers, int32(ti))
				l.Ins[pi] = &store[j+pi]
				*l.Ins[pi] = Storage{Readers: readers[len(readers)-1 : len(readers) : len(readers)], Clear: !p.covered(tp, in)}
				if tp.InPlace {
					l.Ins[pi].Readers = store[k].Readers // the block goes on as the output
				}
			}
		}
		k = j + len(tp.Ins)
	}
	sinks := make([]funclib.ResultSink, len(p.Sinks))
	for si := range p.Sinks {
		s := &p.Sinks[si]
		sinks[si] = funclib.ResultSink{Rows: s.Rows, Cols: s.Cols, Covered: true} // the threads' partitions tile the result
		for ti := p.First[s.Fn.ID]; ti < p.First[s.Fn.ID]+s.Fn.Threads; ti++ {
			sinks[si].Threads = append(sinks[si].Threads, ti)
			sinks[si].Covered = sinks[si].Covered && p.covered(&p.Threads[ti], &p.Threads[ti].Ins[0])
		}
	}
	// A result-backed thread's storage lies in the result: its input when it
	// computes in place, its output otherwise.
	for ti, si := range funclib.ResultBacked(ts, sinks) {
		if ls[ti].Result = si; si >= 0 {
			clear(ls[ti].Outs)
			if p.Threads[ti].InPlace {
				clear(ls[ti].Ins)
			}
		}
	}
	return ls
}

// covered reports whether the transfers of tp's input port in write every
// sample of its partition. Build verified the tables, so each of the port's
// buffers tiles, thread by thread, the partition of the buffer's own shape:
// a buffer shaped like the port covers it. A port without one is taken as
// not covered, which costs a clearing or a result copy, never a sample.
func (p *Plan) covered(tp *Thread, in *Port) bool {
	return slices.ContainsFunc(in.Entry.Buffers, func(bi int) bool {
		b := &p.Tables.Buffers[bi]
		return b.DstFn == tp.Fn.ID && b.DstPort == in.Entry.Name && b.Rows == in.Entry.Rows && b.Cols == in.Entry.Cols
	})
}

// ownsInput decides Thread.InPlace: one scan of the producer port's edges per
// adopting thread of an InPlace kind, nothing for any other thread.
func (p *Plan) ownsInput(tp *Thread) bool {
	if !tp.Impl.InPlace || len(tp.Ins) != 1 || len(tp.Outs) != 1 || tp.Ins[0].Region != tp.Outs[0].Region {
		return false
	}
	in := &tp.Ins[0]
	if !in.Adopt {
		return true
	}
	ei := in.Edges[0]
	e := &p.Edges[ei]
	return funclib.OwnsAdopted(e.SrcContig, e.X.Region, func(yield func(model.Region) bool) {
		outs := p.Threads[e.Src].Outs
		for pi := range outs {
			if outs[pi].Entry.Name != p.Tables.Buffers[e.Buf].SrcPort {
				continue
			}
			for _, oi := range outs[pi].Edges {
				if oi != ei && !yield(p.Edges[oi].X.Region) {
					return
				}
			}
		}
	})
}

// newPorts fills ports, one per entry, with thread's partition of each and
// its position among reqs, the kind's declared ports of that side, which the
// entries must name once each.
func newPorts(fe *gluegen.FuncEntry, entries []gluegen.PortEntry, reqs []funclib.PortReq, thread int, ports []Port) ([]Port, error) {
	if len(entries) != len(reqs) {
		return nil, fmt.Errorf("plan: %s lists %d ports where kind %s declares %d", fe.Name, len(entries), fe.Kind, len(reqs))
	}
	for pi := range entries {
		pe := &entries[pi]
		pos := int32(funclib.Position(reqs, pe.Name))
		if pos < 0 || slices.ContainsFunc(ports[:pi], func(q Port) bool { return q.Pos == pos }) {
			return nil, fmt.Errorf("plan: %s port %s is not a port of kind %s, or is listed twice", fe.Name, pe.Name, fe.Kind)
		}
		region, err := model.Partition(pe.Striping, pe.Rows, pe.Cols, fe.Threads, thread)
		if err != nil {
			return nil, fmt.Errorf("plan: %s port %s: %w", fe.Name, pe.Name, err)
		}
		ports[pi] = Port{Entry: pe, Region: region, Pos: pos, Charge: funclib.Block{Region: region}}
	}
	return ports, nil
}

// Charges returns the thread's charge-only blocks in its kind's port order:
// the inputs in in and the outputs in out, each resized to its side's port
// count in the storage it already has where that is large enough.
func (tp *Thread) Charges(in, out []*funclib.Block) ([]*funclib.Block, []*funclib.Block) {
	in, out = slices.Grow(in[:0], len(tp.Ins))[:len(tp.Ins)], slices.Grow(out[:0], len(tp.Outs))[:len(tp.Outs)]
	for pi := range tp.Ins {
		in[tp.Ins[pi].Pos] = &tp.Ins[pi].Charge
	}
	for pi := range tp.Outs {
		out[tp.Outs[pi].Pos] = &tp.Outs[pi].Charge
	}
	return in, out
}

const wiredIn, wiredOut = 1, 2

// wiring is Build's state while it hands out the lanes.
type wiring struct {
	// ports[fi] is the index of function fi's first port in the plan's one
	// port array; base[b] is the ID of buffer b's first edge.
	ports, base []int
	// wired marks the sides of each edge wire has filled in.
	wired []uint8
	// count, while not nil, asks wire only to count the lanes of each port,
	// by its index in the port array.
	count []int32
}

// wire hands the transfers of one port's buffers to the function's threads:
// walking the port's buffer list and each buffer's transfer table in order,
// it appends every edge to the port of the thread that receives (input) or
// sends (output) it, and fills in that side of the edge. While w.count is
// set it counts those edges instead, and checks only what it reads.
func (p *Plan) wire(fe *gluegen.FuncEntry, pi int, input bool, w *wiring) error {
	entries := fe.Outs
	if input {
		entries = fe.Ins
	}
	pe := &entries[pi]
	for _, bufID := range pe.Buffers {
		if bufID < 0 || bufID >= len(p.Tables.Buffers) {
			return fmt.Errorf("plan: %s port %s lists buffer %d of %d", fe.Name, pe.Name, bufID, len(p.Tables.Buffers))
		}
		b := &p.Tables.Buffers[bufID]
		endFn, endPort := b.SrcFn, b.SrcPort
		if input {
			endFn, endPort = b.DstFn, b.DstPort
		}
		if endFn != fe.ID || endPort != pe.Name {
			continue // the buffer's end on this side is some other port
		}
		for xi := range b.Transfers {
			x := &b.Transfers[xi]
			ei := w.base[bufID] + xi
			e := &p.Edges[ei]
			side, th, k := uint8(wiredOut), x.SrcThread, len(fe.Ins)+pi
			if input {
				side, th, k = wiredIn, x.DstThread, pi
			}
			if th < 0 || th >= fe.Threads {
				return fmt.Errorf("plan: buffer %d: transfer names thread %d of %s's %d", bufID, th, fe.Name, fe.Threads)
			}
			if w.count != nil {
				w.count[w.ports[fe.ID]+th*(len(fe.Ins)+len(fe.Outs))+k]++
				continue
			}
			if w.wired[ei]&side != 0 {
				return fmt.Errorf("plan: buffer %d: transfer %d->%d is listed twice by %s's ports", bufID, x.SrcThread, x.DstThread, fe.Name)
			}
			w.wired[ei] |= side
			ti := p.First[fe.ID] + th
			var port *Port
			if input {
				port = &p.Threads[ti].Ins[pi]
				e.Dst, e.DstContig = int32(ti), funclib.ContiguousIn(x.Region, port.Region)
			} else {
				port = &p.Threads[ti].Outs[pi]
				e.Buf, e.X = int32(bufID), x
				e.Src, e.SrcContig = int32(ti), funclib.ContiguousIn(x.Region, port.Region)
			}
			port.Edges = append(port.Edges, int32(ei))
		}
	}
	return nil
}

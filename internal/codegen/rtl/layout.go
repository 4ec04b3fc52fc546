package rtl

import (
	"slices"

	"repro/internal/funclib"
	"repro/internal/model"
)

// Physical buffers (DESIGN.md §14). Execute maps every logical buffer a
// thread writes onto a storage of P = min(Slots, Iterations) dense blocks,
// allocated once per run by the thread's own goroutine. At iteration i the
// thread writes block i mod P; from i = P on it first waits until every
// reader of the storage has finished iteration i − P, the last one that used
// the block. Every reader is the thread itself or downstream of it, so each
// wait is for an earlier iteration of a thread that depends on nothing still
// waiting: by induction on the iteration, the run cannot deadlock.

// Two layout decisions come first, both through funclib's predicates, both
// the same as plan.Build's for sagert. A result-backed thread
// (funclib.ResultBacked) keeps its storage in the iteration's result matrix
// of a sink that every reader of it precedes — its input block when it
// computes in place on one of its own, its output block otherwise — so that
// buffer has no storage here. A thread that lands transposed
// (funclib.LandsTransposed) receives straight into the transposed view of its
// output block: its input port has no storage, and a recycled output block is
// cleared unless its transfers cover the partition.

// storage is the physical memory behind one logical buffer of one thread:
// an assembling input, an input that copies its one pitched payload dense,
// or the output of a thread that does not compute in place — unless that
// buffer lives in a result matrix.
type storage struct {
	region model.Region
	blocks []*funclib.Block // block i mod P serves iteration i
	// readers are the threads that read a block during the iteration that
	// wrote it: the owning thread, the consumers of the views it sends, and,
	// through a consumer that adopts a dense view and computes in place on
	// it, that consumer's own consumers, transitively.
	readers []int
	// clear zeroes a recycled block before reuse, as a fresh one would be.
	// An input whose transfers cover its partition overwrites every sample
	// and skips it.
	clear bool
}

// layout is Execute's one pass over a validated Program: each thread's kind,
// whether it computes in place, where its storage lives, and the storages of
// its ports.
type layout struct {
	impls   []*funclib.Impl
	inPlace []bool
	// results holds, for a result-backed thread, a thread of the sink whose
	// result matrix holds its storage; nil elsewhere.
	results []*Thread
	// transposes marks the threads that land their payloads transposed in
	// their output block.
	transposes []bool
	ins        [][]*storage // [thread][input port]; nil for a sink port, one that adopts a dense view, lands transposed or lies in a result
	outs       [][]*storage // [thread][output port]; nil for a thread that computes in place or whose output lies in a result
}

// laneEnd is one side of a lane: the thread and its port.
type laneEnd struct {
	thread int
	port   *Port
}

// newLayout plans the physical buffers of a validated program.
func newLayout(p *Program) *layout {
	n := len(p.Threads)
	l := &layout{
		impls:      make([]*funclib.Impl, n),
		inPlace:    make([]bool, n),
		results:    make([]*Thread, n),
		transposes: make([]bool, n),
		ins:        make([][]*storage, n),
		outs:       make([][]*storage, n),
	}
	src := make([]laneEnd, len(p.Conns))
	dst := make([]laneEnd, len(p.Conns))
	for ti := range p.Threads {
		t := &p.Threads[ti]
		l.impls[ti], _ = funclib.Lookup(t.Kind) // Validate looked every kind up
		for pi := range t.Outs {
			for _, x := range t.Outs[pi].Xfers {
				src[x.Conn] = laneEnd{ti, &t.Outs[pi]}
			}
		}
		for pi := range t.Ins {
			for _, x := range t.Ins[pi].Xfers {
				dst[x.Conn] = laneEnd{ti, &t.Ins[pi]}
			}
		}
	}
	// adoptsDense reports whether input port pp keeps its one payload as it
	// arrives: a dense view of the producer's block, which is dense over the
	// producer's partition.
	adoptsDense := func(pp *Port) bool {
		return pp.adopts() && funclib.ContiguousIn(pp.Xfers[0].Region, src[pp.Xfers[0].Conn].port.Region)
	}

	// An InPlace kind computes into its one input block when its thread owns
	// it: the port assembled it, copied it dense, or adopted a view that no
	// other transfer of the producing port overlaps (funclib.OwnsAdopted).
	for ti := range p.Threads {
		t := &p.Threads[ti]
		if !l.impls[ti].InPlace || len(t.Ins) != 1 || len(t.Outs) != 1 || t.Ins[0].Region != t.Outs[0].Region {
			continue
		}
		in := &t.Ins[0]
		if !adoptsDense(in) {
			l.inPlace[ti] = true
			continue
		}
		x, from := in.Xfers[0], src[in.Xfers[0].Conn].port
		l.inPlace[ti] = funclib.OwnsAdopted(true, x.Region,
			func(yield func(model.Region) bool) {
				for _, o := range from.Xfers {
					if o.Conn != x.Conn && !yield(o.Region) {
						return
					}
				}
			})
	}

	// A thread with storage of its own keeps it in a sink's result as
	// funclib.ResultBacked decides; a transposing kind lands transposed.
	ts := make([]funclib.ResultThread, n)
	var sinks []funclib.ResultSink
	for ti := range p.Threads {
		t, r := &p.Threads[ti], &ts[ti]
		if len(t.Ins) == 1 && len(t.Outs) == 1 {
			l.transposes[ti] = funclib.LandsTransposed(l.impls[ti], t.Ins[0].Region, t.Outs[0].Region)
			r.Forwards = l.inPlace[ti] && adoptsDense(&t.Ins[0])
		}
		for pi := range t.Outs {
			for _, x := range t.Outs[pi].Xfers {
				r.Out = append(r.Out, dst[x.Conn].thread)
			}
		}
		r.Fn = slices.IndexFunc(p.Threads, func(u Thread) bool { return u.Fn == t.Fn })
		if len(t.Outs) == 1 && len(r.Out) > 0 && !r.Forwards {
			r.Part, r.Threads = t.Outs[0].Region, t.Threads
		}
		if t.Kind == "sink_matrix" {
			si := slices.IndexFunc(sinks, func(s funclib.ResultSink) bool { return s.Threads[0] == r.Fn })
			if si < 0 { // the threads' partitions tile the result
				si, sinks = len(sinks), append(sinks, funclib.ResultSink{Rows: t.SinkRows, Cols: t.SinkCols, Covered: true})
			}
			sinks[si].Threads = append(sinks[si].Threads, ti)
			sinks[si].Covered = sinks[si].Covered && t.Ins[0].covered()
		}
	}
	for ti, si := range funclib.ResultBacked(ts, sinks) {
		if si >= 0 {
			l.results[ti] = &p.Threads[sinks[si].Threads[0]]
		}
	}

	// sends marks the readers of the views port pp sends: each consumer,
	// and an in-place consumer's own sends when it kept the view as its
	// input block.
	var sends func(seen []bool, pp *Port)
	sends = func(seen []bool, pp *Port) {
		for _, x := range pp.Xfers {
			d := dst[x.Conn]
			if seen[d.thread] {
				continue
			}
			seen[d.thread] = true
			if l.inPlace[d.thread] && adoptsDense(d.port) {
				sends(seen, &p.Threads[d.thread].Outs[0])
			}
		}
	}
	// newStorage is thread ti's storage for partition r; out is the port
	// that sends views of its blocks, if any.
	newStorage := func(ti int, r model.Region, out *Port, clear bool) *storage {
		seen := make([]bool, n)
		seen[ti] = true
		if out != nil {
			sends(seen, out)
		}
		s := &storage{region: r, blocks: make([]*funclib.Block, min(p.slots(), p.Iterations)), clear: clear}
		for u, reads := range seen {
			if reads {
				s.readers = append(s.readers, u)
			}
		}
		return s
	}
	for ti := range p.Threads {
		t := &p.Threads[ti]
		inResult := l.results[ti] != nil
		l.ins[ti] = make([]*storage, len(t.Ins))
		if t.Kind != "sink_matrix" && !l.transposes[ti] && !(l.inPlace[ti] && inResult) {
			for pi := range t.Ins {
				pp := &t.Ins[pi]
				if adoptsDense(pp) {
					continue
				}
				var out *Port
				if l.inPlace[ti] {
					out = &t.Outs[0]
				}
				l.ins[ti][pi] = newStorage(ti, pp.Region, out, !pp.covered())
			}
		}
		if !l.inPlace[ti] && !inResult {
			l.outs[ti] = make([]*storage, len(t.Outs))
			for pi := range t.Outs {
				// Transposed landing rewrites every output sample when the
				// transfers cover the input partition.
				clear := !l.transposes[ti] || !t.Ins[0].covered()
				l.outs[ti][pi] = newStorage(ti, t.Outs[pi].Region, &t.Outs[pi], clear)
			}
		}
	}
	return l
}

// covered reports whether the transfers of an input port, which lie inside
// its partition (Validate), write every sample of it (funclib.Covers).
func (p *Port) covered() bool {
	return funclib.Covers(p.Region, len(p.Xfers), func(i int) model.Region { return p.Xfers[i].Region })
}

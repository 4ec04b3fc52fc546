package funclib

import (
	"iter"
	"slices"
	"sync"

	"repro/internal/isspl"
	"repro/internal/model"
)

// The block lifecycle sagert and codegen/rtl share (DESIGN.md §14): an
// output block is fresh per iteration in sagert; in rtl it is one of the
// run's physical blocks, rewritten at a later iteration only once every
// reader of the last one has finished. It is never written after a send
// while that iteration's readers may still read it. A send hands over the
// producer's block itself, and the lane names the region it carries: the
// receiver copies that region out of the block (CopyRegion), through its
// pitch when the region is narrower than the block; a whole-partition
// receive adopts a region that lies densely in it (Adopt); a sink stores an
// iteration's payloads in the result once all have arrived; and inputs are
// read-only unless owned — so storage shared by several consumers is safe,
// and a thread that is its input block's only reader (OwnsAdopted) lets an
// InPlace kind transform it where it lies: the block goes on as the thread's
// output, still never written after a send.
//
// The plan places a block's samples before anything is written, by this
// file's rules. A thread whose storage's readers all precede a sink keeps it
// in the sink's result matrix (ResultBacked, ResultView), which the sink
// overwrites once they are done. A thread of a Transposes kind lands its
// payloads in the transposed view of its output block (LandsTransposed,
// TransposedView): the landing copy is the transpose. A block's layout is
// its (RowStride, ColStride) pair; only this file's views set it.

// ContiguousIn reports whether region reg occupies a contiguous range of a
// dense block covering blockReg: it must span the block's full width. The
// cost models charge a marshalling copy on the side where this is false; the
// host, sharing one address space, reads such a region through its pitch.
func ContiguousIn(reg, blockReg model.Region) bool {
	return reg.C0 == blockReg.C0 && reg.Cols == blockReg.Cols
}

// CopyRegion copies region reg from src into dst; both blocks must contain
// reg, in any layout. Row-major to row-major is a copy per row; between a
// row-major and a transposed layout it is isspl.TransposeTile; a source that
// already lies at its place in dst — the same samples in the same layout —
// is not copied at all.
func CopyRegion(dst, src *Block, reg model.Region) {
	if reg.Empty() {
		return
	}
	dOff, drs, dcs := dst.layout(reg)
	sOff, srs, scs := src.layout(reg)
	switch {
	case atPlace(dst, src, reg):
	case dcs <= 1 && scs <= 1:
		for range reg.Rows {
			copy(dst.Data[dOff:dOff+reg.Cols], src.Data[sOff:sOff+reg.Cols])
			dOff += drs
			sOff += srs
		}
	case drs <= 1 && scs <= 1:
		isspl.TransposeTile(dst.Data[dOff:], dcs, src.Data[sOff:], srs, reg.Rows, reg.Cols)
	case dcs <= 1 && srs <= 1:
		isspl.TransposeTile(dst.Data[dOff:], drs, src.Data[sOff:], scs, reg.Cols, reg.Rows)
	default:
		for i := range reg.Rows {
			for j := range reg.Cols {
				dst.Data[dOff+i*drs+j*dcs] = src.Data[sOff+i*srs+j*scs]
			}
		}
	}
}

// layout returns where non-empty region reg of b starts in Data and its
// strides, zero along an axis the region does not extend on: a stride there
// never applies.
func (b *Block) layout(reg model.Region) (off, rs, cs int) {
	rs, cs = b.strides()
	if reg.Rows == 1 {
		rs = 0
	}
	if reg.Cols == 1 {
		cs = 0
	}
	return b.offset(reg.R0, reg.C0), rs, cs
}

// atPlace reports whether non-empty region reg of src lies at its place in
// dst: the same samples in the same layout.
func atPlace(dst, src *Block, reg model.Region) bool {
	dOff, drs, dcs := dst.layout(reg)
	sOff, srs, scs := src.layout(reg)
	return &dst.Data[dOff] == &src.Data[sOff] && drs == srs && dcs == scs
}

// ExtractRegion returns region reg of blk as a view of blk's own storage, in
// blk's layout — dense when reg is contiguous in a dense blk, pitched when it
// is narrower, transposed when blk is — its capacity clipped to the region's
// last sample. It allocates no samples, only the view's header: a send does
// not call it (the payload is the producer's block), an adopting port does
// once per compute iteration when its region is a part of a wider block
// (Adopt). The caller must not write blk afterwards.
func ExtractRegion(blk *Block, reg model.Region) *Block {
	if reg.Empty() {
		return &Block{Region: reg, Data: blk.Data[:0:0]}
	}
	rs, cs := blk.strides()
	off := blk.offset(reg.R0, reg.C0)
	end := off + (reg.Rows-1)*rs + (reg.Cols-1)*cs + 1
	return &Block{Region: reg, Data: blk.Data[off:end:end], RowStride: int32(rs), ColStride: int32(cs)}
}

// TransposedView returns out's samples laid out as the transpose's: a block
// over region in, whose sample (r, c) is out's sample (c, r). out must cover
// the transpose of in (transposed). Landing a payload in the view writes it,
// transposed, into out; a Transposes kind handed the view as its input finds
// its output already written.
func TransposedView(out *Block, in model.Region) *Block {
	rs, cs := out.strides()
	off := out.offset(in.C0, in.R0)
	return &Block{Region: in, Data: out.Data[off:], RowStride: int32(cs), ColStride: int32(rs)}
}

// transposed returns the region of X^T that region r of X becomes.
func transposed(r model.Region) model.Region {
	return model.Region{R0: r.C0, C0: r.R0, Rows: r.Cols, Cols: r.Rows}
}

// LandsTransposed reports whether a thread of kind im, with input partition
// in and output partition out, lands its payloads in the transposed view of
// its output block: the kind Transposes and the partitions are each other's
// transpose (plan.Thread.Transposes).
func LandsTransposed(im *Impl, in, out model.Region) bool {
	return im.Transposes && out == transposed(in)
}

// A ResultThread is a thread as ResultBacked reads it: its function (shared
// by the function's threads), its storage's partition and its function's
// thread count (Threads 0: no storage of its own, or not one output port),
// its consumers, and its storage's readers, itself among them (plan.Storage).
type ResultThread struct {
	Fn, Threads int
	Part        model.Region
	Out         []int
	Readers     []int
}

// A ResultSink is a sink as ResultBacked reads it: its threads, its result's
// shape, and whether its threads' transfers cover the result (Covers).
type ResultSink struct {
	Threads    []int
	Rows, Cols int
	Covered    bool
}

// ResultBacked is the result-backing rule plan.Plan.Layouts applies: per
// thread, the sink whose result matrix holds its storage, or -1. A storage
// qualifies when each reader but its owner is a thread of the sink or a
// transitive producer of every sink thread: the owner writes it before
// sending a view of it, and a sink stores an iteration's payloads once all
// have arrived, after every reader has finished. Its partition must be the
// thread's own, not the whole result replicated, and span the result's
// width, so that its rows hold it densely (ResultView): kinds compute on
// dense blocks, and a strided sweep of a pitched view such as fft_cols's
// column stripe costs more than the copy it saves. A result holds one
// storage: the first function's in thread order read by the sink's threads
// alone, which then copies nothing; else, if the sink's transfers cover the
// result, the first qualifying function's.
func ResultBacked(ts []ResultThread, sinks []ResultSink) []int {
	result := make([]int, len(ts))
	for u := range result {
		result[u] = -1
	}
	for si, s := range sinks {
		// at marks the sink's threads 2 and the threads that reach all of them 1.
		at, reached := make([]uint8, len(ts)), make([]int, len(ts))
		for _, k := range s.Threads {
			reach := make([]bool, len(ts))
			reach[k], at[k] = true, 2
			for changed := true; changed; {
				changed = false
				for u, t := range slices.Backward(ts) {
					if !reach[u] && slices.ContainsFunc(t.Out, func(v int) bool { return reach[v] }) {
						reach[u], changed, reached[u] = true, true, reached[u]+1
						if reached[u] == len(s.Threads) {
							at[u] = max(at[u], 1)
						}
					}
				}
			}
		}
		whole, pick := model.Region{Rows: s.Rows, Cols: s.Cols}, -1
		for least := uint8(2); least > 0 && pick < 0; least-- {
			for u, t := range ts {
				fits := t.Part.C0 == 0 && t.Part.Cols == s.Cols && t.Part.R0 >= 0 && t.Part.R0+t.Part.Rows <= s.Rows &&
					t.Threads > 0 && !(t.Threads > 1 && t.Part == whole)
				if result[u] < 0 && fits && (least == 2 || s.Covered) && (pick < 0 || t.Fn == ts[pick].Fn) &&
					!slices.ContainsFunc(t.Readers, func(v int) bool { return v != u && at[v] < least }) {
					pick, result[u] = u, si
				}
			}
		}
	}
	return result
}

// ResultView returns region reg of the result matrix m as a block: the
// storage of a result-backed thread (ResultBacked), dense because reg spans
// m's full width.
func ResultView(m *isspl.Matrix, reg model.Region) *Block {
	return ExtractRegion(&Block{Region: model.Region{Rows: m.Rows, Cols: m.Cols}, Data: m.Data}, reg)
}

// Assemble lands region reg of payload src — the producer's block — in the
// input block dst and returns the block. A nil dst — the caller's choice for
// a port whose one transfer covers its whole partition — adopts a region that
// lies densely in src and takes a dense copy of a pitched one: kinds compute
// on dense blocks only.
func Assemble(dst, src *Block, reg model.Region) *Block {
	blk := Landing(dst, src, reg)
	CopyRegion(blk, src, reg)
	return blk
}

// Landing is Assemble's decision without its copy: the block region reg of
// payload src lands in — dst, or for a nil dst the region itself when it lies
// densely in src (Adopt) and a fresh dense block of it otherwise. The copy
// that follows (CopyRegion) finds an adopted region already at its place.
func Landing(dst, src *Block, reg model.Region) *Block {
	rs, cs := src.strides()
	switch {
	case dst != nil:
		return dst
	case reg.Empty() || rs == reg.Cols && cs == 1:
		return Adopt(src, reg)
	}
	return NewBlock(reg)
}

// Adopt returns region reg of src, which lies densely in src, as the block an
// adopting input port holds: src itself when reg is all of it, else a view
// of it (ExtractRegion) — the only header a receive allocates.
func Adopt(src *Block, reg model.Region) *Block {
	if reg == src.Region {
		return src
	}
	return ExtractRegion(src, reg)
}

// OwnsAdopted reports whether the block an adopting input port ends up
// holding is its thread's alone, so that an InPlace kind may write it. (A port
// that does not adopt always owns its block: Assemble fills a fresh one.) The
// port's one payload is region reg of the producer's block. Arriving pitched
// (dense false) it is copied dense, and the copy is the port's own; arriving
// dense it is adopted as it is, and is the port's own only if none of the
// producer port's other sends overlaps it — a second arc out of the port or a
// replicated consumer reads the same samples, and the view is shared.
func OwnsAdopted(dense bool, reg model.Region, otherSends iter.Seq[model.Region]) bool {
	if !dense {
		return true
	}
	for other := range otherSends {
		if !reg.Intersect(other).Empty() {
			return false
		}
	}
	return true
}

// StoreSink writes region reg of block b — a payload of a sink thread's
// input, or all of a block — into the assembled output matrix. A region that
// already lies at its place in target — a payload of a result-backed
// producer's storage (ResultBacked) — is there and is skipped; anything else
// is copied, through its layout. Replicated sink threads cover overlapping
// regions with identical data and may run concurrently (sample tasks,
// goroutines), so the copy is serialised on mu; writes are identical or
// disjoint by striping construction, so the order never changes the
// assembled bytes. A block without samples (a charge-only iteration) stores
// nothing.
func StoreSink(mu *sync.Mutex, target *isspl.Matrix, b *Block, reg model.Region) {
	dst := &Block{Region: model.Region{Rows: target.Rows, Cols: target.Cols}, Data: target.Data}
	if b.Data == nil || reg.Empty() || atPlace(dst, b, reg) {
		return
	}
	mu.Lock()
	defer mu.Unlock()
	CopyRegion(dst, b, reg)
}

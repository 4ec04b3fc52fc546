package funclib

import (
	"iter"
	"sync"

	"repro/internal/isspl"
	"repro/internal/model"
)

// The block lifecycle sagert and codegen/rtl share (DESIGN.md §14): an
// output block is fresh per iteration in sagert; in rtl it is one of the
// run's physical blocks, rewritten at a later iteration only once every
// reader of the last one has finished. It is never written after a send
// while that iteration's readers may still read it, every
// region travels as a view of its producer's block (pitched when the region
// is narrower than the block), a whole-partition receive adopts a dense
// payload, a sink's payloads land in the result as they arrive, and inputs
// are read-only unless owned — so storage shared by several consumers is
// safe, and a thread that is its input block's only reader (OwnsAdopted) lets
// an InPlace kind transform it where it lies: the block goes on as the
// thread's output, still never written after a send.

// ContiguousIn reports whether region reg occupies a contiguous range of a
// dense block covering blockReg: it must span the block's full width. The
// cost models charge a marshalling copy on the side where this is false; the
// host, sharing one address space, reads such a region through its pitch.
func ContiguousIn(reg, blockReg model.Region) bool {
	return reg.C0 == blockReg.C0 && reg.Cols == blockReg.Cols
}

// CopyRegion copies region reg from src into dst; both blocks must contain
// reg.
func CopyRegion(dst, src *Block, reg model.Region) {
	dstOff, dstPitch := dst.offset(reg.R0, reg.C0), dst.pitch()
	srcOff, srcPitch := src.offset(reg.R0, reg.C0), src.pitch()
	for i := 0; i < reg.Rows; i++ {
		copy(dst.Data[dstOff:dstOff+reg.Cols], src.Data[srcOff:srcOff+reg.Cols])
		dstOff += dstPitch
		srcOff += srcPitch
	}
}

// ExtractRegion returns region reg of blk as a view of blk's own storage:
// dense when reg is contiguous in blk, otherwise pitched like blk, its
// capacity clipped to the region's last row. It allocates no samples. The
// caller must not write blk afterwards.
func ExtractRegion(blk *Block, reg model.Region) *Block {
	if reg.Empty() {
		return &Block{Region: reg, Data: blk.Data[:0:0]}
	}
	pitch := blk.pitch()
	off := blk.offset(reg.R0, reg.C0)
	end := off + (reg.Rows-1)*pitch + reg.Cols
	return &Block{Region: reg, Data: blk.Data[off:end:end], Pitch: pitch}
}

// Assemble lands payload src in the input block dst and returns the block. A
// nil dst — the caller's choice for a port whose one transfer covers its whole
// partition — adopts a dense src itself and takes a dense copy of a pitched
// one: kinds compute on dense blocks only.
func Assemble(dst, src *Block) *Block {
	blk := Landing(dst, src)
	Land(blk, src)
	return blk
}

// Landing is Assemble's decision without its copy: the block payload src
// lands in — dst, or for a nil dst src itself when dense and a fresh dense
// block of its region otherwise.
func Landing(dst, src *Block) *Block {
	switch {
	case dst != nil:
		return dst
	case src.dense():
		return src
	}
	return NewBlock(src.Region)
}

// Land is Assemble's copy: it copies payload src into blk, the block Landing
// chose for it. An adopted payload is its own block and is already there.
func Land(blk, src *Block) {
	if blk != src {
		CopyRegion(blk, src, src.Region)
	}
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

// StoreSink writes a block — a sink thread's input, or one transfer of it —
// into the assembled output matrix. Replicated sink threads cover overlapping
// regions with identical data and may run concurrently (shards, goroutines),
// so the copy is serialised on mu; writes are identical or disjoint by
// striping construction, so the order never changes the assembled bytes. A
// block without samples (a charge-only iteration) stores nothing.
func StoreSink(mu *sync.Mutex, target *isspl.Matrix, b *Block) {
	if b.Data == nil {
		return
	}
	mu.Lock()
	defer mu.Unlock()
	cols, pitch := b.Region.Cols, b.pitch()
	dstOff := b.Region.R0*target.Cols + b.Region.C0
	for i := 0; i < b.Region.Rows; i++ {
		copy(target.Data[dstOff:dstOff+cols], b.Data[i*pitch:i*pitch+cols])
		dstOff += target.Cols
	}
}

package funclib

import (
	"sync"

	"repro/internal/isspl"
	"repro/internal/model"
)

// The block lifecycle sagert and codegen/rtl share (DESIGN.md §14): output
// blocks are fresh per iteration and never written after a send, contiguous
// regions travel as views, whole-partition receives adopt the payload, and
// inputs are read-only — so storage shared by several consumers is safe.

// ContiguousIn reports whether region reg occupies a contiguous range of a
// dense block covering blockReg: it must span the block's full width. Such
// regions are sent from or received into the logical buffer without a
// marshalling copy; the cost models charge the copy only when this is false.
func ContiguousIn(reg, blockReg model.Region) bool {
	return reg.C0 == blockReg.C0 && reg.Cols == blockReg.Cols
}

// CopyRegion copies region reg from src into dst; both blocks must contain
// reg.
func CopyRegion(dst, src *Block, reg model.Region) {
	for i := 0; i < reg.Rows; i++ {
		row := reg.R0 + i
		dstOff := (row-dst.Region.R0)*dst.Region.Cols + (reg.C0 - dst.Region.C0)
		srcOff := (row-src.Region.R0)*src.Region.Cols + (reg.C0 - src.Region.C0)
		copy(dst.Data[dstOff:dstOff+reg.Cols], src.Data[srcOff:srcOff+reg.Cols])
	}
}

// ExtractRegion returns region reg of blk as a dense block: a view of blk's
// own storage when reg is contiguous in blk, a packed copy otherwise. The
// caller must not write blk afterwards.
func ExtractRegion(blk *Block, reg model.Region) *Block {
	if ContiguousIn(reg, blk.Region) {
		off := (reg.R0 - blk.Region.R0) * blk.Region.Cols
		return &Block{Region: reg, Data: blk.Data[off : off+reg.Elems() : off+reg.Elems()]}
	}
	out := NewBlock(reg)
	CopyRegion(out, blk, reg)
	return out
}

// Assemble lands payload src in the input block dst and returns the block. A
// nil dst — the caller's choice for a port whose one transfer covers its whole
// partition — adopts src itself.
func Assemble(dst, src *Block) *Block {
	if dst == nil {
		return src
	}
	CopyRegion(dst, src, src.Region)
	return dst
}

// StoreSink writes a sink thread's block into the assembled output matrix.
// Replicated sink threads cover overlapping regions with identical data and
// may run concurrently (shards, goroutines), so the copy is serialised on mu;
// writes are identical or disjoint by striping construction, so the order
// never changes the assembled bytes. A block without samples (a charge-only
// iteration) stores nothing.
func StoreSink(mu *sync.Mutex, target *isspl.Matrix, b *Block) {
	if b.Data == nil {
		return
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < b.Region.Rows; i++ {
		row := b.Region.R0 + i
		copy(target.Data[row*target.Cols+b.Region.C0:], b.Data[i*b.Region.Cols:(i+1)*b.Region.Cols])
	}
}

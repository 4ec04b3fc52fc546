package funclib

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/isspl"
	"repro/internal/model"
)

// TestBlockIs64Bytes: the stride pair is two int32s so that a Block, which
// every message and every port plan carries, stays one cache line.
func TestBlockIs64Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Block{}); n != 64 {
		t.Fatalf("Block is %d bytes, want 64", n)
	}
}

// laidOut is a block in one of the layouts the runtimes make, with the
// brute-force definition of where its samples live: sample (r, c) is
// store[index(r, c)].
type laidOut struct {
	kind  string
	blk   *Block
	store []complex128
	index func(r, c int) int
}

// randomLayout lays region reg out as kind: dense (NewBlock), pitched (a
// region of a wider dense block), transposed (TransposedView of a dense
// block of the transposed region), or a transposed sub-view (ExtractRegion
// of a transposed view of a larger region). The storage is filled with
// distinct samples.
func randomLayout(rng *rand.Rand, kind string, reg model.Region) laidOut {
	grow := func(r model.Region) model.Region {
		top, left := rng.Intn(3), rng.Intn(3)
		return model.Region{R0: r.R0 - top, C0: r.C0 - left, Rows: r.Rows + top + rng.Intn(3), Cols: r.Cols + left + rng.Intn(3)}
	}
	fill := func(s []complex128) {
		for i := range s {
			s[i] = complex(float64(rng.Intn(1<<20)), float64(i))
		}
	}
	switch kind {
	case "dense":
		b := NewBlock(reg)
		fill(b.Data)
		return laidOut{kind, b, b.Data, func(r, c int) int { return (r-reg.R0)*reg.Cols + c - reg.C0 }}
	case "pitched":
		outer := grow(reg)
		wide := NewBlock(outer)
		fill(wide.Data)
		return laidOut{kind, ExtractRegion(wide, reg), wide.Data, func(r, c int) int { return (r-outer.R0)*outer.Cols + c - outer.C0 }}
	case "transposed":
		out := NewBlock(transposed(reg))
		fill(out.Data)
		return laidOut{kind, TransposedView(out, reg), out.Data, func(r, c int) int { return (c-reg.C0)*reg.Rows + r - reg.R0 }}
	}
	outer := grow(reg)
	out := NewBlock(transposed(outer))
	fill(out.Data)
	return laidOut{kind, ExtractRegion(TransposedView(out, outer), reg), out.Data,
		func(r, c int) int { return (c-outer.C0)*outer.Rows + r - outer.R0 }}
}

var layoutKinds = []string{"dense", "pitched", "transposed", "transposed-sub"}

// TestLayoutsMatchDefinition holds At, Set, ExtractRegion and CopyRegion to
// the brute-force index definition across every pair of layouts: At reads
// store[index(r, c)], Set writes it and nothing else, a view of a sub-region
// reads the same samples, and CopyRegion writes exactly the region's samples
// of the destination's storage, each with the source's sample.
func TestLayoutsMatchDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	within := func(outer model.Region) model.Region {
		rows, cols := 1+rng.Intn(outer.Rows), 1+rng.Intn(outer.Cols)
		return model.Region{R0: outer.R0 + rng.Intn(outer.Rows-rows+1), C0: outer.C0 + rng.Intn(outer.Cols-cols+1), Rows: rows, Cols: cols}
	}
	for trial := range 400 {
		reg := model.Region{R0: rng.Intn(5), C0: rng.Intn(5), Rows: 1 + rng.Intn(40), Cols: 1 + rng.Intn(40)}
		for _, dk := range layoutKinds {
			for _, sk := range layoutKinds {
				name := fmt.Sprintf("trial %d %v %s<-%s", trial, reg, dk, sk)
				dst, src := randomLayout(rng, dk, reg), randomLayout(rng, sk, reg)
				for r := reg.R0; r < reg.R0+reg.Rows; r++ {
					for c := reg.C0; c < reg.C0+reg.Cols; c++ {
						if dst.blk.At(r, c) != dst.store[dst.index(r, c)] {
							t.Fatalf("%s: At(%d,%d) is not the defined sample", name, r, c)
						}
					}
				}
				sub := within(reg)
				view := ExtractRegion(src.blk, sub)
				for r := sub.R0; r < sub.R0+sub.Rows; r++ {
					for c := sub.C0; c < sub.C0+sub.Cols; c++ {
						if view.At(r, c) != src.store[src.index(r, c)] {
							t.Fatalf("%s: view of %v reads another sample at (%d,%d)", name, sub, r, c)
						}
					}
				}
				if !view.dense() && src.kind == "dense" && ContiguousIn(sub, reg) {
					t.Fatalf("%s: contiguous view of a dense block is not dense", name)
				}

				want := append([]complex128(nil), dst.store...)
				for r := sub.R0; r < sub.R0+sub.Rows; r++ {
					for c := sub.C0; c < sub.C0+sub.Cols; c++ {
						want[dst.index(r, c)] = src.store[src.index(r, c)]
					}
				}
				CopyRegion(dst.blk, src.blk, sub)
				if !sameBits(dst.store, want) {
					t.Fatalf("%s: CopyRegion of %v wrote other samples than the definition's", name, sub)
				}

				r, c := sub.R0+rng.Intn(sub.Rows), sub.C0+rng.Intn(sub.Cols)
				want[dst.index(r, c)] = complex(-1, -1)
				dst.blk.Set(r, c, complex(-1, -1))
				if !sameBits(dst.store, want) {
					t.Fatalf("%s: Set(%d,%d) wrote other samples than the definition's", name, r, c)
				}
			}
		}
	}
}

// TestStoreSinkSkipsWhatIsInPlace: a payload that is a view of the target at
// its own place (a result-backed producer's send) is skipped — StoreSink
// returns without waiting for the sink mutex — while a payload in the same
// backing array at another offset, or at its own offset under another pitch,
// is copied like any other.
func TestStoreSinkSkipsWhatIsInPlace(t *testing.T) {
	m := isspl.NewMatrix(6, 5)
	for i := range m.Data {
		m.Data[i] = complex(float64(i), 0)
	}
	var mu sync.Mutex
	rows := model.Region{R0: 2, Rows: 2, Cols: 5}

	mu.Lock()
	done := make(chan struct{})
	go func() {
		StoreSink(&mu, m, ResultView(m, rows), rows)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a payload at its place waited for the sink mutex: it was not skipped")
	}
	mu.Unlock()

	before := append([]complex128(nil), m.Data...)
	// The same backing array, two rows further down: rows 4–5 land in 2–3.
	StoreSink(&mu, m, &Block{Region: rows, Data: m.Data[20:30]}, rows)
	for i := 10; i < 20; i++ {
		if m.Data[i] != before[i+10] {
			t.Fatalf("payload at another offset not copied: sample %d is %v, want %v", i, m.Data[i], before[i+10])
		}
	}

	// At its own first sample but rows 2 apart instead of 5: copied through
	// its pitch.
	copy(m.Data, before)
	tile := model.Region{Rows: 2, Cols: 2}
	StoreSink(&mu, m, &Block{Region: tile, Data: m.Data[:4], RowStride: 2, ColStride: 1}, tile)
	if want := []complex128{before[0], before[1], before[2], before[3]}; m.Data[0] != want[0] || m.Data[1] != want[1] ||
		m.Data[5] != want[2] || m.Data[6] != want[3] {
		t.Fatalf("payload at another pitch not copied: got %v %v / %v %v", m.Data[0], m.Data[1], m.Data[5], m.Data[6])
	}
}

package funclib

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/isspl"
	"repro/internal/model"
)

// readOnlyCases gives every registered kind a whole-matrix invocation on an
// 8x8 input. The runtimes hand one payload to several consumers as views of
// the producer's storage, which is only sound while no kind writes an input
// it was not handed as its output too — and only the kinds marked inPlace
// here may ever be handed that: a kind that reads samples it has already
// overwritten (the FIRs' history, transpose_block's scatter) or takes two
// inputs (add2) must not declare InPlace.
var readOnlyCases = map[string]struct {
	params  map[string]any
	outCols int // 0: same shape as the input
	inPlace bool
}{
	"add2":              {},
	"fft_cols":          {inPlace: true},
	"fft_rows":          {inPlace: true},
	"fir_decimate_rows": {params: map[string]any{"ntaps": 5, "factor": 2}, outCols: 4},
	"fir_rows":          {params: map[string]any{"ntaps": 5}},
	"identity":          {inPlace: true},
	"mag2":              {inPlace: true},
	"scale":             {params: map[string]any{"factor": -2.5}, inPlace: true},
	"sink_matrix":       {},
	"source_matrix":     {params: map[string]any{"seed": 3}},
	"transpose_block":   {},
	"window_rows":       {params: map[string]any{"window": "hamming"}, inPlace: true},
}

func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

func TestComputeLeavesInputsUntouched(t *testing.T) {
	const n = 8
	for _, kind := range Kinds() {
		tc, ok := readOnlyCases[kind]
		if !ok {
			t.Errorf("kind %s has no read-only case: add one", kind)
			continue
		}
		im, err := Lookup(kind)
		if err != nil {
			t.Fatal(err)
		}
		if im.InPlace != tc.inPlace {
			t.Errorf("kind %s declares InPlace %v, the table says %v", kind, im.InPlace, tc.inPlace)
		}
		if im.InPlace && (len(im.In) != 1 || im.In[0].Name != "in" || len(im.Out) != 1 || im.Out[0].Name != "out") {
			t.Errorf("kind %s declares InPlace without being one \"in\" onto one \"out\"", kind)
		}
		in, before := make([]*Block, len(im.In)), make([][]complex128, len(im.In))
		for i := range im.In {
			in[i] = NewBlock(model.Region{Rows: n, Cols: n})
			FillSource(in[i], int64(40+i), 0)
			before[i] = append([]complex128(nil), in[i].Data...)
		}
		out := make([]*Block, len(im.Out))
		for i := range im.Out {
			cols := n
			if tc.outCols > 0 {
				cols = tc.outCols
			}
			out[i] = NewBlock(model.Region{Rows: n, Cols: cols})
		}
		ctx := &Context{FuncName: kind, Params: tc.params, Threads: 1,
			Sink: func(string, *Block) {}}
		if err := im.Compute(ctx, in, out); err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		for i, b := range in {
			if !sameBits(b.Data, before[i]) {
				t.Errorf("kind %s wrote its input port %q", kind, im.In[i].Name)
			}
		}
	}
}

// specialSamples overwrites about every seventh part of data with a signed
// zero, an infinity, a NaN (one with a payload) or a subnormal.
func specialSamples(rng *rand.Rand, data []complex128) {
	values := []float64{
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8dead0000beef),
		math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
	}
	for i := range data {
		re, im := real(data[i]), imag(data[i])
		if rng.Intn(7) == 0 {
			re = values[rng.Intn(len(values))]
		}
		if rng.Intn(7) == 0 {
			im = values[rng.Intn(len(values))]
		}
		data[i] = complex(re, im)
	}
}

// TestInPlaceComputeEqualsFreshOutput: handed its input block as its output
// block, an InPlace kind leaves in it exactly the bits it would have written
// to a fresh output block — over random regions (anywhere in a larger matrix,
// as a striped thread's partition is), parameters and special values. The two
// calls run the same arithmetic on the same operands in the same order, so
// the comparison is bit for bit, NaN payloads included.
func TestInPlaceComputeEqualsFreshOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	windows := []string{"rect", "hann", "hamming", "blackman", "kaiser"}
	for _, kind := range Kinds() {
		im, err := Lookup(kind)
		if err != nil {
			t.Fatal(err)
		}
		if !im.InPlace {
			continue
		}
		for trial := 0; trial < 60; trial++ {
			reg := model.Region{R0: rng.Intn(5), C0: rng.Intn(5), Rows: 1 << rng.Intn(5), Cols: 1 << rng.Intn(5)}
			if trial%4 == 0 && kind != "fft_rows" && kind != "fft_cols" {
				reg.Rows, reg.Cols = 1+rng.Intn(9), 1+rng.Intn(9) // no transform: any shape
			}
			ctx := &Context{FuncName: kind, Threads: 1, Iteration: trial, Params: map[string]any{
				"factor": []float64{0.5, -2.5, 0, 1}[rng.Intn(4)],
				"window": windows[rng.Intn(len(windows))],
			}}
			src := NewBlock(reg)
			FillSource(src, int64(trial), 0)
			if trial%2 == 1 {
				specialSamples(rng, src.Data)
			}
			fresh := NewBlock(reg)
			if err := im.Compute(ctx, []*Block{src}, []*Block{fresh}); err != nil {
				t.Fatalf("%s %v: %v", kind, reg, err)
			}
			aliased := &Block{Region: reg, Data: append([]complex128(nil), src.Data...)}
			if err := im.Compute(ctx, []*Block{aliased}, []*Block{aliased}); err != nil {
				t.Fatalf("%s %v in place: %v", kind, reg, err)
			}
			if !sameBits(aliased.Data, fresh.Data) {
				t.Fatalf("%s %v %v: in place and fresh-output results differ", kind, reg, ctx.Params)
			}
		}
	}
}

// dense reports whether the block is laid out dense and row-major, as kinds
// index it: a view is dense exactly when its region is contiguous
// (ContiguousIn) in the dense block it was extracted from.
func (b *Block) dense() bool {
	rs, cs := b.strides()
	return rs == b.Region.Cols && cs == 1
}

// TestExtractRegionViewsContiguousAndStrided: a region's view is a view of
// the block in both cases — tight when the region spans the block's width,
// pitched like the block when it does not — and never a packed copy.
func TestExtractRegionViewsContiguousAndStrided(t *testing.T) {
	blk := NewBlock(model.Region{R0: 4, C0: 2, Rows: 4, Cols: 6})
	FillSource(blk, 5, 0)

	rows := model.Region{R0: 5, C0: 2, Rows: 2, Cols: 6}
	if !ContiguousIn(rows, blk.Region) {
		t.Fatal("full-width rows not contiguous")
	}
	view := ExtractRegion(blk, rows)
	if &view.Data[0] != &blk.Data[6] || len(view.Data) != 12 || cap(view.Data) != 12 || !view.dense() {
		t.Fatalf("contiguous region is not a tight dense view of the block (len %d cap %d pitch %d)",
			len(view.Data), cap(view.Data), view.RowStride)
	}

	tile := model.Region{R0: 5, C0: 4, Rows: 2, Cols: 3}
	if ContiguousIn(tile, blk.Region) {
		t.Fatal("column tile reported contiguous")
	}
	pitched := ExtractRegion(blk, tile)
	// Row 5 of the block starts at 6, column 4 is 2 in; the view ends with
	// the tile's last row, one pitch further on.
	if &pitched.Data[0] != &blk.Data[8] || pitched.RowStride != 6 || pitched.dense() {
		t.Fatalf("strided region is not a pitched view of the block (pitch %d)", pitched.RowStride)
	}
	if want := 6 + 3; len(pitched.Data) != want || cap(pitched.Data) != want {
		t.Fatalf("pitched view not clipped to its last row: len %d cap %d, want %d", len(pitched.Data), cap(pitched.Data), want)
	}
	for r := tile.R0; r < tile.R0+tile.Rows; r++ {
		for c := tile.C0; c < tile.C0+tile.Cols; c++ {
			if pitched.At(r, c) != blk.At(r, c) {
				t.Fatalf("pitched view wrong at (%d,%d)", r, c)
			}
		}
	}
	blk.Set(6, 5, 99)
	if pitched.At(6, 5) != 99 {
		t.Fatal("pitched view does not alias the block")
	}

	if one := ExtractRegion(blk, model.Region{R0: 7, C0: 7, Rows: 1, Cols: 1}); one.At(7, 7) != blk.At(7, 7) || len(one.Data) != 1 {
		t.Fatalf("last sample of the block: %d samples, value %v", len(one.Data), one.At(7, 7))
	}
	if empty := ExtractRegion(blk, model.Region{}); len(empty.Data) != 0 {
		t.Fatalf("empty region carries %d samples", len(empty.Data))
	}

	// Neither case allocates sample storage: a view is its header.
	big := NewBlock(model.Region{Rows: 256, Cols: 256})
	for _, reg := range []model.Region{{R0: 64, Rows: 64, Cols: 256}, {C0: 64, Rows: 256, Cols: 64}} {
		before := allocatedBytes()
		sent := ExtractRegion(big, reg)
		if got := allocatedBytes() - before; got > 256 {
			t.Fatalf("ExtractRegion(%v) allocates %d bytes for a %d-byte region", reg, got, reg.Elems()*16)
		}
		runtime.KeepAlive(sent)
	}
}

func allocatedBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// packRegion is ExtractRegion as it was before sends became views: a view when
// the region is contiguous in the block, a packed dense copy otherwise. Kept
// as the reference the pitched path is held to.
func packRegion(blk *Block, reg model.Region) *Block {
	if ContiguousIn(reg, blk.Region) {
		off := (reg.R0 - blk.Region.R0) * blk.Region.Cols
		return &Block{Region: reg, Data: blk.Data[off : off+reg.Elems() : off+reg.Elems()]}
	}
	out := NewBlock(reg)
	for i := 0; i < reg.Rows; i++ {
		off := (reg.R0+i-blk.Region.R0)*blk.Region.Cols + (reg.C0 - blk.Region.C0)
		copy(out.Data[i*reg.Cols:(i+1)*reg.Cols], blk.Data[off:off+reg.Cols])
	}
	return out
}

// TestPitchedAssembleEqualsPackedAssemble: over random blocks and regions,
// what a consumer holds after receiving a region of the producer's block —
// assembled into a larger partition, adopted whole, or stored by a sink — is
// bit for bit what it held when the producer packed a tile first.
func TestPitchedAssembleEqualsPackedAssemble(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	within := func(outer model.Region) model.Region {
		rows, cols := 1+rng.Intn(outer.Rows), 1+rng.Intn(outer.Cols)
		return model.Region{
			R0: outer.R0 + rng.Intn(outer.Rows-rows+1), C0: outer.C0 + rng.Intn(outer.Cols-cols+1),
			Rows: rows, Cols: cols,
		}
	}
	var mu sync.Mutex
	for trial := 0; trial < 500; trial++ {
		// A data set, the producer's partition of it, the consumer's partition
		// inside that, and one transfer inside both.
		set := model.Region{Rows: 1 + rng.Intn(24), Cols: 1 + rng.Intn(24)}
		src := NewBlock(within(set))
		FillSource(src, int64(trial), trial%3)
		part := within(src.Region)
		xfer := within(part)
		view, packed := ExtractRegion(src, xfer), packRegion(src, xfer)
		if view.dense() != ContiguousIn(xfer, src.Region) {
			t.Fatalf("trial %d: %v of %v: dense %v", trial, xfer, src.Region, view.dense())
		}

		got, want := Assemble(NewBlock(part), src, xfer), Assemble(NewBlock(part), packed, xfer)
		if !sameBits(got.Data, want.Data) {
			t.Fatalf("trial %d: assembling %v of %v into %v differs from the packed path", trial, xfer, src.Region, part)
		}
		adopted := Assemble(nil, src, xfer)
		if !adopted.dense() || adopted.Region != xfer || !sameBits(adopted.Data[:xfer.Elems()], packed.Data) {
			t.Fatalf("trial %d: adopting %v of %v differs from the packed path", trial, xfer, src.Region)
		}
		gm, wm := isspl.NewMatrix(set.Rows, set.Cols), isspl.NewMatrix(set.Rows, set.Cols)
		StoreSink(&mu, gm, src, xfer)
		StoreSink(&mu, wm, packed, xfer)
		if !sameBits(gm.Data, wm.Data) {
			t.Fatalf("trial %d: storing %v of %v differs from the packed path", trial, xfer, src.Region)
		}
	}
}

func TestAssembleAdoptsOrCopies(t *testing.T) {
	whole := model.Region{Rows: 4, Cols: 4}
	src := NewBlock(whole)
	FillSource(src, 6, 0)
	if got := Assemble(nil, src, whole); got != src {
		t.Fatal("nil destination did not adopt the payload")
	}
	dst := NewBlock(whole)
	halfReg := model.Region{R0: 2, Rows: 2, Cols: 4}
	if got := Assemble(dst, src, halfReg); got != dst {
		t.Fatal("assembly returned a different block")
	}
	if !sameBits(dst.Data[8:], src.Data[8:]) || dst.Data[0] != 0 {
		t.Fatal("payload landed in the wrong rows")
	}
	if got := Assemble(nil, src, halfReg); got.Region != halfReg || !got.dense() || &got.Data[0] != &src.Data[8] || len(got.Data) != 8 {
		t.Fatal("nil destination did not adopt a contiguous region as a view")
	}

	// A whole-partition port handed a pitched region (a column stripe of a
	// wider producer) gets a dense copy: kinds index their inputs densely.
	stripeReg := model.Region{C0: 1, Rows: 4, Cols: 2}
	got := Assemble(nil, src, stripeReg)
	if !got.dense() || got.Region != stripeReg || len(got.Data) != 8 {
		t.Fatalf("pitched payload adopted as is (pitch %d, %d samples)", got.RowStride, len(got.Data))
	}
	for r := 0; r < 4; r++ {
		for c := 1; c < 3; c++ {
			if got.Data[r*2+c-1] != src.At(r, c) {
				t.Fatalf("dense copy wrong at (%d,%d)", r, c)
			}
		}
	}
	got.Data[0] = 99
	if src.At(0, 1) == 99 {
		t.Fatal("dense copy aliases the producer's block")
	}
}

func TestStoreSinkSkipsChargeOnlyBlocks(t *testing.T) {
	var mu sync.Mutex
	m := isspl.NewMatrix(4, 4)
	StoreSink(&mu, m, &Block{Region: model.Region{Rows: 4, Cols: 4}}, model.Region{Rows: 4, Cols: 4})
	b := NewBlock(model.Region{R0: 1, C0: 2, Rows: 2, Cols: 2})
	FillSource(b, 8, 0)
	StoreSink(&mu, m, b, b.Region)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			want := complex128(0)
			if r >= 1 && r < 3 && c >= 2 {
				want = b.At(r, c)
			}
			if m.Data[r*4+c] != want {
				t.Fatalf("matrix (%d,%d) = %v, want %v", r, c, m.Data[r*4+c], want)
			}
		}
	}
}

// TestStoreSinkPitchedAndReplicated: payloads land in the result as they
// arrive — pitched regions of a wider producer block included — and replicated
// sink threads storing overlapping regions concurrently leave the same bytes
// in any order.
func TestStoreSinkPitchedAndReplicated(t *testing.T) {
	const n = 8
	whole := model.Region{Rows: n, Cols: n}
	src := NewBlock(whole)
	FillSource(src, 9, 2)
	var mu sync.Mutex

	m := isspl.NewMatrix(n, n)
	for c0 := 0; c0 < n; c0 += 2 { // four column stripes, each pitched in the block
		StoreSink(&mu, m, src, model.Region{C0: c0, Rows: n, Cols: 2})
	}
	if !sameBits(m.Data, src.Data) {
		t.Fatal("pitched stripes did not assemble the source")
	}

	// Two replicated threads each receive the whole matrix as row halves and
	// quadrant tiles; every sample is stored at least twice.
	m = isspl.NewMatrix(n, n)
	var wg sync.WaitGroup
	for _, regs := range [][]model.Region{
		{{Rows: n / 2, Cols: n}, {R0: n / 2, Rows: n / 2, Cols: n}},
		{{Rows: n / 2, Cols: n / 2}, {C0: n / 2, Rows: n / 2, Cols: n / 2},
			{R0: n / 2, Rows: n / 2, Cols: n / 2}, {R0: n / 2, C0: n / 2, Rows: n / 2, Cols: n / 2}},
		{whole},
	} {
		wg.Add(1)
		go func(regs []model.Region) {
			defer wg.Done()
			for _, reg := range regs {
				StoreSink(&mu, m, src, reg)
			}
		}(regs)
	}
	wg.Wait()
	if !sameBits(m.Data, src.Data) {
		t.Fatal("replicated overlapping stores did not assemble the source")
	}
}

// sourceValueRef is SourceValue as first written, every hash chained per
// element: the definition of the source data set.
func sourceValueRef(seed int64, iteration, row, col int) complex128 {
	mix := func(h uint64) uint64 {
		// splitmix64 finalizer.
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
		return h
	}
	h := mix(uint64(seed)*0x9e3779b97f4a7c15 + uint64(iteration+1))
	h = mix(h ^ uint64(row)*0xd6e8feb86659fd93)
	h = mix(h ^ uint64(col)*0xa0761d6478bd642f)
	toUnit := func(bits uint32) float64 { return float64(bits)/float64(1<<31) - 1 }
	return complex(toUnit(uint32(h>>32)), toUnit(uint32(h)))
}

// TestFillSourceMatchesSourceValue holds the hoisted fill to the per-element
// SourceValue, and both to the definition, bit for bit.
func TestFillSourceMatchesSourceValue(t *testing.T) {
	for _, reg := range []model.Region{
		{Rows: 1, Cols: 1}, {R0: 3, C0: 5, Rows: 7, Cols: 11}, {R0: 1000, C0: 13, Rows: 3, Cols: 129},
		{R0: 17, Rows: 5, Cols: 1}, {C0: 1 << 20, Rows: 2, Cols: 9},
	} {
		for _, seed := range []int64{1, 0, -1, -987654321, 1 << 62} {
			for _, iter := range []int{0, 1, 1000} {
				b := NewBlock(reg)
				FillSource(b, seed, iter)
				for r := reg.R0; r < reg.R0+reg.Rows; r++ {
					for c := reg.C0; c < reg.C0+reg.Cols; c++ {
						want := []complex128{sourceValueRef(seed, iter, r, c)}
						if got := b.At(r, c); !sameBits([]complex128{got}, want) {
							t.Fatalf("region %v seed %d iteration %d: FillSource (%d,%d) = %v, want %v", reg, seed, iter, r, c, got, want[0])
						}
						if got := SourceValue(seed, iter, r, c); !sameBits([]complex128{got}, want) {
							t.Fatalf("seed %d iteration %d: SourceValue (%d,%d) = %v, want %v", seed, iter, r, c, got, want[0])
						}
					}
				}
			}
		}
	}
}

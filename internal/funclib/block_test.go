package funclib

import (
	"math"
	"sync"
	"testing"

	"repro/internal/isspl"
	"repro/internal/model"
)

// readOnlyCases gives every registered kind a whole-matrix invocation on an
// 8x8 input. The runtimes hand one payload to several consumers as views of
// the producer's storage, which is only sound while no kind writes an input.
var readOnlyCases = map[string]struct {
	params  map[string]any
	outCols int // 0: same shape as the input
}{
	"add2":              {},
	"fft_cols":          {},
	"fft_rows":          {},
	"fir_decimate_rows": {params: map[string]any{"ntaps": 5, "factor": 2}, outCols: 4},
	"fir_rows":          {params: map[string]any{"ntaps": 5}},
	"identity":          {},
	"mag2":              {},
	"scale":             {params: map[string]any{"factor": -2.5}},
	"sink_matrix":       {},
	"source_matrix":     {params: map[string]any{"seed": 3}},
	"transpose_block":   {},
	"window_rows":       {params: map[string]any{"window": "hamming"}},
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
		in, before := map[string]*Block{}, map[string][]complex128{}
		for i, req := range im.In {
			b := NewBlock(model.Region{Rows: n, Cols: n})
			FillSource(b, int64(40+i), 0)
			in[req.Name] = b
			before[req.Name] = append([]complex128(nil), b.Data...)
		}
		out := map[string]*Block{}
		for _, req := range im.Out {
			cols := n
			if tc.outCols > 0 {
				cols = tc.outCols
			}
			out[req.Name] = NewBlock(model.Region{Rows: n, Cols: cols})
		}
		ctx := &Context{FuncName: kind, Params: tc.params, Threads: 1,
			Sink: func(string, *Block) {}}
		if err := im.Compute(ctx, in, out); err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		for name, b := range in {
			if !sameBits(b.Data, before[name]) {
				t.Errorf("kind %s wrote its input port %q", kind, name)
			}
		}
	}
}

func TestExtractRegionViewsContiguousPacksStrided(t *testing.T) {
	blk := NewBlock(model.Region{R0: 4, C0: 2, Rows: 4, Cols: 6})
	FillSource(blk, 5, 0)
	want := append([]complex128(nil), blk.Data...)

	rows := model.Region{R0: 5, C0: 2, Rows: 2, Cols: 6}
	if !ContiguousIn(rows, blk.Region) {
		t.Fatal("full-width rows not contiguous")
	}
	view := ExtractRegion(blk, rows)
	if &view.Data[0] != &blk.Data[6] || len(view.Data) != 12 || cap(view.Data) != 12 {
		t.Fatalf("contiguous region is not a tight view of the block (len %d cap %d)", len(view.Data), cap(view.Data))
	}

	tile := model.Region{R0: 5, C0: 4, Rows: 2, Cols: 3}
	if ContiguousIn(tile, blk.Region) {
		t.Fatal("column tile reported contiguous")
	}
	packed := ExtractRegion(blk, tile)
	for r := tile.R0; r < tile.R0+tile.Rows; r++ {
		for c := tile.C0; c < tile.C0+tile.Cols; c++ {
			if packed.At(r, c) != blk.At(r, c) {
				t.Fatalf("packed tile wrong at (%d,%d)", r, c)
			}
		}
	}
	packed.Data[0] = 99
	if !sameBits(blk.Data, want) {
		t.Fatal("packed tile aliases the block")
	}
}

func TestAssembleAdoptsOrCopies(t *testing.T) {
	whole := model.Region{Rows: 4, Cols: 4}
	src := NewBlock(whole)
	FillSource(src, 6, 0)
	if got := Assemble(nil, src); got != src {
		t.Fatal("nil destination did not adopt the payload")
	}
	dst := NewBlock(whole)
	half := ExtractRegion(src, model.Region{R0: 2, Rows: 2, Cols: 4})
	if got := Assemble(dst, half); got != dst {
		t.Fatal("assembly returned a different block")
	}
	if !sameBits(dst.Data[8:], src.Data[8:]) || dst.Data[0] != 0 {
		t.Fatal("payload landed in the wrong rows")
	}
}

func TestStoreSinkSkipsChargeOnlyBlocks(t *testing.T) {
	var mu sync.Mutex
	m := isspl.NewMatrix(4, 4)
	StoreSink(&mu, m, &Block{Region: model.Region{Rows: 4, Cols: 4}})
	b := NewBlock(model.Region{R0: 1, C0: 2, Rows: 2, Cols: 2})
	FillSource(b, 8, 0)
	StoreSink(&mu, m, b)
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

package isspl

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestTransposeSquareInvolution(t *testing.T) {
	for _, n := range []int{1, 2, 3, 31, 32, 33, 100, 256} {
		m := TestMatrix(n, int64(n))
		orig := m.Clone()
		TransposeSquare(m.Data, n)
		TransposeSquare(m.Data, n)
		if d := m.MaxDiff(orig); d != 0 {
			t.Fatalf("n=%d: double transpose differs by %g", n, d)
		}
	}
}

func TestTransposeSquareCorrect(t *testing.T) {
	const n = 70 // crosses block boundaries
	m := TestMatrix(n, 9)
	orig := m.Clone()
	TransposeSquare(m.Data, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if m.At(r, c) != orig.At(c, r) {
				t.Fatalf("(%d,%d) = %v, want %v", r, c, m.At(r, c), orig.At(c, r))
			}
		}
	}
}

func TestTransposeRectangular(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {2, 3}, {3, 2}, {33, 65}, {64, 32}, {5, 100}} {
		rows, cols := shape[0], shape[1]
		src := randComplex(rows*cols, int64(rows*100+cols))
		dst := make([]complex128, rows*cols)
		Transpose(dst, src, rows, cols)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if dst[c*rows+r] != src[r*cols+c] {
					t.Fatalf("%dx%d: (%d,%d) mismatch", rows, cols, r, c)
				}
			}
		}
	}
}

func TestTransposePanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Transpose(make([]complex128, 5), make([]complex128, 6), 2, 3)
}

func TestGatherScatterTileRoundTrip(t *testing.T) {
	// Property: corner-turning a matrix tile-by-tile via
	// GatherTile + ScatterTileTransposed equals a full transpose.
	check := func(seedRaw uint32, pRaw uint8) bool {
		n := 16
		p := 1 << (pRaw % 3) // 1, 2, or 4 tiles per side
		tile := n / p
		src := randComplex(n*n, int64(seedRaw))
		dst := make([]complex128, n*n)
		buf := make([]complex128, tile*tile)
		for bi := 0; bi < p; bi++ {
			for bj := 0; bj < p; bj++ {
				GatherTile(buf, src, n, n, bi*tile, bj*tile, tile, tile)
				ScatterTileTransposed(dst, buf, n, bj*tile, bi*tile, tile, tile)
			}
		}
		want := make([]complex128, n*n)
		Transpose(want, src, n, n)
		return MaxDiff(dst, want) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGatherTileContents(t *testing.T) {
	const rows, cols = 8, 10
	src := make([]complex128, rows*cols)
	for i := range src {
		src[i] = complex(float64(i), 0)
	}
	buf := make([]complex128, 6)
	GatherTile(buf, src, rows, cols, 2, 3, 2, 3)
	want := []complex128{23, 24, 25, 33, 34, 35}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("buf = %v, want %v", buf, want)
		}
	}
}

func TestGatherTileBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	GatherTile(make([]complex128, 100), make([]complex128, 16), 4, 4, 2, 2, 3, 3)
}

func TestScatterTileTransposedBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ScatterTileTransposed(make([]complex128, 16), make([]complex128, 16), 4, 3, 0, 2, 2)
}

func TestMatrixHelpers(t *testing.T) {
	m := NewMatrix(3, 4)
	m.Set(1, 2, 5+6i)
	if m.At(1, 2) != 5+6i {
		t.Fatal("Set/At broken")
	}
	if len(m.Row(1)) != 4 || m.Row(1)[2] != 5+6i {
		t.Fatal("Row broken")
	}
	if len(m.RowBlock(1, 2)) != 8 {
		t.Fatal("RowBlock broken")
	}
	tr := m.Transposed()
	if tr.Rows != 4 || tr.Cols != 3 || tr.At(2, 1) != 5+6i {
		t.Fatal("Transposed broken")
	}
	cl := m.Clone()
	cl.Set(0, 0, 1)
	if m.At(0, 0) == 1 {
		t.Fatal("Clone aliases")
	}
	if m.MaxDiff(m) != 0 {
		t.Fatal("MaxDiff self not zero")
	}
}

func TestTestMatrixDeterministic(t *testing.T) {
	a := TestMatrix(16, 42)
	b := TestMatrix(16, 42)
	if a.MaxDiff(b) != 0 {
		t.Fatal("TestMatrix not deterministic")
	}
	c := TestMatrix(16, 43)
	if a.MaxDiff(c) == 0 {
		t.Fatal("different seeds produced identical matrices")
	}
}

func TestCostModelsMonotone(t *testing.T) {
	if FFTFlops(1024) <= FFTFlops(512) {
		t.Fatal("FFT flops not monotone")
	}
	if FFTFlops(1) != 0 {
		t.Fatal("FFT flops of trivial size should be 0")
	}
	if FFT2DFlops(256) != 2*256*FFTFlops(256) {
		t.Fatal("FFT2D flops formula")
	}
	if TransposeBytes(4, 8, 8) != 512 {
		t.Fatalf("TransposeBytes = %d", TransposeBytes(4, 8, 8))
	}
	if FIRFlops(100, 16) != 4*100*16 {
		t.Fatal("FIRFlops formula")
	}
	for _, f := range []float64{FFTRowsFlops(4, 256), VectorOpFlops(10), WindowFlops(10)} {
		if f <= 0 {
			t.Fatal("zero cost for nontrivial op")
		}
	}
}

func ExampleTransposeSquare() {
	data := []complex128{1, 2, 3, 4}
	TransposeSquare(data, 2)
	fmt.Println(data)
	// Output: [(1+0i) (3+0i) (2+0i) (4+0i)]
}

// naiveTranspose is the unblocked reference the blocked kernels are
// benchmarked against (and verified equivalent to).
func naiveTranspose(dst, src []complex128, rows, cols int) {
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			dst[j*rows+i] = src[i*cols+j]
		}
	}
}

// fillSeq deterministically fills a rows x cols buffer for the
// blocked-vs-naive comparisons.
func fillSeq(rows, cols int) []complex128 {
	data := make([]complex128, rows*cols)
	for i := range data {
		data[i] = complex(float64(i%97), float64(i%89))
	}
	return data
}

func TestTransposeMatchesNaive(t *testing.T) {
	for _, sz := range [][2]int{{64, 64}, {96, 128}, {33, 65}} {
		rows, cols := sz[0], sz[1]
		src := fillSeq(rows, cols)
		got := make([]complex128, rows*cols)
		want := make([]complex128, rows*cols)
		Transpose(got, src, rows, cols)
		naiveTranspose(want, src, rows, cols)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%dx%d: blocked transpose diverges from naive at %d", rows, cols, i)
			}
		}
	}
}

// BenchmarkTranspose compares the cache-blocked out-of-place transpose with
// the naive sweep at a corner-turn-sized matrix; the blocked version must
// win on large matrices (that is the point of the tiling).
func BenchmarkTranspose(b *testing.B) {
	const n = 1024
	src := fillSeq(n, n)
	dst := make([]complex128, n*n)
	b.Run("blocked", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Transpose(dst, src, n, n)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			naiveTranspose(dst, src, n, n)
		}
	})
}

func BenchmarkTransposeSquareInPlace(b *testing.B) {
	const n = 1024
	data := fillSeq(n, n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TransposeSquare(data, n)
	}
}

// BenchmarkScatterTileTransposed exercises the distributed corner turn's
// unpack step at a realistic large-tile size (one peer's stripe of a 1024
// corner turn on 2 nodes), where the blocking matters most.
func BenchmarkScatterTileTransposed(b *testing.B) {
	const h, w, dstCols = 512, 512, 1024
	tile := fillSeq(h, w)
	dst := make([]complex128, dstCols*dstCols)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ScatterTileTransposed(dst, tile, dstCols, 0, 0, h, w)
	}
}

// TestTransposeTileMatchesDefinition: the one transposing copy, at every
// pitch and tile shape around the cache block's edge, writes tile element
// (i, j) at dst[j*dstPitch+i] and nothing else.
func TestTransposeTileMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, h := range []int{1, 2, 31, 32, 33, 70} {
		for _, w := range []int{1, 3, 32, 65} {
			srcPitch, dstPitch := w+rng.Intn(4), h+rng.Intn(4)
			src := make([]complex128, (h-1)*srcPitch+w)
			for i := range src {
				src[i] = complex(float64(i), 1)
			}
			dst := make([]complex128, (w-1)*dstPitch+h)
			want := make([]complex128, len(dst))
			for i := range h {
				for j := range w {
					want[j*dstPitch+i] = src[i*srcPitch+j]
				}
			}
			TransposeTile(dst, dstPitch, src, srcPitch, h, w)
			if !slices.Equal(dst, want) {
				t.Fatalf("%dx%d tile, pitch %d -> %d: transposed samples differ", h, w, srcPitch, dstPitch)
			}
		}
	}
}

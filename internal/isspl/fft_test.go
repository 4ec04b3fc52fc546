package isspl

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randComplex(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	return x
}

func TestFFTMatchesDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			x := randComplex(n, int64(n))
			want := DFT(x)
			if err := FFT(x); err != nil {
				t.Fatal(err)
			}
			if d := MaxDiff(x, want); d > 1e-8*float64(n) {
				t.Fatalf("FFT deviates from DFT by %g", d)
			}
		})
	}
}

func TestFFTRejectsNonPow2(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7, 100} {
		if err := FFT(make([]complex128, n)); err == nil {
			t.Errorf("FFT accepted length %d", n)
		}
	}
}

func TestFFTEmptyAndOne(t *testing.T) {
	if err := FFT(nil); err != nil {
		t.Fatalf("FFT(nil): %v", err)
	}
	x := []complex128{3 + 4i}
	if err := FFT(x); err != nil || x[0] != 3+4i {
		t.Fatalf("FFT length-1 changed data or errored: %v %v", x, err)
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	for _, n := range []int{2, 16, 128, 1024} {
		x := randComplex(n, 7)
		orig := append([]complex128(nil), x...)
		if err := FFT(x); err != nil {
			t.Fatal(err)
		}
		if err := IFFT(x); err != nil {
			t.Fatal(err)
		}
		if d := MaxDiff(x, orig); d > 1e-10*float64(n) {
			t.Fatalf("n=%d: roundtrip error %g", n, d)
		}
	}
}

func TestFFTImpulseIsFlat(t *testing.T) {
	x := make([]complex128, 64)
	x[0] = 1
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTSingleToneBin(t *testing.T) {
	const n, bin = 128, 5
	x := make([]complex128, n)
	for i := range x {
		ang := 2 * math.Pi * bin * float64(i) / n
		x[i] = complex(math.Cos(ang), math.Sin(ang))
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		want := complex128(0)
		if i == bin {
			want = complex(n, 0)
		}
		if cmplx.Abs(v-want) > 1e-9 {
			t.Fatalf("bin %d = %v, want %v", i, v, want)
		}
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	// Property: FFT(a*x + b*y) == a*FFT(x) + b*FFT(y).
	check := func(seed int64, ar, ai, br, bi float64) bool {
		const n = 64
		a := complex(math.Mod(ar, 4), math.Mod(ai, 4))
		b := complex(math.Mod(br, 4), math.Mod(bi, 4))
		x := randComplex(n, seed)
		y := randComplex(n, seed+1)
		lhs := make([]complex128, n)
		for i := range lhs {
			lhs[i] = a*x[i] + b*y[i]
		}
		if FFT(lhs) != nil || FFT(x) != nil || FFT(y) != nil {
			return false
		}
		for i := range lhs {
			if cmplx.Abs(lhs[i]-(a*x[i]+b*y[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTParsevalProperty(t *testing.T) {
	// Property: energy is preserved up to the 1/n convention:
	// sum|X|^2 == n * sum|x|^2.
	check := func(seed int64) bool {
		const n = 256
		x := randComplex(n, seed)
		timeEnergy := Energy(x)
		if FFT(x) != nil {
			return false
		}
		freqEnergy := Energy(x)
		return math.Abs(freqEnergy-float64(n)*timeEnergy) < 1e-6*freqEnergy
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRFFTMatchesComplexFFT(t *testing.T) {
	for _, n := range []int{2, 4, 16, 128, 512} {
		rng := rand.New(rand.NewSource(int64(n)))
		xr := make([]float64, n)
		xc := make([]complex128, n)
		for i := range xr {
			xr[i] = 2*rng.Float64() - 1
			xc[i] = complex(xr[i], 0)
		}
		got, err := RFFT(xr)
		if err != nil {
			t.Fatal(err)
		}
		if err := FFT(xc); err != nil {
			t.Fatal(err)
		}
		if len(got) != n/2+1 {
			t.Fatalf("n=%d: RFFT returned %d bins, want %d", n, len(got), n/2+1)
		}
		for k := 0; k <= n/2; k++ {
			if cmplx.Abs(got[k]-xc[k]) > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: RFFT=%v FFT=%v", n, k, got[k], xc[k])
			}
		}
	}
}

func TestRFFTRejectsBadLengths(t *testing.T) {
	for _, n := range []int{1, 3, 6} {
		if _, err := RFFT(make([]float64, n)); err == nil {
			t.Errorf("RFFT accepted length %d", n)
		}
	}
	if out, err := RFFT(nil); err != nil || out != nil {
		t.Errorf("RFFT(nil) = %v, %v", out, err)
	}
}

func TestFFTStridedMatchesFFT(t *testing.T) {
	const n, stride, offset = 64, 3, 2
	data := randComplex(offset+n*stride, 21)
	// Extract the strided view, FFT it densely as the reference.
	want := make([]complex128, n)
	for i := 0; i < n; i++ {
		want[i] = data[offset+i*stride]
	}
	if err := FFT(want); err != nil {
		t.Fatal(err)
	}
	if err := FFTStrided(data, n, offset, stride); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if cmplx.Abs(data[offset+i*stride]-want[i]) > 1e-9 {
			t.Fatalf("strided FFT differs at %d", i)
		}
	}
}

func TestFFTStridedColumnsEqualGatherScatter(t *testing.T) {
	// Transforming every column of a matrix via FFTStrided must equal the
	// gather/FFT/scatter approach.
	const rows, cols = 32, 8
	a := randComplex(rows*cols, 22)
	b := append([]complex128(nil), a...)
	tmp := make([]complex128, rows)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			tmp[r] = a[r*cols+c]
		}
		if err := FFT(tmp); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rows; r++ {
			a[r*cols+c] = tmp[r]
		}
		if err := FFTStrided(b, rows, c, cols); err != nil {
			t.Fatal(err)
		}
	}
	if d := MaxDiff(a, b); d > 1e-12 {
		t.Fatalf("columns differ by %g", d)
	}
}

func TestIFFTStridedInverts(t *testing.T) {
	const n, stride = 32, 5
	data := randComplex(n*stride, 23)
	orig := append([]complex128(nil), data...)
	if err := FFTStrided(data, n, 0, stride); err != nil {
		t.Fatal(err)
	}
	if err := IFFTStrided(data, n, 0, stride); err != nil {
		t.Fatal(err)
	}
	if d := MaxDiff(data, orig); d > 1e-10 {
		t.Fatalf("roundtrip error %g", d)
	}
}

func TestFFTStridedErrors(t *testing.T) {
	data := make([]complex128, 16)
	if err := FFTStrided(data, 12, 0, 1); err == nil {
		t.Error("non-pow2 accepted")
	}
	if err := FFTStrided(data, 8, 0, 3); err == nil {
		t.Error("overrun accepted")
	}
	if err := FFTStrided(data, 8, -1, 1); err == nil {
		t.Error("negative offset accepted")
	}
	if err := FFTStrided(data, 8, 0, 0); err == nil {
		t.Error("zero stride accepted")
	}
	if err := FFTStrided(data, 0, 0, 1); err != nil {
		t.Errorf("n=0: %v", err)
	}
	if err := FFTStrided(data, 1, 3, 2); err != nil {
		t.Errorf("n=1: %v", err)
	}
}

// colsByStrided is the reference FFTCols is held to: the single-column
// library routine, one column at a time.
func colsByStrided(data []complex128, rows, cols int) error {
	for c := 0; c < cols; c++ {
		if err := FFTStrided(data, rows, c, cols); err != nil {
			return err
		}
	}
	return nil
}

// TestFFTColsMatchesStrided holds the row-sweep column FFT to FFTStrided bit
// for bit — not within a tolerance: the sweep re-orders the loop nest, never
// the arithmetic on a sample, so signed zeros, infinities, NaNs and
// subnormals must come out the same too. It sweeps the matrix dense (pitch
// cols) and as a column stripe of a wider one: one sample wider, and eight
// times as wide — a 64-wide stripe of a 512-wide result, whose rows alias in
// the cache. The samples between the stripe's rows are left as they were.
func TestFFTColsMatchesStrided(t *testing.T) {
	for rows := 1; rows <= 1024; rows <<= 1 {
		for _, cols := range []int{1, 3, 64} {
			for _, pitch := range []int{cols, cols + 1, 8 * cols} {
				for _, special := range []bool{false, true} {
					want := bitPatternInput(rows*cols, int64(rows*100+cols), special)
					if err := colsByStrided(want, rows, cols); err != nil {
						t.Fatal(err)
					}
					// The stripe's rows start pitch apart; the gaps hold a
					// NaN payload no transform produces.
					gap := complex(math.Float64frombits(0x7ff8feed00000000), 0)
					got := make([]complex128, (rows-1)*pitch+cols)
					for i := range got {
						got[i] = gap
					}
					in := bitPatternInput(rows*cols, int64(rows*100+cols), special)
					for r := range rows {
						copy(got[r*pitch:r*pitch+cols], in[r*cols:(r+1)*cols])
					}
					if err := FFTCols(got, rows, cols, pitch); err != nil {
						t.Fatal(err)
					}
					for r := range rows {
						if i := firstBitDiff(got[r*pitch:r*pitch+cols], want[r*cols:(r+1)*cols], false); i >= 0 {
							t.Fatalf("%dx%d pitch %d (special values %v): sample (%d, %d) is %x, FFTStrided gives %x",
								rows, cols, pitch, special, r, i, got[r*pitch+i], want[r*cols+i])
						}
						if r+1 < rows {
							if i := firstBitDiff(got[r*pitch+cols:(r+1)*pitch], gaps(pitch-cols, gap), false); i >= 0 {
								t.Fatalf("%dx%d pitch %d: the gap after row %d changed at %d", rows, cols, pitch, r, i)
							}
						}
					}
				}
			}
		}
	}
}

// gaps returns n copies of v.
func gaps(n int, v complex128) []complex128 {
	g := make([]complex128, n)
	for i := range g {
		g[i] = v
	}
	return g
}

// bitPatternInput returns n random samples; with special set, every eleventh
// part is a signed zero, an infinity, a NaN (one with a payload) or a
// subnormal, so they meet ordinary samples and each other in the butterflies.
func bitPatternInput(n int, seed int64, special bool) []complex128 {
	x := randComplex(n, seed)
	if !special {
		return x
	}
	values := []float64{
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8dead0000beef), // NaN with payload
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range x {
		re, im := real(x[i]), imag(x[i])
		if rng.Intn(11) == 0 {
			re = values[rng.Intn(len(values))]
		}
		if rng.Intn(11) == 0 {
			im = values[rng.Intn(len(values))]
		}
		x[i] = complex(re, im)
	}
	return x
}

// firstBitDiff returns the index of the first sample whose bits differ
// between a and b, or -1. With anyNaN set a NaN part matches any NaN part:
// where two NaNs meet in an add, the instruction's operand order — the
// compiler's choice for a commutative operation — picks whose sign and
// payload survive, so two spellings of one butterfly may disagree there and
// nowhere else.
func firstBitDiff(a, b []complex128, anyNaN bool) int {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || anyNaN && x != x && y != y
	}
	for i := range a {
		if !same(real(a[i]), real(b[i])) || !same(imag(a[i]), imag(b[i])) {
			return i
		}
	}
	return -1
}

// TestFFTRowsMatchesFFT holds the planned row transform to FFT bit for bit:
// it looks its tables up once and walks slices, but every sample sees FFT's
// butterflies in FFT's order under FFT's twiddles — signed zeros, infinities
// and subnormals come out the same, and a NaN comes out wherever FFT gives
// one (firstBitDiff says why its payload is not compared).
func TestFFTRowsMatchesFFT(t *testing.T) {
	for cols := 1; cols <= 1024; cols <<= 1 {
		for _, rows := range []int{1, 3, 8} {
			for _, special := range []bool{false, true} {
				want := bitPatternInput(rows*cols, int64(cols*100+rows), special)
				got := append([]complex128(nil), want...)
				for r := 0; r < rows; r++ {
					if err := FFT(want[r*cols : (r+1)*cols]); err != nil {
						t.Fatal(err)
					}
				}
				if err := FFTRows(got, rows, cols); err != nil {
					t.Fatal(err)
				}
				if i := firstBitDiff(got, want, true); i >= 0 {
					t.Fatalf("%dx%d (special values %v): sample %d is %x, FFT gives %x",
						rows, cols, special, i, got[i], want[i])
				}
			}
		}
	}
}

func TestFFTRowsErrors(t *testing.T) {
	data := make([]complex128, 24)
	err := FFTRows(data, 2, 12)
	if err == nil || err.Error() != "isspl: FFT length 12 is not a power of two" {
		t.Errorf("non-pow2 row length: %v", err)
	}
	if err := FFTRows(data, 2, 8); err == nil {
		t.Error("rows*cols != len(data) accepted")
	}
	if err := FFTRows(data[:16], -4, -4); err == nil { // as FFTCols refuses it
		t.Error("negative shape accepted")
	}
	if err := FFTRows(nil, 0, 0); err != nil {
		t.Errorf("empty matrix: %v", err)
	}
	if err := FFTRows(nil, 0, 12); err != nil { // no rows: nothing to transform
		t.Errorf("zero rows: %v", err)
	}
	if err := FFTRows(nil, 3, 0); err != nil {
		t.Errorf("zero columns: %v", err)
	}
	one := []complex128{1, 2, 3}
	if err := FFTRows(one, 3, 1); err != nil || one[0] != 1 || one[1] != 2 || one[2] != 3 {
		t.Errorf("single column: %v %v", err, one)
	}
}

func TestFFTColsErrors(t *testing.T) {
	data := make([]complex128, 24)
	if err := FFTCols(data, 12, 2, 2); err == nil {
		t.Error("non-pow2 column length accepted")
	}
	if err := FFTCols(data, 8, 2, 2); err == nil {
		t.Error("rows*cols != len(data) accepted")
	}
	if err := FFTCols(data[:16], 4, -4, -4); err == nil {
		t.Error("negative shape accepted")
	}
	if err := FFTCols(data[:10], 4, 4, 2); err == nil {
		t.Error("pitch below the row length accepted")
	}
	if err := FFTCols(data[:20], 4, 2, 6); err != nil {
		t.Errorf("4 rows of 2 at pitch 6: %v", err)
	}
	if err := FFTCols(data, 4, 2, 6); err == nil {
		t.Error("data past the last row's samples accepted")
	}
	if err := FFTCols(nil, 0, 0, 0); err != nil {
		t.Errorf("empty matrix: %v", err)
	}
	if err := FFTCols(nil, 3, 0, 0); err != nil { // no columns: nothing to transform, as with FFTStrided
		t.Errorf("zero columns: %v", err)
	}
	one := []complex128{1, 2, 3}
	if err := FFTCols(one, 1, 3, 3); err != nil || one[0] != 1 || one[1] != 2 || one[2] != 3 {
		t.Errorf("single row: %v %v", err, one)
	}
}

func BenchmarkFFTCols(b *testing.B) {
	// The fft_cols block of an fft2d 512 on 8 threads: dense, and in place as
	// a column stripe of the 512-wide result.
	const rows, cols, wide = 512, 64, 512
	src := randComplex(rows*cols, 1)
	dense := make([]complex128, len(src))
	result := make([]complex128, rows*wide)
	stripe := result[:(rows-1)*wide+cols]
	for _, bc := range []struct {
		name string
		fn   func() error
	}{
		{"strided", func() error { copy(dense, src); return colsByStrided(dense, rows, cols) }},
		{"sweep", func() error { copy(dense, src); return FFTCols(dense, rows, cols, cols) }},
		{"pitched", func() error {
			for r := range rows {
				copy(stripe[r*wide:r*wide+cols], src[r*cols:(r+1)*cols])
			}
			return FFTCols(stripe, rows, cols, wide)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := bc.fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestFFT2DMatchesDFT2D(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		m := TestMatrix(n, int64(n))
		want := DFT2D(m.Data, n)
		if err := FFT2D(m.Data, n); err != nil {
			t.Fatal(err)
		}
		if d := MaxDiff(m.Data, want); d > 1e-8*float64(n*n) {
			t.Fatalf("n=%d: FFT2D deviates by %g", n, d)
		}
	}
}

func TestIFFT2DInverts(t *testing.T) {
	const n = 32
	m := TestMatrix(n, 3)
	orig := m.Clone()
	if err := FFT2D(m.Data, n); err != nil {
		t.Fatal(err)
	}
	if err := IFFT2D(m.Data, n); err != nil {
		t.Fatal(err)
	}
	if d := m.MaxDiff(orig); d > 1e-9 {
		t.Fatalf("roundtrip error %g", d)
	}
}

func TestFFT2DShapeErrors(t *testing.T) {
	if err := FFT2D(make([]complex128, 10), 4); err == nil {
		t.Fatal("FFT2D accepted wrong length")
	}
	if err := IFFT2D(make([]complex128, 10), 4); err == nil {
		t.Fatal("IFFT2D accepted wrong length")
	}
	if err := FFTRows(make([]complex128, 10), 2, 4); err == nil {
		t.Fatal("FFTRows accepted wrong length")
	}
}

func TestResetTwiddleCache(t *testing.T) {
	_ = twiddles(64)
	if len(twiddleCache) == 0 {
		t.Fatal("cache empty after use")
	}
	ResetTwiddleCache()
	if len(twiddleCache) != 0 {
		t.Fatal("cache not cleared")
	}
	// Still correct after reset.
	x := randComplex(64, 1)
	want := DFT(x)
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	if MaxDiff(x, want) > 1e-8 {
		t.Fatal("FFT wrong after cache reset")
	}
}

func TestIsPow2(t *testing.T) {
	for n, want := range map[int]bool{0: false, 1: true, 2: true, 3: false, 4: true, 1024: true, 1023: false, -4: false} {
		if IsPow2(n) != want {
			t.Errorf("IsPow2(%d) = %v", n, !want)
		}
	}
}

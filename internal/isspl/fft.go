// Package isspl is the reproduction's signal-processing function library,
// standing in for the CSPI ISSPL library the paper's benchmarks link against
// (§3.2: "CSPI also provided all software including ... the CSPI ISSPL
// functional libraries").
//
// It provides the kernels the two benchmark applications are built from —
// complex 1D/2D FFTs and the corner turn (distributed matrix transpose) —
// plus the usual supporting vector, window and FIR routines found in such
// libraries. Storage is row-major throughout; the column transform of a
// block (FFTCols) runs the radix-2 schedule of one column on whole rows, so
// its inner index runs along a row too. Every routine has an accompanying
// operation-count function (cost.go) so the simulated machine can price it in
// virtual time, and each is verified against a naive reference implementation
// in the tests.
package isspl

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// twiddle tables are cached per size. The parallel experiment engine runs
// independent simulations — each calling into this library — concurrently,
// so the cache is guarded by a lock; the tables themselves are immutable
// once published. (The cache is an implementation detail; clear with
// ResetTwiddleCache in memory-sensitive tests.)
//
// The cache is bounded: a long-lived process (the sage serve daemon) sees an
// unbounded variety of transform sizes over its lifetime, and an uncapped
// per-size map is a slow memory leak. When the cached tables exceed
// twiddleCacheMaxElems complex values, the least-recently-used sizes are
// evicted. Eviction is invisible to callers: a table is a pure function of
// its size, so a recomputed table is bitwise identical to the evicted one.
//
// A hit takes the read lock only: the LRU stamp and the hit counter are
// atomics, so concurrent transforms (rtl goroutines, the daemon's workers)
// never serialise on a table that is already there.
var (
	twiddleMu    sync.RWMutex
	twiddleCache = map[int]*fftPlan{}
	twiddleElems int           // total base-table values across cached plans
	twiddleTick  atomic.Uint64 // logical clock for LRU ordering
	twiddleHits  atomic.Uint64
	// Misses and evictions, under twiddleMu. The counters are read by the
	// cache's tests only (TwiddleCacheStats).
	twiddleMisses, twiddleEvictions uint64
)

// twiddleCacheMaxElems bounds the cache to 1<<20 base-table values (16 MiB of
// twiddles; a plan's stage-packed copy and swap list make it about three and
// a half times its base table). Large enough to hold every size the
// benchmark applications use simultaneously; small enough that a daemon
// serving adversarial size mixes stays flat. A variable so the bounded-soak
// test can shrink it.
var twiddleCacheMaxElems = 1 << 20

// fftPlan is everything a length-n transform looks up, derived once per
// size: the twiddle table and, for the row transforms that run the same
// length thousands of times per call, the same factors laid out per stage
// and the bit-reversal as a list of swaps.
type fftPlan struct {
	// w holds the first n/2 forward twiddle factors e^{-2πik/n}. It is the
	// tail of packed: the last stage reads the table at step 1.
	w []complex128
	// packed holds each stage's factors back to back, in butterfly order:
	// the stage combining pairs half apart reads packed[half-1 : 2*half-1],
	// whose k-th entry is w[k*(n/2/half)].
	packed []complex128
	// swaps lists the index pairs (i < j, j = bitrev(i)) in ascending i.
	swaps [][2]int32
	used  atomic.Uint64 // twiddleTick at last access
}

func newFFTPlan(n int) *fftPlan {
	p := &fftPlan{packed: make([]complex128, n-1)}
	p.w = p.packed[n/2-1:]
	for k := range p.w {
		ang := -2 * math.Pi * float64(k) / float64(n)
		p.w[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	for half := 1; half < n/2; half <<= 1 {
		step := n / 2 / half
		stage := p.packed[half-1 : 2*half-1]
		for k := range stage {
			stage[k] = p.w[k*step]
		}
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
			p.swaps = append(p.swaps, [2]int32{int32(i), int32(j)})
		}
	}
	return p
}

// twiddles returns the first n/2 forward twiddle factors e^{-2πik/n}.
func twiddles(n int) []complex128 { return planFor(n).w }

// planFor returns the cached plan of a power-of-two length n >= 2, building
// it on a miss.
func planFor(n int) *fftPlan {
	twiddleMu.RLock()
	p, ok := twiddleCache[n]
	twiddleMu.RUnlock()
	if ok {
		p.used.Store(twiddleTick.Add(1))
		twiddleHits.Add(1)
		return p
	}
	p = newFFTPlan(n)
	twiddleMu.Lock()
	defer twiddleMu.Unlock()
	twiddleMisses++
	if q, ok := twiddleCache[n]; ok {
		// Another goroutine published the same size while we computed; both
		// plans are bitwise identical, keep the published one.
		q.used.Store(twiddleTick.Add(1))
		return q
	}
	// Oversized tables bypass the cache entirely rather than flushing it.
	if len(p.w) > twiddleCacheMaxElems {
		return p
	}
	for twiddleElems+len(p.w) > twiddleCacheMaxElems {
		evictOldestTwiddleLocked()
	}
	p.used.Store(twiddleTick.Add(1))
	twiddleCache[n] = p
	twiddleElems += len(p.w)
	return p
}

// evictOldestTwiddleLocked removes the least-recently-used table. Caller
// holds twiddleMu.
func evictOldestTwiddleLocked() {
	oldest, found := 0, false
	for n, p := range twiddleCache {
		if !found || p.used.Load() < twiddleCache[oldest].used.Load() {
			oldest, found = n, true
		}
	}
	if !found {
		return
	}
	twiddleElems -= len(twiddleCache[oldest].w)
	delete(twiddleCache, oldest)
	twiddleEvictions++
}

// ResetTwiddleCache drops all cached twiddle tables and zeroes the stats.
func ResetTwiddleCache() {
	twiddleMu.Lock()
	twiddleCache = map[int]*fftPlan{}
	twiddleElems = 0
	twiddleTick.Store(0)
	twiddleHits.Store(0)
	twiddleMisses, twiddleEvictions = 0, 0
	twiddleMu.Unlock()
}

// FFT computes the in-place forward discrete Fourier transform of x using an
// iterative radix-2 decimation-in-time algorithm. len(x) must be a power of
// two.
func FFT(x []complex128) error {
	return fftInternal(x, false)
}

// IFFT computes the in-place inverse DFT of x, including the 1/n scaling.
// len(x) must be a power of two.
func IFFT(x []complex128) error {
	if err := fftInternal(x, true); err != nil {
		return err
	}
	scale := complex(1/float64(len(x)), 0)
	for i := range x {
		x[i] *= scale
	}
	return nil
}

func fftInternal(x []complex128, inverse bool) error {
	n := len(x)
	if n == 0 {
		return nil
	}
	if !IsPow2(n) {
		return fmt.Errorf("isspl: FFT length %d is not a power of two", n)
	}
	if n == 1 {
		return nil
	}
	bitReverse(x)
	w := twiddles(n)
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				tw := w[k*step]
				if inverse {
					tw = complex(real(tw), -imag(tw))
				}
				a := x[start+k]
				b := x[start+k+half] * tw
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
	return nil
}

// bitReverse permutes x into bit-reversed index order.
func bitReverse(x []complex128) {
	n := len(x)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range x {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
}

// DFT computes the forward transform by direct O(n^2) evaluation. It exists
// as the verification reference for FFT and for non-power-of-two lengths.
func DFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * complex(math.Cos(ang), math.Sin(ang))
		}
		out[k] = sum
	}
	return out
}

// RFFT computes the DFT of a real sequence of even power-of-two length n
// using one complex FFT of length n/2 (the standard packing trick). The
// result has n/2+1 unique bins (DC .. Nyquist).
func RFFT(x []float64) ([]complex128, error) {
	n := len(x)
	if n == 0 {
		return nil, nil
	}
	if !IsPow2(n) || n < 2 {
		return nil, fmt.Errorf("isspl: RFFT length %d is not a power of two >= 2", n)
	}
	h := n / 2
	// Pack even samples into real parts, odd into imaginary parts.
	z := make([]complex128, h)
	for i := 0; i < h; i++ {
		z[i] = complex(x[2*i], x[2*i+1])
	}
	if err := FFT(z); err != nil {
		return nil, err
	}
	out := make([]complex128, h+1)
	for k := 0; k <= h; k++ {
		var zk, zmk complex128
		if k == h {
			zk, zmk = z[0], z[0]
		} else if k == 0 {
			zk, zmk = z[0], z[0]
		} else {
			zk, zmk = z[k], z[h-k]
		}
		even := (zk + conj(zmk)) / 2
		odd := (zk - conj(zmk)) / (2i)
		ang := -2 * math.Pi * float64(k) / float64(n)
		out[k] = even + complex(math.Cos(ang), math.Sin(ang))*odd
	}
	return out, nil
}

func conj(c complex128) complex128 { return complex(real(c), -imag(c)) }

// FFTRows transforms every row of an r x c row-major matrix in place.
// c must be a power of two. The plan of length c is looked up once per call
// and every row runs FFT's butterflies, in FFT's order, on FFT's operands —
// the results are bitwise those of FFT on each row (a NaN where FFT gives a
// NaN: which payload survives two NaNs meeting is not the arithmetic's to
// say).
func FFTRows(data []complex128, rows, cols int) error {
	if len(data) != rows*cols {
		return fmt.Errorf("isspl: FFTRows data length %d != %d x %d", len(data), rows, cols)
	}
	if len(data) == 0 {
		return nil
	}
	if !IsPow2(cols) {
		return fmt.Errorf("isspl: FFT length %d is not a power of two", cols)
	}
	if cols == 1 {
		return nil
	}
	p := planFor(cols)
	for r := 0; r < rows; r++ {
		p.forward(data[r*cols : (r+1)*cols])
	}
	return nil
}

// forward is fftInternal's forward transform of one row of the plan's
// length, with the table lookups done: the permutation is the swap list and
// each stage walks three equal-length slices, so the inner loop carries no
// index arithmetic and no bounds checks. The first stage, whose blocks hold
// one butterfly each, is a flat loop over neighbours — slicing per block
// would cost more than the butterfly.
func (p *fftPlan) forward(x []complex128) {
	for _, s := range p.swaps {
		x[s[0]], x[s[1]] = x[s[1]], x[s[0]]
	}
	tw0 := p.packed[0]
	for i := 1; i < len(x); i += 2 {
		a := x[i-1]
		b := x[i] * tw0
		x[i-1] = a + b
		x[i] = a - b
	}
	n := len(x)
	for half := 2; half < n; half <<= 1 {
		tw := p.packed[half-1 : 2*half-1]
		for start := 0; start < n; start += 2 * half {
			lo := x[start : start+half]
			hi := x[start+half : start+2*half]
			hi, tw := hi[:len(lo)], tw[:len(lo)]
			for k := range lo {
				a := lo[k]
				b := hi[k] * tw[k]
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}

// FFTCols transforms every column of a rows x cols row-major matrix in place,
// whose row i starts at data[i*pitch]: pitch is cols for a dense matrix and
// the wider matrix's width for a column stripe of one, and data ends at the
// last sample of the last row. rows must be a power of two. It runs one
// column's radix-2 schedule on all columns at once: the bit-reversal swaps
// whole rows and every butterfly combines a pair of rows under one twiddle,
// so the inner index is unit-stride while each sample sees the operations a
// transform of its column alone would apply to it, in the same order — the
// results are bitwise those of the strided single-column transform the tests
// keep, at any pitch.
func FFTCols(data []complex128, rows, cols, pitch int) error {
	if rows < 0 || cols < 0 || pitch < cols {
		return fmt.Errorf("isspl: FFTCols shape %d x %d, pitch %d", rows, cols, pitch)
	}
	n := 0
	if rows > 0 && cols > 0 {
		n = (rows-1)*pitch + cols
	}
	if len(data) != n {
		return fmt.Errorf("isspl: FFTCols data length %d != %d rows of %d at pitch %d", len(data), rows, cols, pitch)
	}
	if n == 0 {
		return nil
	}
	if !IsPow2(rows) {
		return fmt.Errorf("isspl: FFTCols length %d is not a power of two", rows)
	}
	if rows == 1 {
		return nil
	}
	row := func(i int) []complex128 { return data[i*pitch : i*pitch+cols] }
	shift := 64 - uint(bits.TrailingZeros(uint(rows)))
	for i := 1; i < rows; i++ {
		if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
			ri, rj := row(i), row(j)
			for c := range ri {
				ri[c], rj[c] = rj[c], ri[c]
			}
		}
	}
	w := twiddles(rows)
	for size := 2; size <= rows; size <<= 1 {
		half := size / 2
		step := rows / size
		for start := 0; start < rows; start += size {
			for k := 0; k < half; k++ {
				tw := w[k*step]
				lo, hi := row(start+k), row(start+k+half)
				for c := range lo {
					a := lo[c]
					b := hi[c] * tw
					lo[c] = a + b
					hi[c] = a - b
				}
			}
		}
	}
	return nil
}

// FFT2D computes the forward 2D transform of an n x n row-major matrix in
// place: FFT of every row, transpose, FFT of every (former) column, and
// transpose back so the output is in natural orientation.
func FFT2D(data []complex128, n int) error {
	if len(data) != n*n {
		return fmt.Errorf("isspl: FFT2D data length %d != %d^2", len(data), n)
	}
	if err := FFTRows(data, n, n); err != nil {
		return err
	}
	TransposeSquare(data, n)
	if err := FFTRows(data, n, n); err != nil {
		return err
	}
	TransposeSquare(data, n)
	return nil
}

// IFFT2D inverts FFT2D.
func IFFT2D(data []complex128, n int) error {
	if len(data) != n*n {
		return fmt.Errorf("isspl: IFFT2D data length %d != %d^2", len(data), n)
	}
	for r := 0; r < n; r++ {
		if err := IFFT(data[r*n : (r+1)*n]); err != nil {
			return err
		}
	}
	TransposeSquare(data, n)
	for r := 0; r < n; r++ {
		if err := IFFT(data[r*n : (r+1)*n]); err != nil {
			return err
		}
	}
	TransposeSquare(data, n)
	return nil
}

// DFT2D is the O(n^4)-ish reference for FFT2D built from row/column DFTs.
func DFT2D(data []complex128, n int) []complex128 {
	out := make([]complex128, n*n)
	// Rows.
	for r := 0; r < n; r++ {
		copy(out[r*n:(r+1)*n], DFT(data[r*n:(r+1)*n]))
	}
	// Columns.
	col := make([]complex128, n)
	for c := 0; c < n; c++ {
		for r := 0; r < n; r++ {
			col[r] = out[r*n+c]
		}
		fc := DFT(col)
		for r := 0; r < n; r++ {
			out[r*n+c] = fc[r]
		}
	}
	return out
}

package isspl

import (
	"fmt"
	"math/bits"
)

// The single-column strided transform, kept as the bitwise oracle FFTCols is
// held to (TestFFTColsMatchesStrided): FFTCols runs this loop nest with the
// inner index turned along a row.

// FFTStrided computes the in-place forward DFT of the n logical elements
// data[offset], data[offset+stride], ..., data[offset+(n-1)*stride]. It lets
// column transforms run directly on row-major storage without gather/scatter
// buffers. n must be a power of two and stride >= 1.
func FFTStrided(data []complex128, n, offset, stride int) error {
	return fftStridedInternal(data, n, offset, stride, false)
}

// IFFTStrided is the inverse of FFTStrided, including the 1/n scaling.
func IFFTStrided(data []complex128, n, offset, stride int) error {
	if err := fftStridedInternal(data, n, offset, stride, true); err != nil {
		return err
	}
	scale := complex(1/float64(n), 0)
	for i := 0; i < n; i++ {
		data[offset+i*stride] *= scale
	}
	return nil
}

func fftStridedInternal(data []complex128, n, offset, stride int, inverse bool) error {
	if n == 0 {
		return nil
	}
	if !IsPow2(n) {
		return fmt.Errorf("isspl: strided FFT length %d is not a power of two", n)
	}
	if stride < 1 || offset < 0 {
		return fmt.Errorf("isspl: strided FFT offset %d stride %d", offset, stride)
	}
	if last := offset + (n-1)*stride; last >= len(data) {
		return fmt.Errorf("isspl: strided FFT overruns buffer: last index %d, length %d", last, len(data))
	}
	if n == 1 {
		return nil
	}
	idx := func(i int) int { return offset + i*stride }
	// Bit-reversal permutation over logical indices.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			data[idx(i)], data[idx(j)] = data[idx(j)], data[idx(i)]
		}
	}
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
				a := data[idx(start+k)]
				b := data[idx(start+k+half)] * tw
				data[idx(start+k)] = a + b
				data[idx(start+k+half)] = a - b
			}
		}
	}
	return nil
}

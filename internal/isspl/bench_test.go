package isspl

import (
	"fmt"
	"testing"
)

// BenchmarkISSPLFFT measures the host-side FFT kernel (library quality, not
// a paper figure).
func BenchmarkISSPLFFT(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x := make([]complex128, n)
			for i := range x {
				x[i] = complex(float64(i%7), float64(i%5))
			}
			b.SetBytes(int64(16 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := FFT(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkISSPLTranspose measures the blocked transpose kernel.
func BenchmarkISSPLTranspose(b *testing.B) {
	for _, n := range []int{256, 1024} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := TestMatrix(n, 1)
			b.SetBytes(int64(16 * n * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				TransposeSquare(m.Data, n)
			}
		})
	}
}

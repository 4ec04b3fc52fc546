package alter

import "testing"

// BenchmarkAlterInterpreter measures the generator-language interpreter on a
// recursion-heavy workload (host-side tool performance).
func BenchmarkAlterInterpreter(b *testing.B) {
	const src = `
	  (define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
	  (fib 17)`
	for i := 0; i < b.N; i++ {
		in := New()
		v, err := in.RunString(src)
		if err != nil {
			b.Fatal(err)
		}
		if !Equal(v, int64(1597)) {
			b.Fatalf("fib = %v", v)
		}
	}
}

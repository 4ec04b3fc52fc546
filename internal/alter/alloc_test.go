package alter

import "testing"

// TestAllocCeilingFrameReuse: a frame no closure can reach is reused once
// its scope returns, so a for-each over N calls of a lambda that makes no
// closure allocates as much at N = 10 as at N = 10 000 — one call frame and
// one let frame per run, not per call. A lambda whose let makes a closure
// must keep both frames of every call, so it grows with N.
func TestAllocCeilingFrameReuse(t *testing.T) {
	run := func(src string, n int) float64 {
		in := New()
		in.Define("xs", make(List, n)) // nil elements: nothing to box
		p := MustCompile(src)
		return testing.AllocsPerRun(5, func() {
			if _, err := in.Run(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	const small, large = 10, 10_000
	plain := `(for-each (lambda (v) (let ((w v)) (not w))) xs)`
	if a, b := run(plain, small), run(plain, large); a != b {
		t.Errorf("non-capturing lambda: %v allocations at N = %d, %v at N = %d; want the same", a, small, b, large)
	}
	capturing := `(for-each (lambda (v) (let ((w v)) (lambda () w))) xs)`
	a, b := run(capturing, small), run(capturing, large)
	if b-a < 2*(large-small) {
		t.Errorf("capturing lambda: %v allocations at N = %d, %v at N = %d; want at least two frames per call kept", a, small, b, large)
	}
	t.Logf("capturing lambda: %v allocations at N = %d, %v at N = %d", a, small, b, large)
}

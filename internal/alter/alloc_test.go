package alter

import (
	"math"
	"testing"
)

// TestAllocCeilingFrameReuse: a frame no closure can reach is reused once
// its scope returns, so a for-each over N calls of a lambda that makes no
// closure allocates as much at N = 10 as at N = 10 000 — one call frame and
// one let frame per run, not per call. A lambda whose let makes a closure
// must keep both frames of every call, so it grows with N.
//
// A lambda written as the procedure argument of for-each, map or filter is
// lent to the builtin: it is made from the interpreter's spares and does not
// pin the frames around it, so a call that lends one costs, as N grows, what
// the same call costs with a builtin in the lambda's place (nothing, but
// for map's result). A closure that may outlive its call — one that is
// defined, returned from map, passed to a user function, or passed to a
// for-each or filter the script rebound by define or set! — keeps every
// frame around it, at least two a call.
func TestAllocCeilingFrameReuse(t *testing.T) {
	run := func(src string, n int) float64 {
		in := New()
		in.Define("xs", make(List, n)) // nil elements: nothing to box
		in.Define("one", List{int64(1)})
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
	growth := func(src string) float64 { return run(src, large) - run(src, small) }
	for _, lent := range []struct{ name, call, builtin string }{
		{"for-each", `(for-each (lambda (u) (not w)) one)`, `(for-each not one)`},
		{"map", `(map (lambda (u) (not w)) one)`, `(map not one)`},
		{"filter", `(filter (lambda (u) w) one)`, `(filter not one)`},
	} {
		loop := func(call string) string { return `(for-each (lambda (v) (let ((w v)) ` + call + `)) xs)` }
		// The same but for a stray allocation of the runtime's: within one
		// in a thousand calls.
		if a, b := growth(loop(lent.call)), growth(loop(lent.builtin)); math.Abs(a-b) > (large-small)/1000 {
			t.Errorf("lent to %s: %v more allocations at N = %d than at N = %d, %v with a builtin in its place; want the same",
				lent.name, a, large, small, b)
		}
	}
	for name, kept := range map[string]struct {
		src     string
		perCall int // allocations a call must make: its kept frames and closures
	}{
		"capturing let":          {`(for-each (lambda (v) (let ((w v)) (lambda () w))) xs)`, 2},
		"defined lambda":         {`(for-each (lambda (v) (let ((w v)) (define g (lambda () w)) (g))) xs)`, 3},
		"returned from map":      {`(for-each (lambda (v) (let ((w v)) (map (lambda (u) (lambda () w)) one))) xs)`, 4},
		"passed to a function":   {`(define (keep f) f) (for-each (lambda (v) (let ((w v)) (keep (lambda () w)))) xs)`, 3},
		"for-each rebound":       {`(define (for-each f l) f) (map (lambda (v) (let ((w v)) (for-each (lambda (u) w) one))) xs)`, 3},
		"filter rebound by set!": {`(set! filter (lambda (f l) f)) (for-each (lambda (v) (let ((w v)) (filter (lambda (u) w) one))) xs)`, 3},
	} {
		a, b := run(kept.src, small), run(kept.src, large)
		if b-a < float64(kept.perCall*(large-small)) {
			t.Errorf("%s: %v allocations at N = %d, %v at N = %d; want at least %d a call kept", name, a, small, b, large, kept.perCall)
		}
		t.Logf("%s: %v allocations at N = %d, %v at N = %d", name, a, small, b, large)
	}
}

// TestAllocCeilingArgumentStack: a Program records the deepest argument
// stack a run of it needed, and a fresh Interp running it again allocates
// its stack once at that depth instead of growing it from nothing by
// doubling (which cost a serve-shape gluegen.Generate ~1 kB in six
// allocations).
func TestAllocCeilingArgumentStack(t *testing.T) {
	p := MustCompile(`(define (deep n) (if (= n 0) (list 1 2 3) (append (list n n) (deep (- n 1)))))
	                  (for-each (lambda (x) (map (lambda (y) (+ x y)) (deep 12))) (list 1 2))`)
	first := New()
	if _, err := first.Run(p); err != nil {
		t.Fatal(err)
	}
	depth := int(p.stack.Load())
	if depth < 12 || depth != first.peak {
		t.Fatalf("recorded depth %d, first run's peak %d: want them equal and at least 12", depth, first.peak)
	}
	run := func(hinted bool) float64 {
		return testing.AllocsPerRun(5, func() {
			in := New()
			if !hinted {
				in.stack = List{} // a stack already there: Run keeps it
			}
			if _, err := in.Run(p); err != nil {
				t.Fatal(err)
			}
			if hinted && cap(in.stack) != depth {
				t.Fatalf("a later run's stack has capacity %d, want the recorded %d: it grew", cap(in.stack), depth)
			}
		})
	}
	hinted, grown := run(true), run(false)
	t.Logf("argument stack %d deep: %.0f allocations a run, %.0f growing it from nothing", depth, hinted, grown)
	if grown-hinted < 3 {
		t.Fatalf("%.0f allocations a run with the recorded depth, %.0f growing the stack: want at least 3 fewer", hinted, grown)
	}
}

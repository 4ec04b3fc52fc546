package funclib

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/model"
)

func reg(r0, c0, rows, cols int) model.Region {
	return model.Region{R0: r0, C0: c0, Rows: rows, Cols: cols}
}

// TestResultBackedMatchesDefinition holds ResultBacked to the rule spelled out
// over random thread graphs — functions of 1–3 threads, mostly forward edges,
// random reader sets (the owner, its consumers and a few threads more, as a
// forwarding consumer adds its own), storages and sink covers, sinks of up to
// 70 threads — with precedence by a search from every reader: per sink, of
// the storages not yet in a result whose readers other than the owner are
// each a sink thread or reach every sink thread, and that fit the result, the
// first function's whose other readers are all sink threads, else, if the
// sink is covered, the first function's at all.
func TestResultBackedMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 1))
	const rows, cols = 4, 4
	seen := map[int]int{}
	for range 3000 {
		var ts []ResultThread
		for len(ts) < 4+rng.IntN(10) { // a function's threads share its first thread's index
			first := len(ts)
			for range 1 + rng.IntN(3) {
				ts = append(ts, ResultThread{Fn: first})
			}
		}
		n := len(ts)
		for u := range ts {
			for range rng.IntN(3) {
				v := rng.IntN(n)
				if rng.IntN(6) != 0 && v < u { // mostly forward, as a pipeline
					u, v = v, u
				}
				ts[u].Out = append(ts[u].Out, int32(v))
			}
			if rng.IntN(3) != 0 {
				ts[u].Threads = 1 + rng.IntN(2) // the whole result may be one thread's own
				ts[u].Part = []model.Region{reg(0, 0, 2, cols), reg(2, 0, 2, cols), reg(0, 0, rows, 2), reg(0, 0, rows, cols)}[rng.IntN(4)]
			}
		}
		var sinks []ResultSink
		for range 1 + rng.IntN(2) {
			s := ResultSink{Rows: rows, Cols: cols, Covered: rng.IntN(3) != 0}
			for _, u := range rng.Perm(n)[:1+rng.IntN(2)] {
				s.Threads = append(s.Threads, u)
			}
			if rng.IntN(10) == 0 { // more threads than one word of bits
				for range 70 {
					ts = append(ts, ResultThread{Fn: len(ts)})
					ts[rng.IntN(n)].Out = append(ts[rng.IntN(n)].Out, int32(len(ts)-1))
					s.Threads = append(s.Threads, len(ts)-1)
				}
			}
			sinks = append(sinks, s)
		}
		for u := range ts {
			ts[u].Readers = append([]int32{int32(u)}, ts[u].Out...)
			for range rng.IntN(3) {
				ts[u].Readers = append(ts[u].Readers, int32(rng.IntN(len(ts))))
			}
		}
		got := ResultBacked(ts, sinks)

		reaches := func(u int) []bool {
			r := make([]bool, len(ts))
			for stack := []int32{int32(u)}; len(stack) > 0; {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, v := range ts[w].Out {
					if !r[v] {
						r[v] = true
						stack = append(stack, v)
					}
				}
			}
			return r
		}
		want := make([]int, len(ts))
		for u := range want {
			want[u] = -1
		}
		for si, s := range sinks {
			qualifies := func(u int, only bool) bool {
				if want[u] >= 0 || ts[u].Threads == 0 || !only && !s.Covered {
					return false
				}
				ok := true
				for _, v := range ts[u].Readers {
					inSink := slices.Contains(s.Threads, int(v))
					r := reaches(int(v))
					ok = ok && (int(v) == u || inSink || !only && !slices.ContainsFunc(s.Threads, func(k int) bool { return !r[k] }))
				}
				// The partition lies densely in the result's rows and is the
				// thread's own.
				part, whole := ts[u].Part, reg(0, 0, rows, cols)
				return ok && part.C0 == 0 && part.Cols == cols && part.Intersect(whole) == part &&
					!(ts[u].Threads > 1 && part == whole)
			}
			for _, only := range []bool{true, false} {
				fn := -1
				for u := range ts {
					if (fn < 0 || ts[u].Fn == fn) && qualifies(u, only) {
						fn, want[u] = ts[u].Fn, si
					}
				}
				if fn >= 0 {
					break
				}
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("threads %+v sinks %+v: ResultBacked = %v, want %v", ts, sinks, got, want)
		}
		for _, si := range got {
			seen[si]++
		}
	}
	if seen[-1] == 0 || seen[0] == 0 || seen[1] == 0 {
		t.Fatalf("sink indices %v: the cases exercise too few answers", seen)
	}
}

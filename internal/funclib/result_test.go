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
// sink is covered, the first function's at all. Then the second storages of
// each covered sink, by secondByDefinition. Half the graphs are fft2d-shaped
// pipelines — a host, threads that forward its rows, in-place column
// threads, the sink — with random flags, regions and extra lanes, so that
// second storages are both taken and declined, pitched ones among them.
func TestResultBackedMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 1))
	const rows, cols = 4, 4
	seen, seconds, pitched := map[int]int{}, 0, 0
	for i := range 3000 {
		var ts []ResultThread
		var sinks []ResultSink
		if i%2 == 0 {
			ts, sinks = pipeline(rng, rows, cols)
		} else {
			ts, sinks = randomGraph(rng, rows, cols)
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
		first := slices.Clone(want)
		for si, s := range sinks {
			for u := range ts {
				if s.Covered && want[u] < 0 && secondByDefinition(ts, s, first, si, u, reg(0, 0, rows, cols)) {
					want[u] = si
				}
			}
		}
		for u, si := range want {
			if si >= 0 && first[u] < 0 {
				seconds++
				if ts[u].Part.Cols < cols {
					pitched++
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
	if seen[-1] == 0 || seen[0] == 0 || seen[1] == 0 || seconds == 0 || pitched == 0 {
		t.Fatalf("sink indices %v, %d second storages, %d pitched: the cases exercise too few answers", seen, seconds, pitched)
	}
	t.Logf("sink indices %v, %d second storages, %d pitched", seen, seconds, pitched)
}

// randomGraph draws a thread graph with no shape in mind.
func randomGraph(rng *rand.Rand, rows, cols int) ([]ResultThread, []ResultSink) {
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
			ts[u].Part = regions(rows, cols)[rng.IntN(4)]
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
	finish(rng, ts, rows, cols, true)
	return ts, sinks
}

// pipeline draws an fft2d-shaped graph on a rows x cols result: a host of
// one or two threads, a forwarding thread per host row stripe, two or four
// in-place column threads fed a tile by each, and a sink of one or two
// threads fed by every column thread; then a few random lanes more.
func pipeline(rng *rand.Rand, rows, cols int) ([]ResultThread, []ResultSink) {
	hosts, stripes := 1+rng.IntN(2), 2*(1+rng.IntN(2))
	var ts []ResultThread
	for h := range hosts {
		ts = append(ts, ResultThread{Fn: 0, Threads: hosts, Part: reg(h*rows/hosts, 0, rows/hosts, cols)})
	}
	fwd := len(ts)
	for h := range hosts {
		ts[h].Out = append(ts[h].Out, int32(len(ts)))
		ts = append(ts, ResultThread{Fn: fwd, Forwards: true, Part: ts[h].Part}) // no storage: the Part only shapes its sends
	}
	col := len(ts)
	for c := range stripes {
		ts = append(ts, ResultThread{Fn: col, Threads: stripes, Part: reg(0, c*cols/stripes, rows, cols/stripes), InPlace: true, Strided: true})
		for f := fwd; f < col; f++ {
			ts[f].Out = append(ts[f].Out, int32(len(ts)-1))
		}
	}
	sink := ResultSink{Rows: rows, Cols: cols, Covered: rng.IntN(6) != 0}
	for range 1 + rng.IntN(2) {
		sink.Threads = append(sink.Threads, len(ts))
		for c := col; c < col+stripes; c++ {
			ts[c].Out = append(ts[c].Out, int32(len(ts)))
		}
		ts = append(ts, ResultThread{Fn: len(ts)})
	}
	for range rng.IntN(3) { // a lane more, from anywhere to anywhere
		u, v := rng.IntN(len(ts)), rng.IntN(len(ts))
		ts[u].Out = append(ts[u].Out, int32(v))
	}
	for u := col; u < col+stripes; u++ {
		c := &ts[u]
		c.InPlace, c.Strided = rng.IntN(8) != 0, rng.IntN(4) != 0
		if rng.IntN(8) == 0 {
			c.Part = reg(0, 0, rows, cols) // replicated: every column thread reads it all
		}
	}
	finish(rng, ts, rows, cols, false)
	return ts, []ResultSink{sink}
}

// regions are the parts a thread may hold or send of a rows x cols result:
// row and column stripes, the whole, and tiles.
func regions(rows, cols int) []model.Region {
	return []model.Region{reg(0, 0, rows/2, cols), reg(rows/2, 0, rows/2, cols), reg(0, 0, rows, cols/2), reg(0, 0, rows, cols),
		reg(0, cols/2, rows, cols/2), reg(0, 0, rows/2, cols/2), reg(rows/2, cols/2, rows/2, cols/2)}
}

// finish gives every thread its readers, its sends' regions — mostly the
// part of the consumer's partition the sender holds, or what either holds
// when the other holds nothing — and with flags random
// in-place flags: a thread fed by exactly one lane may forward (and then has
// no storage of its own).
func finish(rng *rand.Rand, ts []ResultThread, rows, cols int, flags bool) {
	fed := make([]int, len(ts))
	for u := range ts {
		for _, v := range ts[u].Out {
			fed[v]++
		}
	}
	for u := range ts {
		t := &ts[u]
		t.Readers = append([]int32{int32(u)}, t.Out...)
		for range rng.IntN(3) {
			t.Readers = append(t.Readers, int32(rng.IntN(len(ts))))
		}
		t.Sends = make([]model.Region, len(t.Out))
		for i, v := range t.Out {
			part := t.Part.Intersect(ts[v].Part)
			switch {
			case t.Part.Empty():
				part = ts[v].Part
			case ts[v].Part.Empty():
				part = t.Part
			}
			if part.Empty() || rng.IntN(5) == 0 {
				part = regions(rows, cols)[rng.IntN(7)]
			}
			t.Sends[i] = part
		}
		if !flags {
			continue
		}
		switch {
		case fed[u] == 1 && rng.IntN(4) == 0:
			t.Forwards, t.Threads, t.Part = true, 0, model.Region{}
		case t.Threads > 0 && rng.IntN(2) == 0:
			t.InPlace, t.Strided = rng.IntN(4) != 0, rng.IntN(2) == 0
		}
	}
}

// secondByDefinition decides whether thread u's storage is a second storage
// of covered sink s, index si, the rule's way round: first holds the first
// storages; a block lies in the result when its thread's first storage is
// there, or it forwards one that does.
func secondByDefinition(ts []ResultThread, s ResultSink, first []int, si, u int, whole model.Region) bool {
	t := &ts[u]
	p := t.Part
	if !t.InPlace || t.Threads == 0 || p.Intersect(whole) != p || !t.Strided && p.Cols != whole.Cols ||
		len(t.Out) == 0 || slices.ContainsFunc(t.Out, func(v int32) bool { return !slices.Contains(s.Threads, int(v)) }) {
		return false
	}
	lies := func(w int) bool {
		for range len(ts) + 1 {
			if !ts[w].Forwards {
				return first[w] == si
			}
			producer := -1
			for x := range ts {
				if slices.Contains(ts[x].Out, int32(w)) {
					producer = x
				}
			}
			if producer < 0 {
				return false
			}
			w = producer
		}
		return false
	}
	// lanes lists every lane as (from, to, region).
	type lane struct {
		from, to int
		reg      model.Region
	}
	var lanes []lane
	for w := range ts {
		for i, v := range ts[w].Out {
			lanes = append(lanes, lane{w, int(v), ts[w].Sends[i]})
		}
	}
	for _, l := range lanes {
		if l.to == u && !lies(l.from) {
			return false // a payload that does not lie at its place
		}
	}
	for v := range ts {
		if v == u {
			continue
		}
		// The rectangles bounding what v reads out of a block in the
		// result and what it sends the sink.
		var reads, sent []model.Region
		for _, l := range lanes {
			if l.to == v && !ts[v].Forwards && lies(l.from) {
				reads = append(reads, l.reg)
			}
			if l.from == v && slices.Contains(s.Threads, l.to) {
				sent = append(sent, l.reg)
			}
		}
		for _, rs := range [][]model.Region{reads, sent} {
			if len(rs) == 0 {
				continue
			}
			r0, c0, r1, c1 := rs[0].R0, rs[0].C0, rs[0].R0+rs[0].Rows, rs[0].C0+rs[0].Cols
			for _, r := range rs[1:] {
				r0, c0, r1, c1 = min(r0, r.R0), min(c0, r.C0), max(r1, r.R0+r.Rows), max(c1, r.C0+r.Cols)
			}
			if r0 < p.R0+p.Rows && p.R0 < r1 && c0 < p.C0+p.Cols && p.C0 < c1 {
				return false // another thread reads or sends a region that overlaps u's partition
			}
		}
	}
	return true
}

// TestSecondStorageCases pins the second-storage rule on an fft2d shape over
// a 4x4 result: a source (0) whose block the result holds, a thread (1) that
// forwards it, in-place column threads (2, 3) fed a stripe each, and the
// sink (4). Each case changes one thing.
func TestSecondStorageCases(t *testing.T) {
	left, right, whole := reg(0, 0, 4, 2), reg(0, 2, 4, 2), reg(0, 0, 4, 4)
	shape := func() ([]ResultThread, []ResultSink) {
		ts := []ResultThread{
			{Fn: 0, Threads: 1, Part: whole, Out: []int32{1}, Sends: []model.Region{whole}, Readers: []int32{0, 1, 2, 3}},
			{Fn: 1, Out: []int32{2, 3}, Sends: []model.Region{left, right}, Forwards: true},
			{Fn: 2, Threads: 2, Part: left, Out: []int32{4}, Sends: []model.Region{left}, Readers: []int32{2, 4}, InPlace: true, Strided: true},
			{Fn: 2, Threads: 2, Part: right, Out: []int32{4}, Sends: []model.Region{right}, Readers: []int32{3, 4}, InPlace: true, Strided: true},
			{Fn: 4},
		}
		return ts, []ResultSink{{Threads: []int{4}, Rows: 4, Cols: 4, Covered: true}}
	}
	for _, tc := range []struct {
		name string
		edit func(ts []ResultThread, sinks []ResultSink) []ResultThread
		want []int
	}{
		{"both stripes lie in the result, pitched", nil, []int{0, -1, 0, 0, -1}},
		{"a kind that needs dense blocks keeps its own", func(ts []ResultThread, _ []ResultSink) []ResultThread {
			ts[3].Strided = false
			return ts
		}, []int{0, -1, 0, -1, -1}},
		{"a payload from outside the result is not at its place", func(ts []ResultThread, _ []ResultSink) []ResultThread {
			return append(ts, ResultThread{Fn: 5, Threads: 1, Part: left, Out: []int32{2}, Sends: []model.Region{reg(0, 0, 1, 2)}, Readers: []int32{5, 2}})
		}, []int{0, -1, -1, 0, -1, -1}},
		{"a replicated consumer reads the same column stripe", func(ts []ResultThread, _ []ResultSink) []ResultThread {
			// It reads the whole block the forwarder sends and feeds the
			// left stripe, so the source's block still precedes the sink.
			ts[1].Out, ts[1].Sends = append(ts[1].Out, 5), append(ts[1].Sends, whole)
			ts[0].Readers = append(ts[0].Readers, 5)
			return append(ts, ResultThread{Fn: 5, Threads: 1, Part: whole, Out: []int32{2}, Sends: []model.Region{left}, Readers: []int32{5, 2}})
		}, []int{0, -1, -1, -1, -1, -1}},
		{"another producer sends the sink the stripe", func(ts []ResultThread, _ []ResultSink) []ResultThread {
			ts[0].Out, ts[0].Sends = append(ts[0].Out, 4), append(ts[0].Sends, reg(0, 3, 1, 1))
			return ts
		}, []int{0, -1, 0, -1, -1}},
		{"an uncovered sink hosts none", func(ts []ResultThread, sinks []ResultSink) []ResultThread {
			sinks[0].Covered = false
			ts[0].Readers = []int32{0, 4} // the source's block still lies there, read by the sink alone
			return ts
		}, []int{0, -1, -1, -1, -1}},
	} {
		ts, sinks := shape()
		if tc.edit != nil {
			ts = tc.edit(ts, sinks)
		}
		if got := ResultBacked(ts, sinks); !slices.Equal(got, tc.want) {
			t.Errorf("%s: ResultBacked = %v, want %v", tc.name, got, tc.want)
		}
	}
}

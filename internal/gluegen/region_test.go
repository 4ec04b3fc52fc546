package gluegen

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/alter"
	"repro/internal/model"
)

// regionSpec is a region the striping calls make: a partition, or a 2-D
// block — the intersection of a row and a column partition.
type regionSpec struct {
	expr   string // the Alter expression that makes it
	region model.Region
	covers func(r, c int) bool
}

// randomRegion draws a row, column or replicated partition or a block of a
// rows x cols data set over up to 7 threads, and says by brute force, from
// the partition arithmetic alone, which cells it covers.
func randomRegion(t *testing.T, rng *rand.Rand, rows, cols int) regionSpec {
	t.Helper()
	part := func(kind model.StripeKind, threads, i int) (string, model.Region) {
		r, err := model.Partition(kind, rows, cols, threads, i)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("(partition %q %d %d %d %d)", kind, rows, cols, threads, i), r
	}
	// span is the standard block distribution: thread i of threads owns
	// [i*n/threads, (i+1)*n/threads) of n.
	span := func(n, threads, i int) (lo, hi int) { return i * n / threads, (i + 1) * n / threads }
	var s regionSpec
	if rng.Intn(4) > 0 {
		kind := []model.StripeKind{model.ByRows, model.ByCols, model.Replicated}[rng.Intn(3)]
		threads := 1 + rng.Intn(7)
		i := rng.Intn(threads)
		s.expr, s.region = part(kind, threads, i)
		lo, hi, clo, chi := 0, rows, 0, cols
		switch kind {
		case model.ByRows:
			lo, hi = span(rows, threads, i)
		case model.ByCols:
			clo, chi = span(cols, threads, i)
		}
		s.covers = func(r, c int) bool { return lo <= r && r < hi && clo <= c && c < chi }
		return s
	}
	rowT, colT := 1+rng.Intn(7), 1+rng.Intn(7)
	rowI, colI := rng.Intn(rowT), rng.Intn(colT)
	re, rr := part(model.ByRows, rowT, rowI)
	ce, cr := part(model.ByCols, colT, colI)
	if s.region = rr.Intersect(cr); s.region.Empty() {
		return randomRegion(t, rng, rows, cols) // an empty block is nil, not a region
	}
	s.expr = "(intersect " + re + " " + ce + ")"
	lo, hi := span(rows, rowT, rowI)
	clo, chi := span(cols, colT, colI)
	s.covers = func(r, c int) bool { return lo <= r && r < hi && clo <= c && c < chi }
	return s
}

// TestIntersectMatchesModel: over seeded shapes, (intersect a b) of two
// regions the striping calls make is model.Region.Intersect of the same
// two, and covers — by brute force over every cell — exactly the cells both
// cover; nil exactly when they share none.
func TestIntersectMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	interp, _, _ := NewInterp(tinyInput(t))
	disjoint := 0
	for n := 0; n < 400; n++ {
		rows, cols := 1+rng.Intn(24), 1+rng.Intn(24)
		a, b := randomRegion(t, rng, rows, cols), randomRegion(t, rng, rows, cols)
		src := "(intersect " + a.expr + " " + b.expr + ")"
		v, err := interp.RunString(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		want := a.region.Intersect(b.region)
		got, isRegion := v.(alter.Region)
		switch {
		case v == nil:
			disjoint++
			if !want.Empty() {
				t.Fatalf("%s = nil, model.Region.Intersect says %v", src, want)
			}
		case !isRegion || model.Region(got) != want:
			t.Fatalf("%s = %s, model.Region.Intersect says %v", src, alter.Format(v), want)
		}
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				in := isRegion && got.R0 <= r && r < got.R0+got.Rows && got.C0 <= c && c < got.C0+got.Cols
				if in != (a.covers(r, c) && b.covers(r, c)) {
					t.Fatalf("%s = %s: cell (%d, %d) is wrongly %v", src, alter.Format(v), r, c, in)
				}
			}
		}
	}
	if disjoint < 40 || disjoint > 360 {
		t.Fatalf("%d of 400 pairs were disjoint: the draw tests one outcome too little", disjoint)
	}
}

// TestRegionDatum: a region prints as (r0 c0 rows cols) under write,
// display, ~a and ~s; intersect and region-elems take that four-element list
// too; a malformed region is refused.
func TestRegionDatum(t *testing.T) {
	interp, _, _ := NewInterp(tinyInput(t))
	for _, c := range []struct{ src, want string }{
		{`(partition "rows" 8 6 2 1)`, "(4 0 4 6)"},
		{`(format "~a|~s" (partition "cols" 8 6 3 2) (partition "replicated" 8 6 3 2))`, `"(0 4 8 2)|(0 0 8 6)"`},
		{`(string-append (partition "rows" 300 300 2 1))`, `"(150 0 150 300)"`},
		{`(intersect '(0 0 4 4) (partition "cols" 8 8 2 0))`, "(0 0 4 4)"},
		{`(intersect (partition "rows" 8 8 2 1) '(2 2 4 4))`, "(4 2 2 4)"},
		{`(intersect (partition "rows" 8 8 2 0) (partition "rows" 8 8 2 1))`, "nil"},
		{`(region-elems '(1 1 2 3))`, "6"},
		{`(region-elems (partition "rows" 9 4 2 0))`, "16"},
		{`(region-elems (intersect '(0 0 2 2) '(5 5 1 1)))`, "error: region-elems: expected region (r0 c0 rows cols), got nil"},
		{`(intersect '(0 0 4) '(0 0 4 4))`, "error: intersect: expected region (r0 c0 rows cols), got (0 0 4)"},
	} {
		v, err := interp.RunString(c.src)
		got := alter.Format(v)
		if err != nil {
			got = "error: " + err.Error()
		}
		if got != c.want {
			t.Errorf("%s = %s, want %s", c.src, got, c.want)
		}
	}
	var b strings.Builder
	alter.WriteDisplay(&b, alter.Region{R0: -1, C0: 2, Rows: 1 << 40, Cols: 0})
	if b.String() != "(-1 2 1099511627776 0)" {
		t.Errorf("display of a region = %s", b.String())
	}
	if alter.TypeName(alter.Region{}) != "region" {
		t.Errorf("a region's type name is %s", alter.TypeName(alter.Region{}))
	}
}

package gluegen

import (
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/model"
)

// pairwiseOverlap is Verify's pairwise loop as a predicate: do any two of the
// regions intersect?
func pairwiseOverlap(xs []Transfer, mine []int) bool {
	for a, ka := range mine {
		for _, kc := range mine[a+1:] {
			if !xs[ka].Region.Intersect(xs[kc].Region).Empty() {
				return true
			}
		}
	}
	return false
}

// gridTooBig reports whether the regions' bounds cut more cells than there
// are pairs of non-empty regions, where mayOverlap answers true unpainted.
func gridTooBig(xs []Transfer, mine []int) bool {
	rows, cols := map[int]bool{}, map[int]bool{}
	n := 0
	for _, k := range mine {
		if r := xs[k].Region; !r.Empty() {
			rows[r.R0], rows[r.R0+r.Rows] = true, true
			cols[r.C0], cols[r.C0+r.Cols] = true, true
			n++
		}
	}
	return n >= 2 && (len(rows)-1)*(len(cols)-1) > n*(n-1)/2
}

// TestRegionGridMatchesPairwise holds mayOverlap to the pairwise loop it lets
// Verify skip, over random region sets — overlapping, disjoint tilings with
// holes, and empty or negative regions mixed in — with one grid reused
// throughout, as Verify reuses it. An overlap must always be reported; a set
// without one must be cleared whenever the grid is small enough to paint.
func TestRegionGridMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var g regionGrid
	var painted, cleared, overlapping int
	for round := 0; round < 20000; round++ {
		var xs []Transfer
		if round%2 == 0 {
			// A random tiling of an up-to-12x12 block by row bands cut into
			// columns, with some tiles dropped: disjoint unless perturbed.
			rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
			for r := 0; r < rows; {
				h := 1 + rng.Intn(rows-r)
				for c := 0; c < cols; {
					w := 1 + rng.Intn(cols-c)
					if rng.Intn(4) != 0 {
						xs = append(xs, Transfer{Region: model.Region{R0: r, C0: c, Rows: h, Cols: w}})
					}
					c += w
				}
				r += h
			}
			if len(xs) > 0 && rng.Intn(4) == 0 {
				x := &xs[rng.Intn(len(xs))]
				x.Region.Rows += rng.Intn(3)
				x.Region.C0 -= rng.Intn(2)
			}
		} else {
			for n := rng.Intn(10); n > 0; n-- {
				xs = append(xs, Transfer{Region: model.Region{
					R0: rng.Intn(10) - 2, C0: rng.Intn(10) - 2,
					Rows: rng.Intn(6) - 1, Cols: rng.Intn(6) - 1,
				}})
			}
		}
		for n := rng.Intn(3); n > 0; n-- { // empty regions overlap nothing
			xs = append(xs, Transfer{Region: model.Region{R0: rng.Intn(8), C0: rng.Intn(8), Rows: -rng.Intn(2), Cols: rng.Intn(3)}})
		}
		rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		mine := make([]int, len(xs))
		for i := range mine {
			mine[i] = i
		}
		got, want := g.mayOverlap(xs, mine), pairwiseOverlap(xs, mine)
		big := gridTooBig(xs, mine)
		switch {
		case want && !got:
			t.Fatalf("round %d: overlapping regions %v cleared", round, xs)
		case !want && got && !big:
			t.Fatalf("round %d: disjoint regions %v not cleared on a paintable grid", round, xs)
		}
		if want {
			overlapping++
		} else if !big {
			painted++
		}
		if !got {
			cleared++
		}
	}
	t.Logf("%d overlapping sets, %d disjoint sets painted, %d cleared", overlapping, painted, cleared)
	if overlapping < 2000 || cleared < 2000 {
		t.Fatalf("the rounds missed a path: %d overlapping, %d cleared", overlapping, cleared)
	}
}

// TestVerifySkipsPairsOnWideTables: on the benchmark's wide shape (fft2d 256
// on 64 threads, a row stripe into a column stripe: every destination thread
// receives 64 tiles) the grid clears every thread, so Verify compares no pair.
func TestVerifySkipsPairsOnWideTables(t *testing.T) {
	tb := genFor(t, apps.FFT2D, 256, 64, 64).Tables
	var g regionGrid
	threads := 0
	for _, b := range tb.Buffers {
		byDst := map[int][]int{}
		for k, x := range b.Transfers {
			byDst[x.DstThread] = append(byDst[x.DstThread], k)
		}
		for j, mine := range byDst {
			if len(mine) > 2 && g.mayOverlap(b.Transfers, mine) {
				t.Fatalf("buffer %d thread %d: %d disjoint transfers not cleared", b.ID, j, len(mine))
			}
			threads++
		}
	}
	if threads == 0 {
		t.Fatal("no transfers")
	}
}

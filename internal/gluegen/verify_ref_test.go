package gluegen

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/funclib"
	"repro/internal/model"
)

// verifyReference is Verify as it was when every destination thread searched
// all of its buffer's transfers: the definition of which errors Verify
// reports, and in what order.
func verifyReference(t *Tables) error {
	var errs []error
	add := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }

	if t.NumNodes < 1 {
		add("gluegen: tables declare %d nodes", t.NumNodes)
	}
	if len(t.Functions) == 0 {
		add("gluegen: tables contain no functions (generator emitted nothing?)")
	}
	for i, f := range t.Functions {
		if f.ID != i {
			add("gluegen: function %q has ID %d at index %d", f.Name, f.ID, i)
		}
		if f.Threads < 1 || len(f.Nodes) != f.Threads {
			add("gluegen: function %q has %d threads and %d nodes", f.Name, f.Threads, len(f.Nodes))
		}
		for _, n := range f.Nodes {
			if n < 0 || n >= t.NumNodes {
				add("gluegen: function %q mapped to node %d of %d", f.Name, n, t.NumNodes)
			}
		}
		if _, err := funclib.Lookup(f.Kind); err != nil {
			add("gluegen: function %q: %v", f.Name, err)
		}
	}
	if len(t.Order) != len(t.Functions) {
		add("gluegen: order lists %d of %d functions", len(t.Order), len(t.Functions))
	}
	seen := map[int]bool{}
	for _, id := range t.Order {
		if id < 0 || id >= len(t.Functions) || seen[id] {
			add("gluegen: bad or duplicate ID %d in order", id)
			continue
		}
		seen[id] = true
	}

	for i, b := range t.Buffers {
		if b.ID != i {
			add("gluegen: buffer %d has ID %d", i, b.ID)
			continue
		}
		src, err := t.Function(b.SrcFn)
		if err != nil {
			add("gluegen: buffer %d: %v", b.ID, err)
			continue
		}
		dst, err := t.Function(b.DstFn)
		if err != nil {
			add("gluegen: buffer %d: %v", b.ID, err)
			continue
		}
		srcPort := findPort(src.Outs, b.SrcPort)
		dstPort := findPort(dst.Ins, b.DstPort)
		if srcPort == nil {
			add("gluegen: buffer %d: source port %s.%s missing", b.ID, src.Name, b.SrcPort)
			continue
		}
		if dstPort == nil {
			add("gluegen: buffer %d: destination port %s.%s missing", b.ID, dst.Name, b.DstPort)
			continue
		}
		if !slices.Contains(srcPort.Buffers, b.ID) || !slices.Contains(dstPort.Buffers, b.ID) {
			add("gluegen: buffer %d not referenced by both its ports", b.ID)
		}
		// Per-destination-thread coverage.
		for j := 0; j < dst.Threads; j++ {
			want, err := model.Partition(dstPort.Striping, b.Rows, b.Cols, dst.Threads, j)
			if err != nil {
				add("gluegen: buffer %d dst thread %d: %v", b.ID, j, err)
				continue
			}
			covered := 0
			var regions []model.Region
			for _, x := range b.Transfers {
				if x.DstThread != j {
					continue
				}
				if x.SrcThread < 0 || x.SrcThread >= src.Threads {
					add("gluegen: buffer %d: transfer from thread %d of %d", b.ID, x.SrcThread, src.Threads)
				}
				if x.Region.Intersect(want) != x.Region {
					add("gluegen: buffer %d: transfer region %v spills outside dst partition %v", b.ID, x.Region, want)
				}
				if x.Bytes != x.Region.Elems()*b.ElemBytes {
					add("gluegen: buffer %d: transfer bytes %d != region %v x %d", b.ID, x.Bytes, x.Region, b.ElemBytes)
				}
				covered += x.Region.Elems()
				regions = append(regions, x.Region)
			}
			for a := range regions {
				for c := a + 1; c < len(regions); c++ {
					if !regions[a].Intersect(regions[c]).Empty() {
						add("gluegen: buffer %d dst thread %d: overlapping transfers %v and %v", b.ID, j, regions[a], regions[c])
					}
				}
			}
			if covered != want.Elems() {
				add("gluegen: buffer %d dst thread %d: transfers cover %d of %d elements", b.ID, j, covered, want.Elems())
			}
		}
	}
	return errors.Join(errs...)
}

// corruptions damage generated tables the ways a bad generator script (or a
// hand-edited table file) does. Each picks its victim with rng.
var corruptions = []struct {
	name  string
	apply func(rng *rand.Rand, tb *Tables)
}{
	{"shifted region", func(rng *rand.Rand, tb *Tables) {
		x := pickTransfer(rng, tb)
		x.Region.R0 += 1 + rng.Intn(3)
	}},
	{"grown region", func(rng *rand.Rand, tb *Tables) {
		x := pickTransfer(rng, tb)
		x.Region.Cols += 1 + rng.Intn(2)
	}},
	{"dropped transfer", func(rng *rand.Rand, tb *Tables) {
		b := pickBuffer(rng, tb)
		k := rng.Intn(len(b.Transfers))
		b.Transfers = append(b.Transfers[:k:k], b.Transfers[k+1:]...)
	}},
	{"duplicated transfer", func(rng *rand.Rand, tb *Tables) {
		b := pickBuffer(rng, tb)
		b.Transfers = append(b.Transfers[:len(b.Transfers):len(b.Transfers)], b.Transfers[rng.Intn(len(b.Transfers))])
	}},
	{"wrong bytes", func(rng *rand.Rand, tb *Tables) {
		pickTransfer(rng, tb).Bytes += 1 + rng.Intn(8)
	}},
	{"stray source thread", func(rng *rand.Rand, tb *Tables) {
		pickTransfer(rng, tb).SrcThread = []int{-1, 64, 99}[rng.Intn(3)]
	}},
	{"stray destination thread", func(rng *rand.Rand, tb *Tables) {
		// Out of range: Verify passes over it (plan.Build refuses it), so
		// the thread it was meant for comes up short.
		pickTransfer(rng, tb).DstThread = []int{-1, 64, 1 << 40}[rng.Intn(3)]
	}},
	{"moved to another destination thread", func(rng *rand.Rand, tb *Tables) {
		// In range but out of place: the transfers are no longer grouped
		// by destination thread.
		x := pickTransfer(rng, tb)
		x.DstThread = (x.DstThread + 1 + rng.Intn(3)) % 4
	}},
	{"shuffled transfers", func(rng *rand.Rand, tb *Tables) {
		b := pickBuffer(rng, tb)
		rng.Shuffle(len(b.Transfers), func(i, j int) { b.Transfers[i], b.Transfers[j] = b.Transfers[j], b.Transfers[i] })
	}},
	{"rewired buffer", func(rng *rand.Rand, tb *Tables) {
		b := pickBuffer(rng, tb)
		switch rng.Intn(4) {
		case 0:
			b.DstFn = 99
		case 1:
			b.SrcPort = "nosuch"
		case 2:
			b.ID += 7
		case 3:
			b.Rows--
		}
	}},
	{"function row", func(rng *rand.Rand, tb *Tables) {
		f := &tb.Functions[rng.Intn(len(tb.Functions))]
		switch rng.Intn(4) {
		case 0:
			f.Threads++
		case 1:
			f.Nodes[0] = 99
		case 2:
			f.Kind = "bogus"
		case 3:
			f.Ins, f.Outs = f.Outs, f.Ins
		}
	}},
}

func pickBuffer(rng *rand.Rand, tb *Tables) *BufferEntry {
	return &tb.Buffers[rng.Intn(len(tb.Buffers))]
}

func pickTransfer(rng *rand.Rand, tb *Tables) *Transfer {
	b := pickBuffer(rng, tb)
	return &b.Transfers[rng.Intn(len(b.Transfers))]
}

// TestVerifyMatchesReference corrupts generated tables with seeded random
// damage, one to three corruptions at a time, and requires the one-pass
// Verify to report exactly what the rescanning one does: the same errors in
// the same order, or none.
func TestVerifyMatchesReference(t *testing.T) {
	builds := []func(n, threads int) (*model.App, error){apps.FFT2D, apps.CornerTurn, apps.STAP}
	rng := rand.New(rand.NewSource(17))
	caught := 0
	for round := 0; round < 400; round++ {
		tb := genFor(t, builds[round%len(builds)], 64, 4, 4).Tables
		if round >= len(builds) { // the first of each app stays intact
			for n := 1 + rng.Intn(3); n > 0; n-- {
				c := corruptions[rng.Intn(len(corruptions))]
				c.apply(rng, tb)
			}
		}
		got, want := fmt.Sprint(tb.Verify()), fmt.Sprint(verifyReference(tb))
		if got != want {
			t.Fatalf("round %d: Verify says\n%s\nthe reference says\n%s", round, got, want)
		}
		if want != "<nil>" {
			caught++
		}
	}
	if caught < 300 {
		t.Fatalf("only %d of 400 rounds produced tables Verify refuses", caught)
	}
	// Each corruption alone, on every transfer-bearing choice the seed makes.
	for _, c := range corruptions {
		tb := genFor(t, apps.FFT2D, 64, 4, 4).Tables
		c.apply(rand.New(rand.NewSource(3)), tb)
		if got, want := fmt.Sprint(tb.Verify()), fmt.Sprint(verifyReference(tb)); got != want {
			t.Errorf("%s: Verify says\n%s\nthe reference says\n%s", c.name, got, want)
		}
	}
}

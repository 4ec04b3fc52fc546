package isspl

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// CacheStats describes the twiddle cache.
type CacheStats struct {
	Entries   int
	Elems     int // base-table complex128 values held (16 bytes each)
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// TwiddleCacheStats reports the cache's current occupancy and hit counters.
func TwiddleCacheStats() CacheStats {
	twiddleMu.RLock()
	defer twiddleMu.RUnlock()
	return CacheStats{
		Entries: len(twiddleCache), Elems: twiddleElems,
		Hits: twiddleHits.Load(), Misses: twiddleMisses, Evictions: twiddleEvictions,
	}
}

// fixedInput builds the same deterministic input for a size every time, so
// outputs can be compared bit for bit across cache states.
func fixedInput(n int) []complex128 {
	x := make([]complex128, n)
	for k := range x {
		x[k] = complex(math.Sin(float64(k)*0.7), math.Cos(float64(k)*1.3))
	}
	return x
}

// TestTwiddleCacheBoundedSoak drives a mixed-size FFT soak through a
// shrunken cache bound and asserts the long-lived-process contract: the
// cache never exceeds its bound, eviction actually happens, and every
// post-eviction transform is bitwise identical to the cold-cache transform
// of the same input (a recomputed twiddle table is the same pure function of
// its size).
func TestTwiddleCacheBoundedSoak(t *testing.T) {
	ResetTwiddleCache()
	oldLimit := twiddleCacheMaxElems
	twiddleCacheMaxElems = 4096
	defer func() {
		twiddleCacheMaxElems = oldLimit
		ResetTwiddleCache()
	}()

	var sizes []int
	for n := 2; n <= 8192; n <<= 1 {
		sizes = append(sizes, n)
	}
	// Cold-cache reference output per size.
	ref := map[int][]complex128{}
	for _, n := range sizes {
		x := fixedInput(n)
		if err := FFT(x); err != nil {
			t.Fatal(err)
		}
		ref[n] = x
	}

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		n := sizes[rng.Intn(len(sizes))]
		x := fixedInput(n)
		if err := FFT(x); err != nil {
			t.Fatal(err)
		}
		for k := range x {
			if x[k] != ref[n][k] {
				t.Fatalf("iteration %d: FFT(%d) diverged bitwise at bin %d after eviction churn", i, n, k)
			}
		}
		if s := TwiddleCacheStats(); s.Elems > twiddleCacheMaxElems {
			t.Fatalf("iteration %d: cache holds %d elems, bound is %d", i, s.Elems, twiddleCacheMaxElems)
		}
	}

	s := TwiddleCacheStats()
	if s.Evictions == 0 {
		t.Fatal("soak produced no evictions; the bound was never exercised")
	}
	if s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("implausible stats: %+v", s)
	}
	if s.Entries > len(sizes) {
		t.Fatalf("cache has %d entries for %d distinct sizes", s.Entries, len(sizes))
	}
}

// TestTwiddleCacheOversizedBypass: a table larger than the whole bound is
// served but never cached, and does not flush resident tables.
func TestTwiddleCacheOversizedBypass(t *testing.T) {
	ResetTwiddleCache()
	oldLimit := twiddleCacheMaxElems
	twiddleCacheMaxElems = 64
	defer func() {
		twiddleCacheMaxElems = oldLimit
		ResetTwiddleCache()
	}()

	_ = twiddles(64) // 32 elems, cached
	before := TwiddleCacheStats()
	if before.Entries != 1 || before.Elems != 32 {
		t.Fatalf("setup: %+v", before)
	}
	w := twiddles(1024) // 512 elems > bound: bypass
	if len(w) != 512 {
		t.Fatalf("oversized table has %d elems", len(w))
	}
	after := TwiddleCacheStats()
	if after.Entries != 1 || after.Elems != 32 {
		t.Fatalf("oversized request disturbed the cache: %+v", after)
	}
	if after.Evictions != 0 {
		t.Fatalf("oversized request evicted residents: %+v", after)
	}
}

// TestTwiddleCacheConcurrentTransforms runs row transforms of a few sizes
// from several goroutines through a bound small enough to evict — hits stamp
// their plan without the write lock while misses publish and evict under it
// (run with -race) — and every result equals the single-goroutine one.
func TestTwiddleCacheConcurrentTransforms(t *testing.T) {
	ResetTwiddleCache()
	oldLimit := twiddleCacheMaxElems
	twiddleCacheMaxElems = 96 // the tables of 32, 64 and 128 (16 + 32 + 64 values) do not fit together; 256's bypasses
	defer func() {
		twiddleCacheMaxElems = oldLimit
		ResetTwiddleCache()
	}()
	sizes := []int{32, 64, 128, 256}
	ref := map[int][]complex128{}
	for _, n := range sizes {
		x := fixedInput(4 * n)
		if err := FFTRows(x, 4, n); err != nil {
			t.Fatal(err)
		}
		ref[n] = x
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := sizes[(g+i)%len(sizes)]
				x := fixedInput(4 * n)
				if err := FFTRows(x, 4, n); err != nil {
					t.Error(err)
					return
				}
				if d := firstBitDiff(x, ref[n], false); d >= 0 {
					t.Errorf("goroutine %d: FFTRows(4x%d) diverged at sample %d", g, n, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s := TwiddleCacheStats(); s.Elems > twiddleCacheMaxElems || s.Hits == 0 || s.Evictions == 0 {
		t.Fatalf("implausible stats: %+v", s)
	}
}

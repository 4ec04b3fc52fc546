package mpi

import (
	"fmt"
	"math/rand"
	"testing"
)

// Property-based checks of the collective algorithms: all three all-to-all
// schedules must move identical data for any node count and payload mix, and
// gather must invert scatter. Sizes and payloads are drawn from a fixed-seed
// RNG so failures reproduce.

// randParts builds one personalised payload per destination rank, with
// random sizes and random (but per-cell deterministic) contents.
func randParts(rng *rand.Rand, me, n int) []Payload {
	parts := make([]Payload, n)
	for dst := 0; dst < n; dst++ {
		elems := 1 + rng.Intn(16)
		data := make([]complex128, elems)
		for i := range data {
			// Content encodes (src, dst, index) so misrouted blocks are
			// detected, not just missing ones.
			data[i] = complex(float64(me*1000+dst), float64(i))
		}
		parts[dst] = ComplexPayload(data)
	}
	return parts
}

// runAlltoall executes one all-to-all under the given algorithm and returns
// every rank's received blocks, indexed [rank][src].
func runAlltoall(t *testing.T, nodes int, alg AlltoallAlgorithm, seed int64) [][]Payload {
	t.Helper()
	k, w := world(nodes)
	got := make([][]Payload, nodes)
	w.Launch("a2a", func(r *Rank) {
		// Per-rank RNG with a rank-dependent seed keeps sizes independent
		// across ranks but identical across algorithms.
		rng := rand.New(rand.NewSource(seed + int64(r.ID())))
		got[r.ID()] = r.Alltoall(randParts(rng, r.ID(), nodes), alg)
	})
	run(t, k)
	return got
}

func payloadsEqual(a, b Payload) bool {
	if a.Bytes != b.Bytes {
		return false
	}
	av, bv := a.Complex(), b.Complex()
	if len(av) != len(bv) {
		return false
	}
	for i := range av {
		if av[i] != bv[i] {
			return false
		}
	}
	return true
}

// TestAlltoallAlgorithmsAgree checks that direct, pairwise and Bruck move
// the same data for random node counts (including non-powers of two, which
// exercise the ring schedule and the reduce+bcast fallback paths).
func TestAlltoallAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	algs := []AlltoallAlgorithm{AlltoallDirect, AlltoallPairwise, AlltoallBruck}
	for trial := 0; trial < 8; trial++ {
		nodes := 1 + rng.Intn(12)
		seed := rng.Int63()
		t.Run(fmt.Sprintf("trial%d_nodes%d", trial, nodes), func(t *testing.T) {
			ref := runAlltoall(t, nodes, algs[0], seed)
			for _, alg := range algs[1:] {
				got := runAlltoall(t, nodes, alg, seed)
				for rank := 0; rank < nodes; rank++ {
					for src := 0; src < nodes; src++ {
						if !payloadsEqual(ref[rank][src], got[rank][src]) {
							t.Fatalf("%s: rank %d block from %d differs from %s:\n %v\n vs %v",
								alg, rank, src, algs[0], got[rank][src].Complex(), ref[rank][src].Complex())
						}
					}
				}
			}
		})
	}
}

// TestGatherScatterRoundTrip checks that scattering random blocks from a
// random root and gathering them back at another random root reconstructs
// the original data for random node counts.
func TestGatherScatterRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		nodes := 1 + rng.Intn(12)
		scatterRoot := rng.Intn(nodes)
		gatherRoot := rng.Intn(nodes)
		orig := make([][]complex128, nodes)
		for q := range orig {
			elems := 1 + rng.Intn(16)
			orig[q] = make([]complex128, elems)
			for i := range orig[q] {
				orig[q][i] = complex(rng.Float64(), rng.Float64())
			}
		}
		t.Run(fmt.Sprintf("trial%d_nodes%d", trial, nodes), func(t *testing.T) {
			k, w := world(nodes)
			var back []Payload
			w.Launch("rt", func(r *Rank) {
				var parts []Payload
				if r.ID() == scatterRoot {
					parts = make([]Payload, nodes)
					for q := 0; q < nodes; q++ {
						parts[q] = ComplexPayload(orig[q])
					}
				}
				mine := r.Scatter(scatterRoot, parts)
				got := r.Gather(gatherRoot, mine)
				if r.ID() == gatherRoot {
					back = got
				}
			})
			run(t, k)
			if len(back) != nodes {
				t.Fatalf("gathered %d blocks, want %d", len(back), nodes)
			}
			for q := 0; q < nodes; q++ {
				if !payloadsEqual(back[q], ComplexPayload(orig[q])) {
					t.Fatalf("rank %d's block corrupted in scatter(%d)->gather(%d) round trip:\n %v\n vs %v",
						q, scatterRoot, gatherRoot, back[q].Complex(), orig[q])
				}
			}
		})
	}
}

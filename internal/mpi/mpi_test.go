package mpi

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/platforms"
	"repro/internal/sim"
)

// world builds an n-node CSPI world on a fresh kernel.
func world(n int) (*sim.Kernel, *World) {
	k := sim.NewKernel()
	m := machine.New(k, platforms.CSPI(), n)
	return k, NewWorld(m)
}

func run(t *testing.T, k *sim.Kernel) {
	t.Helper()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvDeliversPayload(t *testing.T) {
	k, w := world(2)
	var got []complex128
	w.Launch("t", func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 7, ComplexPayload([]complex128{1 + 2i, 3 + 4i}))
		} else {
			got = r.Recv(0, 7).Complex()
		}
	})
	run(t, k)
	if len(got) != 2 || got[0] != 1+2i || got[1] != 3+4i {
		t.Fatalf("got %v", got)
	}
}

func TestSendChargesVirtualTime(t *testing.T) {
	k, w := world(2)
	var sendDone, recvDone sim.Time
	const nBytes = 160000 // 1 ms at 160 MB/s inter-board... nodes 0,1 share a board
	w.Launch("t", func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1, Payload{Bytes: nBytes})
			sendDone = r.Proc().Now()
		} else {
			r.Recv(0, 1)
			recvDone = r.Proc().Now()
		}
	})
	run(t, k)
	if sendDone == 0 {
		t.Fatal("send finished at t=0: no time charged")
	}
	if recvDone <= sendDone {
		t.Fatalf("recv (%v) should complete after send (%v): latency + recv overhead", recvDone, sendDone)
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	k, w := world(2)
	var first, second int
	w.Launch("t", func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 100, Payload{Data: 100})
			r.Send(1, 200, Payload{Data: 200})
		} else {
			// Receive in the opposite order of sending.
			second = r.Recv(0, 200).Data.(int)
			first = r.Recv(0, 100).Data.(int)
		}
	})
	run(t, k)
	if first != 100 || second != 200 {
		t.Fatalf("first=%d second=%d", first, second)
	}
}

func TestSameTagFIFOOrder(t *testing.T) {
	k, w := world(2)
	var got []int
	w.Launch("t", func(r *Rank) {
		if r.ID() == 0 {
			for i := 0; i < 5; i++ {
				r.Send(1, 3, Payload{Bytes: 8, Data: i})
			}
		} else {
			for i := 0; i < 5; i++ {
				got = append(got, r.Recv(0, 3).Data.(int))
			}
		}
	})
	run(t, k)
	for i, v := range got {
		if v != i {
			t.Fatalf("out-of-order same-tag delivery: %v", got)
		}
	}
}

func TestMultipleThreadsPerRank(t *testing.T) {
	// Two simulated threads attached to the same rank receive
	// independently via distinct tags.
	k, w := world(2)
	results := make(map[int]int)
	w.Launch("main", func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 10, Payload{Data: 10})
			r.Send(1, 11, Payload{Data: 11})
		}
	})
	for tid := 10; tid <= 11; tid++ {
		tid := tid
		k.Spawn(fmt.Sprintf("thread%d", tid), func(p *sim.Proc) {
			r := w.Attach(1, p)
			results[tid] = r.Recv(0, tid).Data.(int)
		})
	}
	run(t, k)
	if results[10] != 10 || results[11] != 11 {
		t.Fatalf("results = %v", results)
	}
}

func TestBarrierSynchronises(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			k, w := world(n)
			release := make([]sim.Time, n)
			arrive := make([]sim.Time, n)
			w.Launch("t", func(r *Rank) {
				r.Proc().Sleep(sim.Duration(r.ID()+1) * 1000000) // 1..n ms
				arrive[r.ID()] = r.Proc().Now()
				r.Barrier()
				release[r.ID()] = r.Proc().Now()
			})
			run(t, k)
			latest := arrive[n-1]
			for i, rel := range release {
				if rel < latest {
					t.Fatalf("rank %d released at %v before last arrival %v", i, rel, latest)
				}
			}
		})
	}
}

func TestGatherCollectsInSourceOrder(t *testing.T) {
	k, w := world(4)
	var got []Payload
	w.Launch("t", func(r *Rank) {
		res := r.Gather(2, Payload{Bytes: 8, Data: r.ID() * 10})
		if r.ID() == 2 {
			got = res
		}
	})
	run(t, k)
	if got == nil {
		t.Fatal("root got nil")
	}
	for i, p := range got {
		if p.Data.(int) != i*10 {
			t.Fatalf("slot %d = %v", i, p.Data)
		}
	}
}

func TestScatterDistributes(t *testing.T) {
	k, w := world(4)
	got := make([]int, 4)
	w.Launch("t", func(r *Rank) {
		var parts []Payload
		if r.ID() == 1 {
			for i := 0; i < 4; i++ {
				parts = append(parts, Payload{Bytes: 8, Data: i + 100})
			}
		}
		got[r.ID()] = r.Scatter(1, parts).Data.(int)
	})
	run(t, k)
	for i, v := range got {
		if v != i+100 {
			t.Fatalf("rank %d got %d", i, v)
		}
	}
}

// checkAlltoall verifies the exchange semantics for a given algorithm and
// world size: rank s sends value s*1000+d to rank d.
func checkAlltoall(t *testing.T, alg AlltoallAlgorithm, n int) {
	t.Helper()
	k, w := world(n)
	results := make([][]Payload, n)
	w.Launch("t", func(r *Rank) {
		parts := make([]Payload, n)
		for d := 0; d < n; d++ {
			parts[d] = Payload{Bytes: 64, Data: r.ID()*1000 + d}
		}
		results[r.ID()] = r.Alltoall(parts, alg)
	})
	run(t, k)
	for d := 0; d < n; d++ {
		if len(results[d]) != n {
			t.Fatalf("rank %d result size %d", d, len(results[d]))
		}
		for s := 0; s < n; s++ {
			want := s*1000 + d
			if got := results[d][s].Data.(int); got != want {
				t.Fatalf("alg=%s n=%d: rank %d slot %d = %d, want %d", alg, n, d, s, got, want)
			}
		}
	}
}

func TestAlltoallAllAlgorithmsAllSizes(t *testing.T) {
	for _, alg := range []AlltoallAlgorithm{AlltoallDirect, AlltoallPairwise, AlltoallBruck} {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
			alg, n := alg, n
			t.Run(fmt.Sprintf("%s/n=%d", alg, n), func(t *testing.T) {
				checkAlltoall(t, alg, n)
			})
		}
	}
}

func TestAlltoallAlgorithmsAgreeProperty(t *testing.T) {
	// Property: all three algorithms produce identical exchanges for
	// arbitrary payload contents.
	check := func(seed int64, sizeRaw uint8) bool {
		n := 2 + int(sizeRaw%7) // 2..8
		rng := rand.New(rand.NewSource(seed))
		data := make([][]int, n)
		for s := range data {
			data[s] = make([]int, n)
			for d := range data[s] {
				data[s][d] = rng.Int()
			}
		}
		var outputs [3][][]Payload
		for ai, alg := range []AlltoallAlgorithm{AlltoallDirect, AlltoallPairwise, AlltoallBruck} {
			k, w := world(n)
			results := make([][]Payload, n)
			w.Launch("t", func(r *Rank) {
				parts := make([]Payload, n)
				for d := 0; d < n; d++ {
					parts[d] = Payload{Bytes: 8, Data: data[r.ID()][d]}
				}
				results[r.ID()] = r.Alltoall(parts, alg)
			})
			if err := k.Run(); err != nil {
				return false
			}
			outputs[ai] = results
		}
		for d := 0; d < n; d++ {
			for s := 0; s < n; s++ {
				v := outputs[0][d][s].Data.(int)
				if outputs[1][d][s].Data.(int) != v || outputs[2][d][s].Data.(int) != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBruckFewerMessagesThanDirect(t *testing.T) {
	// Bruck should send O(log n) messages per rank vs n-1 for direct.
	count := func(alg AlltoallAlgorithm) int {
		k, w := world(8)
		w.Launch("t", func(r *Rank) {
			parts := make([]Payload, 8)
			for d := range parts {
				parts[d] = Payload{Bytes: 1024}
			}
			r.Alltoall(parts, alg)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return w.Mach.Node(0).MsgsSent
	}
	direct := count(AlltoallDirect)
	bruck := count(AlltoallBruck)
	if bruck >= direct {
		t.Fatalf("bruck sent %d msgs, direct %d; want fewer", bruck, direct)
	}
}

func TestAlltoallDeterministicTiming(t *testing.T) {
	elapsed := func() sim.Time {
		k, w := world(8)
		w.Launch("t", func(r *Rank) {
			parts := make([]Payload, 8)
			for d := range parts {
				parts[d] = Payload{Bytes: 128 * 1024}
			}
			r.Alltoall(parts, AlltoallPairwise)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Now()
	}
	a, b := elapsed(), elapsed()
	if a != b {
		t.Fatalf("nondeterministic timing: %v vs %v", a, b)
	}
	if a == 0 {
		t.Fatal("alltoall took zero virtual time")
	}
}

func TestAlgorithmFor(t *testing.T) {
	cases := map[string]AlltoallAlgorithm{
		"direct":   AlltoallDirect,
		"pairwise": AlltoallPairwise,
		"bruck":    AlltoallBruck,
		"":         AlltoallPairwise,
		"bogus":    AlltoallPairwise,
	}
	for in, want := range cases {
		if got := AlgorithmFor(in); got != want {
			t.Errorf("AlgorithmFor(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestSendInvalidRankPanics(t *testing.T) {
	k, w := world(2)
	panicked := false
	w.Launch("t", func(r *Rank) {
		if r.ID() == 0 {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			r.Send(5, 0, Empty())
		}
	})
	_ = k.Run()
	if !panicked {
		t.Fatal("send to invalid rank did not panic")
	}
}

func TestPayloadHelpers(t *testing.T) {
	c := ComplexPayload(make([]complex128, 10))
	if c.Bytes != 80 {
		t.Fatalf("complex payload bytes = %d, want 80 (single precision wire)", c.Bytes)
	}
	if Empty().Bytes != 0 {
		t.Fatal("empty payload has bytes")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Complex() on wrong type did not panic")
		}
	}()
	_ = Payload{Bytes: 40, Data: make([]float64, 10)}.Complex()
}

func TestContentionSharedFabricSlowsTransfers(t *testing.T) {
	// With FabricConcurrency=1, two simultaneous inter-board transfers
	// must serialise; with a crossbar they overlap.
	elapsed := func(conc int) sim.Time {
		pl := platforms.CSPI()
		pl.FabricConcurrency = conc
		k := sim.NewKernel()
		m := machine.New(k, pl, 8)
		w := NewWorld(m)
		w.Launch("t", func(r *Rank) {
			// Ranks 0 and 1 (board 0) send to 4 and 5 (board 1).
			switch r.ID() {
			case 0:
				r.Send(4, 1, Payload{Bytes: 1 << 20})
			case 1:
				r.Send(5, 1, Payload{Bytes: 1 << 20})
			case 4:
				r.Recv(0, 1)
			case 5:
				r.Recv(1, 1)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Now()
	}
	serial := elapsed(1)
	parallel := elapsed(0)
	if serial <= parallel {
		t.Fatalf("shared fabric (%v) not slower than crossbar (%v)", serial, parallel)
	}
}

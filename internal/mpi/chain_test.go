package mpi

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/platforms"
	"repro/internal/sim"
)

// twoRanks runs a and b as the processes of world ranks 0 and 4 of an
// eight-node machine — two boards apart, so on SKY every message crosses the
// shared fabric — and returns the kernel after the run.
func twoRanks(t testing.TB, pl machine.Platform, a, b func(r *Rank)) *sim.Kernel {
	k := sim.NewKernel()
	w := NewWorld(machine.New(k, pl, 8))
	k.Spawn("a", func(p *sim.Proc) { a(w.Attach(0, p)) })
	k.Spawn("b", func(p *sim.Proc) { b(w.Attach(4, p)) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return k
}

// TestSwitchPerMessageSide: with a message side held in one park — pack
// copy, send overhead and wire on one side; arrival, receive overhead and
// unpack copy on the other — a two-rank stream and a ping-pong pay at most
// one process switch per message side (plus the two process starts), with
// and without copies, on a crossbar (Mercury) and a shared fabric (SKY).
func TestSwitchPerMessageSide(t *testing.T) {
	const n = 200
	body := Payload{Bytes: 4096}
	for _, pl := range []machine.Platform{platforms.Mercury(), platforms.SKY()} {
		for _, copyBytes := range []int{0, body.Bytes} {
			for _, pingPong := range []bool{false, true} {
				send := func(r *Rank, peer, tag int) { r.SendPacked(peer, tag, body, copyBytes) }
				recv := func(r *Rank, peer, tag int) { r.RecvUnpacked(peer, tag, copyBytes) }
				k := twoRanks(t, pl, func(r *Rank) {
					for i := 0; i < n; i++ {
						send(r, 4, 1)
						if pingPong {
							recv(r, 4, 2)
						}
					}
				}, func(r *Rank) {
					for i := 0; i < n; i++ {
						recv(r, 0, 1)
						if pingPong {
							send(r, 0, 2)
						}
					}
				})
				msgs := n
				if pingPong {
					msgs *= 2
				}
				t.Logf("%s copy=%d ping-pong=%v: %d messages, %d dispatches, %d switches", pl.Name, copyBytes, pingPong, msgs, k.Dispatched(), k.Switches())
				if sides := uint64(2 * msgs); k.Switches() > sides+2 {
					t.Errorf("%s copy=%d ping-pong=%v: %d switches for %d message sides, want <= one per side and the two starts",
						pl.Name, copyBytes, pingPong, k.Switches(), sides)
				}
			}
		}
	}
}

// TestMachineAllocCeiling: a 1 024-node machine and its MPI world are a
// handful of allocations and two tables of pointers — a node and an
// endpoint are built on first use, from small chunks, and no resource name
// is formatted until a tracer or a deadlock report asks (9 766 objects,
// 3 584 of them names, when each was its own object; 13 objects and 329 kB
// when every node and endpoint was built up front: 19 kB now). A rank
// attached costs its Rank handle; its node and endpoint come from chunks
// (machine.Chunk): for 128 ranks, ten of each — 4, 4, 8, then 16s.
func TestMachineAllocCeiling(t *testing.T) {
	pl := platforms.Mercury()
	k := sim.NewKernel()
	var w *World
	allocs := testing.AllocsPerRun(5, func() { w = NewWorld(machine.New(k, pl, 1024)) })
	bytes := allocBytes(func() { w = NewWorld(machine.New(k, pl, 1024)) })
	t.Logf("machine.New + mpi.NewWorld for 1 024 nodes: %.0f allocations, %d bytes", allocs, bytes)
	if allocs > 64 || bytes > 24<<10 {
		t.Fatalf("machine.New + mpi.NewWorld for 1 024 nodes allocate %.0f objects and %d bytes, want <= 64 and <= 24 kB", allocs, bytes)
	}
	used := testing.AllocsPerRun(5, func() {
		w = NewWorld(machine.New(k, pl, 1024))
		for i := 0; i < 1024; i += 8 {
			w.Attach(i, nil)
		}
	}) - allocs
	t.Logf("128 of them attached: %.0f more allocations", used)
	if used > 128+2*10 {
		t.Fatalf("attaching 128 ranks allocates %.0f objects, want a handle a rank and ten chunks each of nodes and endpoints", used)
	}
}

// allocBytes reports the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTimedRecvAllocFree: a timed receive arms a pooled timer record whose
// expire func was bound once, not a closure per wait, so a warmed ping-pong
// of RecvTimeouts — every timer going stale after its message won — costs no
// allocation per message. The rate is marginal, as in
// TestMessageInFlightAllocFree.
func TestTimedRecvAllocFree(t *testing.T) {
	body := Payload{Bytes: 64, Data: new([4]complex128)}
	measure := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() {
			k, w := world(2)
			w.Launch("pp", func(r *Rank) {
				peer := 1 - r.ID()
				for i := 0; i < rounds; i++ {
					if r.ID() == 0 {
						r.Send(peer, 3, body)
						if _, ok := r.RecvTimeout(peer, 4, 100*time.Microsecond); !ok {
							t.Error("reply timed out")
						}
					} else {
						if _, ok := r.RecvTimeout(peer, 3, 100*time.Microsecond); !ok {
							t.Error("request timed out")
						}
						r.Send(peer, 4, body)
					}
				}
			})
			run(t, k)
		})
	}
	const short, long = 50, 550
	measure(long)
	if perMsg := (measure(long) - measure(short)) / (2 * (long - short)); perMsg > 0.01 {
		t.Fatalf("a timed receive allocates %.3f objects per message, want 0", perMsg)
	}
}

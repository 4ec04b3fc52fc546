package machine

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// The node CPU's time-slicing runs in the kernel (sim.Proc.Hold):
// a burst parks its process once, whatever its length and however many
// co-located threads it round-robins with. These gates count the process
// switches that remain.

// TestSwitchPerBurstAlone: a process alone on its node is resumed at most
// once per burst whatever d is — 1 ns, a quantum, 4 000 quanta.
func TestSwitchPerBurstAlone(t *testing.T) {
	bursts := []sim.Duration{1, cpuQuantum, cpuQuantum + 1, 40 * cpuQuantum, 4000 * cpuQuantum}
	for _, neighbours := range []int{0, 1} {
		k := sim.NewKernel()
		m := New(k, testPlatform(), 1+neighbours)
		for n := 0; n <= neighbours; n++ {
			nd := m.Node(n)
			k.Spawn("p", func(p *sim.Proc) {
				for _, d := range bursts {
					nd.ComputeTime(p, d+sim.Duration(nd.ID)) // keep the neighbour out of step
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		procs := uint64(1 + neighbours)
		if got, max := k.Switches(), procs*uint64(1+len(bursts)); got > max {
			t.Fatalf("%d neighbour(s): %d switches for %d dispatches, want <= %d (one start and one wake per burst per process)",
				neighbours, got, k.Dispatched(), max)
		}
		if neighbours == 0 && k.Switches() != 1 {
			// Nobody else to hand over to: after its start the process only
			// ever meets its own wake.
			t.Fatalf("a process alone in the kernel switched %d times, want 1 (its start)", k.Switches())
		}
	}
}

// TestSwitchColocatedBursts: four co-located 10 ms bursts round-robin through
// 160 quanta — 323 events, all but a handful of which used to resume a
// process — on four starts and four final wakes.
func TestSwitchColocatedBursts(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, testPlatform(), 1)
	var done [4]sim.Time
	for i := range done {
		i := i
		k.Spawn("t", func(p *sim.Proc) {
			m.Node(0).ComputeTime(p, 10*time.Millisecond)
			done[i] = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, at := range done {
		// Round-robin: thread i takes the last of its 40 quanta i quanta
		// before the end.
		if want := sim.Time(40*time.Millisecond - sim.Duration(3-i)*cpuQuantum); at != want {
			t.Fatalf("thread %d finished at %v, want %v", i, at, want)
		}
	}
	if got := k.Switches(); got > 8 {
		t.Fatalf("%d switches for %d dispatches, want <= 8", got, k.Dispatched())
	}
}

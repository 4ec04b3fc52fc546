package sim

import (
	"testing"
	"time"
)

// Allocation-regression ceilings for the event fast path. The pooled-event
// scheduler is designed to be allocation-free in steady state: events come
// from the kernel's free list, same-time wakes ride the FIFO lane, process
// handoffs are coroutine switches, and resource waits use the Proc-embedded
// waiter. These tests pin that property with
// testing.AllocsPerRun so a future change cannot quietly reintroduce
// per-event garbage.

// TestScheduleAllocFree pins the timer path (heap + pooled events) at zero
// steady-state allocations. The tick closure is created once outside the
// measured function; the first run warms the event free list.
func TestScheduleAllocFree(t *testing.T) {
	k := NewKernel()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 1000 {
			k.After(time.Microsecond, tick)
		}
	}
	run := func() {
		n = 0
		k.After(time.Microsecond, tick)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(5, run); avg > 0 {
		t.Fatalf("timer scheduling allocates %.1f per 1000-event run, want 0", avg)
	}
}

// TestSameTimeFIFOAllocFree pins the zero-delay fast lane (schedule/After at
// the current instant skips the heap entirely).
func TestSameTimeFIFOAllocFree(t *testing.T) {
	k := NewKernel()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 1000 {
			k.After(0, tick)
		}
	}
	run := func() {
		n = 0
		k.After(0, tick)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(5, run); avg > 0 {
		t.Fatalf("same-time scheduling allocates %.1f per 1000-event run, want 0", avg)
	}
}

// marginalAllocs runs a whole scenario at two operation counts and returns
// the extra allocations per additional operation. Fixed costs (kernel,
// channels, process spawns, coroutine stacks) cancel out, leaving the
// steady-state per-operation rate.
func marginalAllocs(t *testing.T, scenario func(ops int)) float64 {
	t.Helper()
	const small, large = 100, 1100
	measure := func(ops int) float64 {
		return testing.AllocsPerRun(5, func() { scenario(ops) })
	}
	measure(large) // warm runtime pools before either measurement
	base := measure(small)
	big := measure(large)
	return (big - base) / float64(large-small)
}

// TestChanExchangeAllocCeiling pins the producer/consumer exchange —
// Send + same-time wake + Recv + direct process handoff — at (amortised)
// zero allocations per operation.
func TestChanExchangeAllocCeiling(t *testing.T) {
	perOp := marginalAllocs(t, func(ops int) {
		k := NewKernel()
		c := NewChan[int](k, "data")
		k.Spawn("tx", func(p *Proc) {
			for i := 0; i < ops; i++ {
				c.Send(i)
				p.Sleep(0)
			}
		})
		k.Spawn("rx", func(p *Proc) {
			for i := 0; i < ops; i++ {
				c.Recv(p)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if perOp > 0.01 {
		t.Fatalf("channel exchange allocates %.3f per op, want 0", perOp)
	}
}

// TestResourceUseAllocCeiling pins contended resource acquisition (four
// processes on a capacity-1 resource, Proc-embedded waiters).
func TestResourceUseAllocCeiling(t *testing.T) {
	perOp := marginalAllocs(t, func(ops int) {
		k := NewKernel()
		r := NewResource(k, "bus", 1)
		for i := 0; i < 4; i++ {
			k.Spawn("u", func(p *Proc) {
				for j := 0; j < ops/4; j++ {
					r.Use(p, 1, time.Microsecond)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if perOp > 0.01 {
		t.Fatalf("contended resource use allocates %.3f per op, want 0", perOp)
	}
}

// TestSlicedHoldAllocFree pins the sliced hold — per-process state embedded
// in Proc, step events that carry the Proc and one bit — at zero allocations
// per burst, alone on the resource and round-robining with three others.
func TestSlicedHoldAllocFree(t *testing.T) {
	for _, procs := range []int{1, 4} {
		perBurst := marginalAllocs(t, func(bursts int) {
			k := NewKernel()
			r := NewResource(k, "cpu", 1)
			for i := 0; i < procs; i++ {
				k.Spawn("u", func(p *Proc) {
					for j := 0; j < bursts/procs; j++ {
						r.HoldSliced(p, 3*time.Microsecond+1, time.Microsecond, nil)
					}
				})
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
		})
		if perBurst > 0.01 {
			t.Fatalf("%d process(es): a sliced hold allocates %.3f per burst, want 0", procs, perBurst)
		}
	}
}

// TestProcSpawnAllocCeiling pins what one process costs from Spawn to its
// end: the Proc plus the coroutine iter.Pull builds for it (its state and
// closures, 14 objects on go1.24; the channel hand-off kernel paid 4 for a
// Proc, a channel and a goroutine). Simulations spawn processes per thread,
// not per event, so this is a fixed cost — the ceiling is here so it stays
// one.
func TestProcSpawnAllocCeiling(t *testing.T) {
	body := func(p *Proc) { p.Sleep(0) }
	perProc := marginalAllocs(t, func(procs int) {
		k := NewKernel()
		for i := 0; i < procs; i++ {
			k.Spawn("w", body)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if perProc > 16 {
		t.Fatalf("a spawned and finished process allocates %.1f objects, want <= 16", perProc)
	}
}

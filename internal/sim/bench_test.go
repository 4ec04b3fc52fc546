package sim

import (
	"testing"
	"time"
)

// BenchmarkKernelSchedule measures the event scheduling core: one timer
// event scheduled and dispatched per op, no process involvement. This is
// the scheduling loop the repo benchmark's sim.schedule_ns_per_event times.
func BenchmarkKernelSchedule(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(time.Microsecond, tick)
		}
	}
	k.After(time.Microsecond, tick)
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelScheduleFanout measures a burst-heavy queue: each op pushes
// 16 timers at mixed offsets and drains them, exercising the heap rather
// than the same-time fast lane.
func BenchmarkKernelScheduleFanout(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	nop := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 16; j++ {
			k.After(Duration(j%7)*time.Microsecond, nop)
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProcSwitch measures the park/resume process handoff: two
// processes alternately sleeping, so every iteration is a full
// process-to-process context switch through the scheduler.
func BenchmarkProcSwitch(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	rounds := b.N/2 + 1
	for i := 0; i < 2; i++ {
		k.Spawn("p", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkChanSendRecv measures the mailbox hot path: a producer and a
// consumer exchanging one value per iteration at the same virtual instant.
func BenchmarkChanSendRecv(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	c := NewChan[int](k, "bench")
	n := b.N
	k.Spawn("tx", func(p *Proc) {
		for i := 0; i < n; i++ {
			c.Send(i)
			p.Sleep(0)
		}
	})
	k.Spawn("rx", func(p *Proc) {
		for i := 0; i < n; i++ {
			c.Recv(p)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkResourceUse measures contended resource acquisition: four
// processes time-sharing a single-capacity resource.
func BenchmarkResourceUse(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	r := NewResource(k, "cpu", 1)
	rounds := b.N/4 + 1
	for i := 0; i < 4; i++ {
		k.Spawn("u", func(p *Proc) {
			for j := 0; j < rounds; j++ {
				r.Use(p, 1, time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchSlicedHold measures the sliced hold per slice: procs processes each
// charge 40-quantum bursts to one capacity-1 resource, b.N slices in all.
func benchSlicedHold(b *testing.B, procs int) {
	b.ReportAllocs()
	k := NewKernel()
	r := NewResource(k, "cpu", 1)
	const slices = 40
	bursts := b.N/(slices*procs) + 1
	for i := 0; i < procs; i++ {
		k.Spawn("u", func(p *Proc) {
			for j := 0; j < bursts; j++ {
				r.HoldSliced(p, slices*time.Microsecond, time.Microsecond, nil)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSlicedHoldAlone: nobody else wants the resource, so every slice
// boundary is a release, a re-acquire and one step event, all inline.
func BenchmarkSlicedHoldAlone(b *testing.B) { benchSlicedHold(b, 1) }

// BenchmarkSlicedHoldContended4: four holds round-robin, so every boundary
// is also a queue hand-over and a grant event — still without a process
// switch (BenchmarkResourceUse is the same traffic as process wakes).
func BenchmarkSlicedHoldContended4(b *testing.B) { benchSlicedHold(b, 4) }

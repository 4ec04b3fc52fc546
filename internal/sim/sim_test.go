package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("new kernel clock = %v, want 0", k.Now())
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := NewKernel()
	var at Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(5*time.Millisecond) {
		t.Fatalf("woke at %v, want 5ms", at)
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("a", func(p *Proc) {
		p.Sleep(0)
		order = append(order, "a")
	})
	k.Spawn("b", func(p *Proc) {
		p.Sleep(-time.Second)
		order = append(order, "b")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 0 {
		t.Fatalf("clock advanced to %v for zero sleeps", k.Now())
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v, want [a b]", order)
	}
}

func TestSleepUntil(t *testing.T) {
	k := NewKernel()
	var woke Time
	k.Spawn("p", func(p *Proc) {
		p.SleepUntil(Time(time.Second))
		p.SleepUntil(Time(time.Millisecond)) // in the past: no-op
		woke = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(time.Second) {
		t.Fatalf("woke = %v, want 1s", woke)
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.After(time.Millisecond, func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestSpawnFromProcess(t *testing.T) {
	k := NewKernel()
	var childTime Time
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Millisecond)
		k.Spawn("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			childTime = c.Now()
		})
		p.Sleep(10 * time.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != Time(2*time.Millisecond) {
		t.Fatalf("child finished at %v, want 2ms", childTime)
	}
}

func TestChanSendRecvSameInstant(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "c")
	var got int
	var at Time
	k.Spawn("recv", func(p *Proc) {
		got = c.Recv(p)
		at = p.Now()
	})
	k.Spawn("send", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		c.Send(41)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 41 || at != Time(3*time.Millisecond) {
		t.Fatalf("got %d at %v, want 41 at 3ms", got, at)
	}
}

func TestChanSendAtDelaysDelivery(t *testing.T) {
	k := NewKernel()
	c := NewChan[string](k, "c")
	var at Time
	k.Spawn("recv", func(p *Proc) {
		c.Recv(p)
		at = p.Now()
	})
	c.SendAt(Time(7*time.Millisecond), "hello")
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(7*time.Millisecond) {
		t.Fatalf("received at %v, want 7ms", at)
	}
}

func TestChanFIFOAcrossArrivals(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "c")
	c.SendAt(Time(2*time.Millisecond), 2)
	c.SendAt(Time(1*time.Millisecond), 1)
	c.SendAt(Time(2*time.Millisecond), 3) // same instant as 2: sent later
	var got []int
	k.Spawn("r", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, c.Recv(p))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestChanMultipleWaitersServedFIFO(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "c")
	var order []string
	for _, name := range []string{"w0", "w1", "w2"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			c.Recv(p)
			order = append(order, name)
		})
	}
	k.Spawn("s", func(p *Proc) {
		p.Sleep(time.Millisecond)
		for i := 0; i < 3; i++ {
			c.Send(i)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[w0 w1 w2]" {
		t.Fatalf("wake order = %v, want FIFO", order)
	}
}

func TestChanTryRecv(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "c")
	if _, ok := c.TryRecv(); ok {
		t.Fatal("TryRecv on empty chan reported ok")
	}
	c.Send(9)
	v, ok := c.TryRecv()
	if !ok || v != 9 {
		t.Fatalf("TryRecv = %d,%v want 9,true", v, ok)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "never")
	k.Spawn("stuck", func(p *Proc) { c.Recv(p) })
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 {
		t.Fatalf("blocked = %v, want 1 entry", de.Blocked)
	}
}

func TestResourceSerialisesHolders(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "link", 1)
	var finished []Time
	for i := 0; i < 3; i++ {
		k.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Use(p, 1, 10*time.Millisecond)
			finished = append(finished, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(10 * time.Millisecond), Time(20 * time.Millisecond), Time(30 * time.Millisecond)}
	for i := range want {
		if finished[i] != want[i] {
			t.Fatalf("finish times %v, want %v", finished, want)
		}
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "bus", 2)
	var finished []Time
	for i := 0; i < 4; i++ {
		k.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Use(p, 1, 10*time.Millisecond)
			finished = append(finished, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Pairs run concurrently: two finish at 10ms, two at 20ms.
	want := []Time{Time(10 * time.Millisecond), Time(10 * time.Millisecond), Time(20 * time.Millisecond), Time(20 * time.Millisecond)}
	for i := range want {
		if finished[i] != want[i] {
			t.Fatalf("finish times %v, want %v", finished, want)
		}
	}
}

func TestResourceSimultaneousReleasesNoDoubleWake(t *testing.T) {
	// Regression: two holders releasing at the same virtual instant used to
	// schedule two wakes for the same head waiter; the second resume yanked
	// it out of a later sleep and eventually dispatched a finished process,
	// hanging the kernel. The woken flag must prevent that.
	k := NewKernel()
	r := NewResource(k, "bus", 2)
	var finished []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("u%d", i)
		k.Spawn(name, func(p *Proc) {
			r.Use(p, 1, 10*time.Millisecond)
			// A second sleep after the resource: a spurious early resume
			// here is exactly the historical failure.
			p.Sleep(5 * time.Millisecond)
			finished = append(finished, fmt.Sprintf("%s@%v", name, p.Now()))
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"u0@15ms", "u1@15ms", "u2@25ms"}
	if fmt.Sprint(finished) != fmt.Sprint(want) {
		t.Fatalf("finished = %v, want %v", finished, want)
	}
}

func TestResourceMultiUnitAcquire(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "dma", 3)
	var events []string
	k.Spawn("big", func(p *Proc) {
		r.Acquire(p, 3)
		p.Sleep(5 * time.Millisecond)
		r.Release(3)
		events = append(events, fmt.Sprintf("big@%v", p.Now()))
	})
	k.Spawn("small", func(p *Proc) {
		p.Sleep(time.Millisecond)
		r.Acquire(p, 1)
		events = append(events, fmt.Sprintf("small@%v", p.Now()))
		r.Release(1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0] != "big@5ms" || events[1] != "small@5ms" {
		t.Fatalf("events = %v", events)
	}
}

func TestResourceOverReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	k := NewKernel()
	r := NewResource(k, "x", 1)
	r.Release(1)
}

func TestResourceInvalidAcquirePanics(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "x", 1)
	panicked := false
	k.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		r.Acquire(p, 2)
	})
	_ = k.Run()
	if !panicked {
		t.Fatal("acquire beyond capacity did not panic")
	}
}

func TestBarrierReleasesAllAtOnce(t *testing.T) {
	k := NewKernel()
	b := NewBarrier(k, "b", 3)
	var releases []Time
	delays := []Duration{time.Millisecond, 5 * time.Millisecond, 3 * time.Millisecond}
	for i := 0; i < 3; i++ {
		d := delays[i]
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(d)
			b.Wait(p)
			releases = append(releases, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, r := range releases {
		if r != Time(5*time.Millisecond) {
			t.Fatalf("releases = %v, want all at 5ms", releases)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	k := NewKernel()
	b := NewBarrier(k, "b", 2)
	counts := make([]int, 2)
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for round := 0; round < 5; round++ {
				p.Sleep(Duration(i+1) * time.Millisecond)
				b.Wait(p)
				counts[i]++
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if counts[0] != 5 || counts[1] != 5 {
		t.Fatalf("counts = %v, want [5 5]", counts)
	}
}

func TestDeterministicReplay(t *testing.T) {
	// The same randomised workload must produce an identical event history
	// on every run: determinism is the foundation of the experiments.
	run := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		c := NewChan[int](k, "c")
		var history []string
		for i := 0; i < 8; i++ {
			i := i
			d := Duration(rng.Intn(10)) * time.Millisecond
			k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(d)
				c.Send(i)
			})
		}
		k.Spawn("collector", func(p *Proc) {
			for i := 0; i < 8; i++ {
				v := c.Recv(p)
				history = append(history, fmt.Sprintf("%d@%v", v, p.Now()))
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return history
	}
	a := run(42)
	b := run(42)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("replay diverged:\n%v\n%v", a, b)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) { p.Sleep(time.Second) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.schedule(Time(0), func() {})
}

func TestStopHaltsRun(t *testing.T) {
	k := NewKernel()
	n := 0
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(time.Millisecond)
			n++
			if n == 10 {
				k.Stop()
			}
		}
	})
	_ = k.Run()
	if n != 10 {
		t.Fatalf("ran %d iterations, want 10", n)
	}
	if k.Now() != Time(10*time.Millisecond) {
		t.Fatalf("stopped at %v, want 10ms", k.Now())
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1500 * time.Millisecond)
	if tm.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v", tm.Seconds())
	}
	if tm.Add(500*time.Millisecond) != Time(2*time.Second) {
		t.Fatal("Add wrong")
	}
	if tm.Sub(Time(time.Second)) != 500*time.Millisecond {
		t.Fatal("Sub wrong")
	}
	if tm.String() != "1.5s" {
		t.Fatalf("String = %q", tm.String())
	}
}

func TestHeapPropertyOrdering(t *testing.T) {
	// Property: popping the queue always yields nondecreasing (time, seq),
	// and every pushed event exactly once.
	check := func(times []uint16) bool {
		var q eventQueue
		for i, tv := range times {
			q.push(&event{at: Time(tv), seq: uint64(i)})
		}
		var prev *event
		popped := 0
		for {
			e := q.pop()
			if e == nil {
				return popped == len(times) && q.len() == 0
			}
			popped++
			if prev != nil {
				if e.at < prev.at || (e.at == prev.at && e.seq < prev.seq) {
					return false
				}
			}
			prev = e
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcessesStress(t *testing.T) {
	k := NewKernel()
	const n = 500
	b := NewBarrier(k, "b", n)
	done := 0
	for i := 0; i < n; i++ {
		i := i
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(Duration(i) * time.Microsecond)
			b.Wait(p)
			done++
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
	if k.Now() != Time((n-1)*int(time.Microsecond)) {
		t.Fatalf("final time %v", k.Now())
	}
}

// goroutinesSettleTo polls until the live goroutine count drops to at most
// want (teardown goroutines need a few scheduler rounds to exit).
func goroutinesSettleTo(t *testing.T, want int) int {
	t.Helper()
	var n int
	for i := 0; i < 200; i++ {
		n = runtime.NumGoroutine()
		if n <= want {
			return n
		}
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestShutdownReleasesLeakedGoroutines is the leak regression test: before
// Kernel.Shutdown existed, every process left blocked by a DeadlockError or
// a Stop stayed parked in its yield forever — one leaked goroutine per
// process per kernel, accumulating across the thousands of kernels an
// experiment sweep creates.
func TestShutdownReleasesLeakedGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	const kernels = 100
	for i := 0; i < kernels; i++ {
		k := NewKernel()
		c := NewChan[int](k, "never")
		for j := 0; j < 3; j++ {
			k.Spawn(fmt.Sprintf("stuck%d", j), func(p *Proc) { c.Recv(p) })
		}
		// Odd kernels deadlock; even kernels are halted by Stop mid-run.
		if i%2 == 0 {
			k.Spawn("stopper", func(p *Proc) {
				p.Sleep(time.Millisecond)
				k.Stop()
			})
		}
		if err := k.Run(); err == nil && i%2 == 1 {
			t.Fatal("expected a DeadlockError")
		}
		k.Shutdown()
		if k.LiveProcs() != 0 {
			t.Fatalf("kernel %d: %d live procs after Shutdown", i, k.LiveProcs())
		}
	}
	// 3 blocked procs per kernel would leak ~300 goroutines without the fix;
	// allow a little slack for the test runner's own machinery.
	if n := goroutinesSettleTo(t, base+10); n > base+10 {
		t.Fatalf("goroutines grew from %d to %d across %d shut-down kernels", base, n, kernels)
	}
}

func TestShutdownIdempotentAndSafeWhenClean(t *testing.T) {
	// Never ran.
	k := NewKernel()
	k.Shutdown()
	k.Shutdown()
	// Ran to completion: nothing to tear down.
	k = NewKernel()
	k.Spawn("p", func(p *Proc) { p.Sleep(time.Millisecond) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	k.Shutdown()
	if k.LiveProcs() != 0 {
		t.Fatalf("live procs = %d", k.LiveProcs())
	}
}

func TestRunAfterShutdownErrors(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) { p.Sleep(time.Millisecond) })
	k.Shutdown()
	if err := k.Run(); err == nil {
		t.Fatal("Run after Shutdown did not error")
	}
}

// TestShutdownReleasesNeverStartedProcs covers processes spawned after Stop
// whose start event never fires: they have no goroutine, but must still be
// cleared from the books.
func TestShutdownReleasesNeverStartedProcs(t *testing.T) {
	k := NewKernel()
	k.Spawn("early", func(p *Proc) {
		k.Stop()
		k.Spawn("orphan", func(p *Proc) { p.Sleep(time.Second) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.LiveProcs() != 1 {
		t.Fatalf("live procs before Shutdown = %d, want the orphan", k.LiveProcs())
	}
	k.Shutdown()
	if k.LiveProcs() != 0 {
		t.Fatalf("live procs after Shutdown = %d", k.LiveProcs())
	}
}

// TestShutdownTerminatesMidBody verifies the terminal signal unwinds a
// process out of an arbitrary yield point mid-body and that statements after
// the yield never execute.
func TestShutdownTerminatesMidBody(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "never")
	reached := false
	k.Spawn("worker", func(p *Proc) {
		p.Sleep(time.Millisecond)
		c.Recv(p) // blocks forever
		reached = true
	})
	if _, ok := k.Run().(*DeadlockError); !ok {
		t.Fatal("expected DeadlockError")
	}
	k.Shutdown()
	if reached {
		t.Fatal("statement after the terminal yield executed")
	}
}

// TestStaleWakeAfterShutdownIsDropped pins the stop-aware dispatch: a wake
// event for a process that Shutdown tore down must be dropped, not dispatch
// into a dead kernel.
func TestStaleWakeAfterShutdownIsDropped(t *testing.T) {
	k := NewKernel()
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(time.Hour) // wake event stays queued when Stop fires
	})
	k.Spawn("stopper", func(p *Proc) {
		p.Sleep(time.Millisecond)
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Pending() == 0 {
		t.Fatal("expected the sleeper's wake event to still be queued")
	}
	k.Shutdown()
	// The queued wake references a stopped proc; firing it must be dropped by
	// advance's liveness re-check, not dispatch into a dead kernel. Run
	// refuses to restart a dead kernel, so drive the event loop directly.
	ev := k.queue.pop()
	if ev == nil {
		t.Fatal("no queued event")
	}
	if ev.proc == nil || !ev.proc.done {
		t.Fatal("queued event is not a stale wake for a torn-down proc")
	}
	k.queue.push(ev) // put it back and let advance make the drop decision
	done := make(chan struct{})
	go func() {
		k.stopped = false // Shutdown set it; advance must still drop the wake
		if got := k.advance(nil); got != advDrained {
			t.Errorf("advance = %v, want advDrained", got)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("stale wake dispatched into a dead kernel and hung")
	}
}

func TestLiveProcsAndPending(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) { p.Sleep(time.Millisecond) })
	if k.Pending() == 0 {
		t.Fatal("expected pending start event")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.LiveProcs() != 0 || k.Pending() != 0 {
		t.Fatalf("live=%d pending=%d after run", k.LiveProcs(), k.Pending())
	}
}

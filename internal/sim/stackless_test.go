package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// A stackless process (SpawnStep) is a state machine over the halves of
// the blocking forms. These tests hold it to the coroutine process running
// the blocking forms themselves: the same events at the same (time, seq),
// the same hooks, results and deadlock reports, and none of the switches.

// stacklessImpl runs a chain scenario's processes as stackless processes.
var stacklessImpl = chainImpl{interrupt: (*Chan[int]).Interrupt, stackless: true}

// step runs cp's operations as a stackless process. Each blocking operation
// is its Begin half; if that parks, cp.then is what the wake must finish —
// the operation's Resume half and the note — and reports whether the
// process is parked again: in the same wait (a spurious wake) or, having
// set a new cp.then, in the operation's next one.
func (cp *chainProc) step(p *Proc, impl chainImpl) bool {
	for {
		if then := cp.then; then != nil {
			cp.then = nil
			if then(p) {
				if cp.then == nil {
					cp.then = then
				}
				return true
			}
		}
		if cp.j == len(cp.ops) {
			return false
		}
		j, op := cp.j, cp.ops[cp.j]
		cp.j++
		if cp.begin(p, j, op, impl) {
			return true
		}
	}
}

// begin starts operation j, and reports whether it parked (with cp.then
// set) or is over.
func (cp *chainProc) begin(p *Proc, j int, op chainOp, impl chainImpl) bool {
	c := cp.chain(op)
	noted := func(p *Proc) bool { cp.note(p); return false }
	switch op.kind {
	case opChain, opSliced:
		if op.kind == opSliced {
			c = cp.sliced(op)
		}
		if p.HoldBegin(&c) {
			cp.then = func(p *Proc) bool { p.HoldResume(); return noted(p) }
			return true
		}
		cp.note(p)
	case opAcquire:
		r := cp.res(op)
		acquired := func(p *Proc) bool {
			cp.note(p)
			p.SleepBegin(op.d)
			cp.then = func(p *Proc) bool { r.Release(op.units); return noted(p) }
			return true
		}
		if r.AcquireBegin(p, op.units) {
			cp.then = func(p *Proc) bool { return !r.AcquireResume(p) || acquired(p) }
			return true
		}
		return acquired(p)
	case opRecvHold, opTimed:
		ch := cp.box[cp.d]
		if op.kind == opTimed {
			ch = cp.timed(p, op, j, impl)
		}
		v := new(int)
		if ch.RecvHoldBegin(p, v, &c) {
			cp.then = func(p *Proc) bool {
				if !ch.RecvHoldResume(p, v) {
					return true
				}
				cp.note(p, *v)
				return false
			}
			return true
		}
		cp.note(p, *v)
	case opRecv:
		b := cp.box[cp.d]
		if v, parked := b.RecvBegin(p); !parked {
			cp.note(p, v)
			return false
		}
		cp.then = func(p *Proc) bool {
			v, ok := b.RecvResume(p)
			if !ok {
				return true
			}
			cp.note(p, v)
			return false
		}
		return true
	case opSend:
		cp.send(p, op, j)
		cp.note(p)
	case opSleep:
		p.SleepBegin(op.d)
		cp.then = noted
		return true
	}
	return false
}

// TestStacklessMatchesCoroutines holds stackless processes to coroutine
// processes over the chain scenarios — chains, sliced holds, acquires,
// receives with and without a chain behind them (a gate can lose its value
// to a plain receiver), timed receives racing a timeout, sleeps, sends
// within and across domains, and deadlocks: the complete hook stream
// (Shutdown's ProcEnds included), the stall-hook consultations, every
// process's clock, result, dispatch count and sequence number on return
// from each operation, and the final dispatch count, sequence number, clock
// and error — equal, not close. A stackless run switches never.
func TestStacklessMatchesCoroutines(t *testing.T) {
	const scenarios = 240
	deadlocks := 0
	var coSw uint64
	for seed := int64(0); seed < scenarios; seed++ {
		sc := newChainScenario(seed)
		want := sc.run(t, chainedImpl)
		got := sc.run(t, stacklessImpl)
		if got.Switches != 0 {
			t.Fatalf("seed %d: a stackless run made %d switches", seed, got.Switches)
		}
		coSw += want.Switches
		want.Switches = 0
		if want.Err != "<nil>" {
			deadlocks++
		}
		if reflect.DeepEqual(want, got) {
			continue
		}
		diffLines(t, fmt.Sprintf("seed %d hooks", seed), want.Hooks, got.Hooks)
		for p := range want.ProcLogs {
			diffLines(t, fmt.Sprintf("seed %d process %d log", seed, p), want.ProcLogs[p], got.ProcLogs[p])
		}
		for d := range want.StallCalls {
			diffLines(t, fmt.Sprintf("seed %d domain %d stall-hook calls", seed, d), want.StallCalls[d], got.StallCalls[d])
		}
		t.Fatalf("seed %d: coroutines vs stackless: dispatched %d vs %d, seq %d vs %d, end %v vs %v, err %q vs %q",
			seed, want.Dispatched, got.Dispatched, want.Seq, got.Seq, want.End, got.End, want.Err, got.Err)
	}
	t.Logf("%d scenarios (%d ending in a deadlock): %d switches as coroutines, none stackless", scenarios, deadlocks, coSw)
	if deadlocks == 0 {
		t.Fatal("no scenario deadlocked: the deadlock report is not being compared")
	}
}

// sleeper is a stackless process that sleeps n times for d and ends.
func sleeper(n int, d Duration) func(p *Proc) bool {
	return func(p *Proc) bool {
		if n == 0 {
			return false
		}
		n--
		p.SleepBegin(d)
		return true
	}
}

// TestStacklessPanicIsTheBodys: a panic inside a step is the stackless
// process's body panic — PanicError{Proc, PID, Callback: false} — wherever
// the step runs: in the driver, or in a coroutine that was running the event
// loop (which is not the one blamed).
// The panicking process ends there, with its ProcEnd, as a coroutine's body
// does; Shutdown then ends the others and no goroutine remains.
func TestStacklessPanicIsTheBodys(t *testing.T) {
	boom := func(after int) func(p *Proc) bool {
		return func(p *Proc) bool {
			if after == 0 {
				var rows []int
				_ = rows[3]
			}
			after--
			p.SleepBegin(time.Microsecond)
			return true
		}
	}
	cases := []struct {
		name  string
		build func(k *Kernel)
		live  int // processes left for Shutdown
	}{
		{"driver", func(k *Kernel) {
			k.SpawnStep("parked", sleeper(1, time.Hour))
			k.SpawnStep("fft_rows[3]", boom(3))
		}, 1},
		{"borrowed coroutine", func(k *Kernel) {
			k.SpawnStep("parked", sleeper(1, time.Hour))
			k.SpawnStep("fft_rows[3]", boom(3))
			// "other" wakes every 100 ns, so it is the one running the loop
			// when the stackless step panics; it is unwound, not blamed.
			k.Spawn("other", func(p *Proc) {
				for {
					p.Sleep(100 * time.Nanosecond)
				}
			})
		}, 1},
	}
	for _, c := range cases {
		base := runtime.NumGoroutine()
		k := NewKernel()
		tr := &hookLog{}
		k.SetTracer(tr)
		c.build(k)
		err := k.Run()
		pe, ok := err.(*PanicError)
		const want = `sim: process "fft_rows[3]" (pid 1) panicked: runtime error: index out of range [3] with length 0`
		if !ok || pe.Callback || pe.Proc != "fft_rows[3]" || pe.PID != 1 || err.Error() != want {
			t.Fatalf("%s: Run = %v, want %s", c.name, err, want)
		}
		if k.LiveProcs() != c.live {
			t.Fatalf("%s: LiveProcs = %d, want %d", c.name, k.LiveProcs(), c.live)
		}
		requireNoLeak(t, c.name, k, base)
		ended := 0
		for _, l := range tr.lines {
			if strings.HasPrefix(l, "end 1fft_rows[3]") {
				ended++
			}
		}
		if ended != 1 {
			t.Fatalf("%s: the panicking process ended %d times, want once", c.name, ended)
		}
	}
}

// TestStacklessBlockingFormPanics: a step that calls a blocking form has no
// stack to park; it is the body's panic, named.
func TestStacklessBlockingFormPanics(t *testing.T) {
	k := NewKernel()
	k.SpawnStep("wrong", func(p *Proc) bool { p.Sleep(time.Microsecond); return true })
	err := k.Run()
	pe, ok := err.(*PanicError)
	if !ok || pe.Callback || pe.Proc != "wrong" || !strings.Contains(err.Error(), "a step may call only Begin/Resume halves") {
		t.Fatalf("Run = %v, want the body panic of a blocking form", err)
	}
	k.Shutdown()
}

// TestStacklessLifecycle: however a run of stackless processes ends — Stop,
// a cancel poll, a deadlock — nothing of them happens afterwards: Shutdown
// dispatches no event, fires ProcEnd for every started stackless process and
// for no unstarted one, and leaves no goroutine behind.
func TestStacklessLifecycle(t *testing.T) {
	for _, end := range []string{"stop", "cancel", "deadlock"} {
		tc := end
		base := runtime.NumGoroutine()
		k := NewKernel()
		tr := &hookLog{}
		k.SetTracer(tr)
		never := NewChan[int](k, "never")
		k.SpawnStep("stuck", func(p *Proc) bool {
			if _, parked := never.RecvBegin(p); !parked {
				t.Errorf("%s: the never channel had a value", tc)
			}
			return true
		})
		steps := 0
		k.SpawnStep("ticker", func(p *Proc) bool {
			steps++
			if end == "deadlock" && steps > 3 {
				return false
			}
			p.SleepBegin(time.Microsecond)
			return true
		})
		switch end {
		case "stop":
			k.After(10*time.Microsecond+1, func() { k.Stop() })
		case "cancel":
			cancel := make(chan struct{})
			close(cancel)
			k.SetCancel(cancel, 5)
		}
		err := k.Run()
		if _, dl := err.(*DeadlockError); (end == "deadlock") != dl || (end != "deadlock" && err != nil) {
			t.Fatalf("%s: Run = %v", tc, err)
		}
		live := k.LiveProcs()
		disp, before, stepped := k.Dispatched(), len(tr.lines), steps
		requireNoLeak(t, tc, k, base)
		if k.Dispatched() != disp || steps != stepped {
			t.Fatalf("%s: Shutdown ran the kernel: %d -> %d dispatches, %d -> %d steps", tc, disp, k.Dispatched(), stepped, steps)
		}
		if got := tr.lines[before:]; len(got) != live {
			t.Fatalf("%s: Shutdown fired %q, want the ProcEnds of the %d started processes", tc, got, live)
		}
	}
	// Processes whose start event never fired vanish without a hook.
	k := NewKernel()
	tr := &hookLog{}
	k.SetTracer(tr)
	k.SpawnStep("first", func(p *Proc) bool { k.Stop(); p.SleepBegin(time.Hour); return true })
	k.SpawnStep("unstarted", sleeper(1, time.Microsecond))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if want := []string{"start 0first0s", "end 0first0s"}; !reflect.DeepEqual(tr.lines, want) {
		t.Fatalf("hooks %q, want %q", tr.lines, want)
	}
}

// TestStacklessAllocFree pins a stackless process's steps — a wake that runs
// the step inline, halves that keep their state in Proc — at zero
// allocations per operation, and its spawn at the Proc and its start event
// (a fresh kernel's event pool is empty): no coroutine, where a coroutine
// process costs 14 objects more.
func TestStacklessAllocFree(t *testing.T) {
	perOp := marginalAllocs(t, func(ops int) {
		k := NewKernel()
		cpu := NewResource(k, "cpu", 1)
		box := NewChan[int](k, "box")
		c := &Chain{CPU: cpu, Quantum: time.Microsecond, Burst: [2]Duration{1500}}
		n, v := 0, 0
		k.SpawnStep("tx", func(p *Proc) bool {
			if n == ops {
				return false
			}
			n++
			box.Send(n)
			p.SleepBegin(time.Microsecond)
			return true
		})
		got := 0
		k.SpawnStep("rx", func(p *Proc) bool {
			if got > 0 && !box.RecvHoldResume(p, &v) {
				return true
			}
			for got < ops {
				got++
				if box.RecvHoldBegin(p, &v, c) {
					return true
				}
			}
			return false
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if perOp > 0.01 {
		t.Fatalf("a stackless send, sleep and gated receive allocate %.3f per op, want 0", perOp)
	}
	step := func(p *Proc) bool { return false }
	perProc := marginalAllocs(t, func(procs int) {
		k := NewKernel()
		for i := 0; i < procs; i++ {
			k.SpawnStep("w", step)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if perProc > 2.1 {
		t.Fatalf("a spawned and finished stackless process allocates %.1f objects, want 2 (the Proc and its start event)", perProc)
	}
}

package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Coroutine lifecycle: however a run ends — a process body panics, a process
// calls Stop, a cancel fires mid-run, the run deadlocks — Shutdown must
// leave no process coroutine (a parked goroutine, to the runtime) behind,
// whether or not the driver and its processes share a P.

// ringWorkload builds a token ring of nDom processes: each receives the
// token, does some local work and forwards it to the next one lat or more
// later, for hops hops and then one drain lap, so every process exits. The
// journal records every hop with its timestamp.
func ringWorkload(k *Kernel, nDom, hops int, lat Duration, journal *[]string) {
	chans := make([]*Chan[int], nDom)
	for d := 0; d < nDom; d++ {
		chans[d] = NewChan[int](k, fmt.Sprintf("ring%d", d))
	}
	for d := 0; d < nDom; d++ {
		k.Spawn(fmt.Sprintf("node%d", d), func(p *Proc) {
			for {
				tok := chans[d].Recv(p)
				*journal = append(*journal, fmt.Sprintf("%d@%d t=%d", tok, d, p.Now()))
				if tok >= hops {
					// Drain lap: keep the token moving so every node exits.
					if tok < hops+nDom-1 {
						nxt := (d + 1) % nDom
						fin := tok + 1
						k.After(lat, func() { chans[nxt].Send(fin) })
					}
					return
				}
				p.Sleep(Duration(tok%7) * 100 * time.Nanosecond) // local work
				nxt := (d + 1) % nDom
				tok++
				k.After(lat+Duration(tok%3)*time.Microsecond, func() {
					chans[nxt].Send(tok)
				})
			}
		})
	}
	k.After(0, func() { chans[0].Send(0) })
}

// requireNoLeak shuts k down and checks every coroutine is gone. base is runtime.NumGoroutine() from before the kernel existed; an
// earlier test's goroutine may still have been exiting then, so the count
// may end below it, never above.
func requireNoLeak(t *testing.T, tc string, k *Kernel, base int) {
	t.Helper()
	k.Shutdown()
	if n := k.LiveProcs(); n != 0 {
		t.Fatalf("%s: LiveProcs = %d after Shutdown", tc, n)
	}
	if n := goroutinesSettleTo(t, base); n > base {
		t.Fatalf("%s: goroutines: %d before the kernel, %d after Shutdown", tc, base, n)
	}
}

func TestProcPanicBecomesRunError(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	never := NewChan[int](k, "never")
	k.Spawn("stuck", func(p *Proc) { never.Recv(p) })
	k.Spawn("spinner", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	k.Spawn("fft_rows[3]", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		var rows []int
		_ = rows[3]
	})
	err := k.Run()
	const want = `sim: process "fft_rows[3]" (pid 2) panicked: runtime error: index out of range [3] with length 0`
	if err == nil || err.Error() != want {
		t.Fatalf("Run = %v, want %s", err, want)
	}
	if k.LiveProcs() != 2 {
		t.Fatalf("LiveProcs = %d, want the two processes the panic left parked", k.LiveProcs())
	}
	requireNoLeak(t, "body panic", k, base)
}

// panicOnSecond is a Staller whose second consultation — the first one a
// sliced hold makes from a kernel step — panics.
type panicOnSecond struct{ calls int }

func (s *panicOnSecond) StalledUntil(Time) (Time, bool) {
	if s.calls++; s.calls == 2 {
		panic("stall hook boom")
	}
	return 0, false
}

// TestCallbackPanicBecomesRunError: a panic in callback context — an event
// callback or a sliced-hold step — becomes Run's error wherever the callback
// happens to execute: in the driver, or in a process that was running the
// event loop (which is not the one blamed).
func TestCallbackPanicBecomesRunError(t *testing.T) {
	cases := []struct {
		name  string
		build func(k *Kernel)
		want  string
		live  int // processes the failure leaves parked
	}{
		{"driver", func(k *Kernel) {
			k.After(10, func() { panic("boom") })
		}, "sim: event callback panicked: boom", 0},
		{"borrowed process", func(k *Kernel) {
			// "other" is asleep, i.e. running the event loop, when the
			// callback fires; its body is unwound by a panic that is not its
			// own, and the error must say so.
			k.Spawn("other", func(p *Proc) { p.Sleep(time.Millisecond) })
			k.Spawn("parked", func(p *Proc) { p.Sleep(time.Hour) })
			k.After(10, func() { panic("boom") })
		}, "sim: event callback panicked: boom", 1},
		{"hold step in a borrowed process", func(k *Kernel) {
			r := NewResource(k, "cpu", 1)
			k.Spawn("burst", func(p *Proc) { r.HoldSliced(p, time.Millisecond, time.Microsecond, &panicOnSecond{}) })
			// The last process to start runs the loop when the step fires.
			k.Spawn("other", func(p *Proc) { p.Sleep(time.Hour) })
		}, `sim: sliced-hold step of process "burst" (pid 0) panicked: stall hook boom`, 1},
		{"hold step in the driver", func(k *Kernel) {
			r := NewResource(k, "cpu", 1)
			k.Spawn("early", func(p *Proc) {})
			k.Spawn("burst", func(p *Proc) {
				p.SleepUntil(10)
				r.HoldSliced(p, time.Millisecond, time.Microsecond, &panicOnSecond{})
			})
			// "late" starts after burst has parked in its hold and ends at
			// once, which leaves the driver running the loop.
			k.After(20, func() { k.Spawn("late", func(p *Proc) {}) })
		}, `sim: sliced-hold step of process "burst" (pid 1) panicked: stall hook boom`, 1},
	}
	for _, c := range cases {
		base := runtime.NumGoroutine()
		k := NewKernel()
		c.build(k)
		err := k.Run()
		pe, ok := err.(*PanicError)
		if !ok || !pe.Callback || err.Error() != c.want {
			t.Fatalf("%s: Run = %v, want %s", c.name, err, c.want)
		}
		if k.LiveProcs() != c.live {
			t.Fatalf("%s: LiveProcs = %d, want %d", c.name, k.LiveProcs(), c.live)
		}
		requireNoLeak(t, c.name, k, base)
	}
}

func TestShutdownReleasesAllCoroutines(t *testing.T) {
	const nDom, lat = 8, 3 * time.Microsecond
	// ring is a token ring that would run (practically) forever.
	ring := func(k *Kernel) {
		journal := new([]string)
		ringWorkload(k, nDom, 1<<30, lat, journal)
	}
	endings := []struct {
		name  string
		build func(k *Kernel)
		check func(k *Kernel, err error) string // "" when the run ended as it should
	}{
		{"stop", func(k *Kernel) {
			ring(k)
			k.Spawn("stopper", func(p *Proc) {
				p.Sleep(200 * time.Microsecond)
				k.Stop()
			})
		}, func(k *Kernel, err error) string {
			if err != nil {
				return err.Error()
			}
			return ""
		}},
		{"cancel", func(k *Kernel) {
			ring(k)
			cancel := make(chan struct{})
			k.SetCancel(cancel, 16)
			k.Spawn("canceller", func(p *Proc) {
				p.Sleep(200 * time.Microsecond)
				close(cancel)
			})
		}, func(k *Kernel, err error) string {
			if err != nil || !k.Canceled() {
				return fmt.Sprintf("Run = %v, Canceled = %v", err, k.Canceled())
			}
			return ""
		}},
		{"deadlock", func(k *Kernel) {
			for d := 0; d < nDom; d++ {
				never := NewChan[int](k, fmt.Sprintf("never%d", d))
				k.Spawn(fmt.Sprintf("stuck%d", d), func(p *Proc) { never.Recv(p) })
			}
		}, func(k *Kernel, err error) string {
			if de, ok := err.(*DeadlockError); !ok || len(de.Blocked) != nDom {
				return fmt.Sprintf("Run = %v, want a DeadlockError naming %d processes", err, nDom)
			}
			return ""
		}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, end := range endings {
			tc := fmt.Sprintf("GOMAXPROCS=%d %s", procs, end.name)
			base := runtime.NumGoroutine()
			k := NewKernel()
			end.build(k)
			if msg := end.check(k, k.Run()); msg != "" {
				t.Fatalf("%s: %s", tc, msg)
			}
			if k.LiveProcs() != nDom {
				t.Fatalf("%s: LiveProcs = %d before Shutdown, want the %d parked processes", tc, k.LiveProcs(), nDom)
			}
			requireNoLeak(t, tc, k, base)
		}
	}
}

func TestShutdownUnwindsThroughDeferredKernelCalls(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	never := NewChan[int](k, "never")
	bus := NewResource(k, "bus", 1)
	var unwound []string
	k.Spawn("holder", func(p *Proc) {
		bus.Acquire(p, 1)
		defer func() {
			bus.Release(1)
			p.Sleep(time.Microsecond) // a yield during teardown must not park again
			unwound = append(unwound, "unreachable")
		}()
		defer func() { unwound = append(unwound, p.Name()) }()
		never.Recv(p)
	})
	if _, ok := k.Run().(*DeadlockError); !ok {
		t.Fatal("expected DeadlockError")
	}
	requireNoLeak(t, "deferred", k, base)
	if got := strings.Join(unwound, ","); got != "holder" {
		t.Fatalf("deferred calls ran %q, want %q", got, "holder")
	}
}

package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// refHoldSliced is the loop HoldSliced replaced — machine.Node.busy as it
// stood, the stall hook in the place of the fault injector — kept as the
// oracle: every event a sliced hold schedules must be the one this loop
// schedules, at the same instant, in the same order.
func refHoldSliced(r *Resource, p *Proc, d, quantum Duration, stall Staller) {
	for d > 0 {
		if stall != nil {
			if end, ok := stall.StalledUntil(p.Now()); ok {
				p.SleepUntil(end)
			}
		}
		q := d
		if q > quantum {
			q = quantum
		}
		r.Use(p, 1, q)
		d -= q
	}
}

// stallWindows is a test Staller with the fault injector's semantics
// (overlapping and chained windows extend the stall) that also logs every
// consultation, so the comparison covers when the hook is asked, not only
// what follows from its answers.
type stallWindows struct {
	wins  [][2]Time // [from, to)
	calls []Time
}

func (s *stallWindows) StalledUntil(now Time) (Time, bool) {
	s.calls = append(s.calls, now)
	end, stalled := now, false
	for changed := true; changed; {
		changed = false
		for _, w := range s.wins {
			if w[0] <= end && end < w[1] {
				end, stalled, changed = w[1], true, true
			}
		}
	}
	return end, stalled
}

// hookLog records the complete hook stream of a kernel, every argument
// included.
type hookLog struct {
	lines []string
}

func (h *hookLog) ProcStart(pid int, name string, at Time) {
	h.lines = append(h.lines, fmt.Sprint("start ", pid, name, at))
}
func (h *hookLog) ProcEnd(pid int, name string, at Time) {
	h.lines = append(h.lines, fmt.Sprint("end ", pid, name, at))
}
func (h *hookLog) Wait(pid int, proc, kind, object string, from, to Time, depth int) {
	h.lines = append(h.lines, fmt.Sprint("wait ", pid, proc, kind, object, from, to, depth))
}
func (h *hookLog) ChanOp(op, name string, qlen int, at Time) {
	h.lines = append(h.lines, fmt.Sprint("chan ", op, name, qlen, at))
}
func (h *hookLog) ResourceOp(op, name string, inUse, capacity, queued int, at Time) {
	h.lines = append(h.lines, fmt.Sprint("res ", op, name, inUse, capacity, queued, at))
}

// holdOp is one step of a scenario process.
type holdOp struct {
	kind  int // 0 sliced hold, 1 plain Use, 2 Acquire/Sleep/Release, 3 Sleep, 4 ping the other domain
	d     Duration
	units int
}

// holdScenario is a seeded plan, fixed before anything runs so the reference
// and the sliced hold execute the same program: two domains (one resource
// and one stall schedule each), 1-6 processes per resource mixing sliced
// holds with plain acquires, and cross-domain pings that make each domain's
// receiver contend for its resource.
type holdScenario struct {
	quantum  Duration
	capacity [2]int
	wins     [2][][2]Time
	procs    [2][][]holdOp
	pings    [2]int // pings each domain's receiver will get
}

func newHoldScenario(seed int64) *holdScenario {
	rng := rand.New(rand.NewSource(seed))
	sc := &holdScenario{quantum: Duration(1+rng.Intn(3)) * 500 * time.Nanosecond}
	q := sc.quantum
	burst := func() Duration {
		switch rng.Intn(8) {
		case 0:
			return Duration(rng.Intn(3)-1) * q // d <= 0, or exactly one quantum
		case 1:
			return 1 // 1 ns
		case 2, 3:
			return Duration(1+rng.Intn(40)) * q // exact multiples, up to 40 quanta
		case 4:
			return Duration(1+rng.Intn(4))*q + 1
		default:
			return Duration(1 + rng.Int63n(int64(6*q)))
		}
	}
	for d := 0; d < 2; d++ {
		sc.capacity[d] = 1 + rng.Intn(2)
		// Stall windows: apart, overlapping, chained end-to-start, and opening
		// exactly on a quantum boundary of a process that started at 0.
		at := Time(0)
		for n := rng.Intn(5); n > 0; n-- {
			var from Time
			switch rng.Intn(4) {
			case 0:
				from = at + Time(rng.Int63n(int64(20*q)))
			case 1:
				from = Time(1+rng.Intn(30)) * Time(q) // on a boundary
			case 2:
				from = at // chains onto the previous window's end
			default:
				from = at - Time(rng.Int63n(int64(q))) // overlaps it
			}
			if from < 0 {
				from = 0
			}
			to := from + 1 + Time(rng.Int63n(int64(5*q)))
			sc.wins[d] = append(sc.wins[d], [2]Time{from, to})
			at = to
		}
		for n := 1 + rng.Intn(6); n > 0; n-- {
			var ops []holdOp
			for m := 2 + rng.Intn(6); m > 0; m-- {
				op := holdOp{d: burst(), units: 1 + rng.Intn(sc.capacity[d])}
				switch k := rng.Intn(10); {
				case k < 5:
					op.kind = 0
				case k < 7:
					op.kind = 1
				case k == 7:
					op.kind = 2
				case k == 8:
					op.kind, op.d = 3, Duration(rng.Int63n(int64(3*q)))
				default:
					op.kind, op.d = 4, Duration(rng.Int63n(int64(3*q)))
					sc.pings[1-d]++
				}
				ops = append(ops, op)
			}
			sc.procs[d] = append(sc.procs[d], ops)
		}
	}
	return sc
}

// holdRun is everything observable about one execution of a scenario.
type holdRun struct {
	Hooks      []string // the kernel's tracer
	StallCalls [2][]Time
	ProcLogs   [][]string // per process: the clock on return from every operation
	Dispatched uint64
	Seq        uint64
	End        Time
	Err        string // what Run returned (chain scenarios may deadlock)
	Switches   uint64 // reported, not compared: the one thing meant to differ
}

// pingLatency is the least delay of a cross-domain ping.
const pingLatency = 2 * time.Microsecond

// run executes the scenario with hold as the sliced-hold implementation.
func (sc *holdScenario) run(t *testing.T, hold func(r *Resource, p *Proc, d, quantum Duration, stall Staller)) *holdRun {
	t.Helper()
	k := NewKernel()
	tr := &hookLog{}
	k.SetTracer(tr)
	out := &holdRun{}
	var stalls [2]*stallWindows
	var res [2]*Resource
	var inbox [2]*Chan[int]
	for d := 0; d < 2; d++ {
		res[d] = NewResource(k, fmt.Sprintf("cpu%d", d), sc.capacity[d])
		stalls[d] = &stallWindows{wins: sc.wins[d]}
		inbox[d] = NewChan[int](k, fmt.Sprintf("inbox%d", d))
	}
	for d := 0; d < 2; d++ {
		d, r, st, other := d, res[d], stalls[d], 1-d
		// The receiver answers each ping with a short hold on its own
		// resource, so cross-domain events feed the contention.
		k.Spawn(fmt.Sprintf("rx%d", d), func(p *Proc) {
			for i := 0; i < sc.pings[d]; i++ {
				inbox[d].Recv(p)
				hold(r, p, sc.quantum+1, sc.quantum, st)
			}
		})
		for i, ops := range sc.procs[d] {
			ops := ops
			li := len(out.ProcLogs)
			out.ProcLogs = append(out.ProcLogs, nil)
			k.Spawn(fmt.Sprintf("d%dp%d", d, i), func(p *Proc) {
				note := func() {
					out.ProcLogs[li] = append(out.ProcLogs[li], fmt.Sprint(p.Now(), k.dispatched, k.seq))
				}
				for _, op := range ops {
					switch op.kind {
					case 0:
						hold(r, p, op.d, sc.quantum, st)
					case 1:
						r.Use(p, op.units, op.d)
					case 2:
						r.Acquire(p, op.units)
						note()
						p.Sleep(op.d)
						r.Release(op.units)
					case 3:
						p.Sleep(op.d)
					case 4:
						k.After(pingLatency+op.d, func() { inbox[other].Send(1) })
					}
					note()
				}
			})
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	out.Dispatched, out.End, out.Switches, out.Seq = k.Dispatched(), k.Now(), k.Switches(), k.seq
	k.Shutdown()
	out.Hooks = tr.lines
	for d := range stalls {
		out.StallCalls[d] = stalls[d].calls
	}
	return out
}

// TestSlicedHoldMatchesLoop is the tentpole's oracle: over seeded scenarios
// the sliced hold and the loop it replaced produce the same hook stream,
// consult the stall hook at the same instants, return from every operation
// at the same clock, dispatch count and sequence number, and end at the
// same dispatch count, sequence number and time — equal, not close. Only the
// switch count may differ, and only downwards.
func TestSlicedHoldMatchesLoop(t *testing.T) {
	const scenarios = 240
	var refSw, gotSw uint64
	for seed := int64(0); seed < scenarios; seed++ {
		sc := newHoldScenario(seed)
		want := sc.run(t, refHoldSliced)
		got := sc.run(t, (*Resource).HoldSliced)
		if got.Switches > want.Switches {
			t.Errorf("seed %d: %d switches, the loop made %d", seed, got.Switches, want.Switches)
		}
		refSw, gotSw = refSw+want.Switches, gotSw+got.Switches
		want.Switches, got.Switches = 0, 0
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
		t.Fatalf("seed %d: loop vs sliced hold: dispatched %d vs %d, seq %d vs %d, end %v vs %v",
			seed, want.Dispatched, got.Dispatched, want.Seq, got.Seq, want.End, got.End)
	}
	t.Logf("%d scenarios: %d switches as a loop, %d as sliced holds", scenarios, refSw, gotSw)
	if gotSw*2 > refSw {
		t.Fatalf("sliced holds made %d switches against the loop's %d: the steps are not running inline", gotSw, refSw)
	}
}

func diffLines[T comparable](t *testing.T, what string, want, got []T) {
	t.Helper()
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			t.Errorf("%s: entry %d: oracle %v, kernel %v", what, i, want[i], got[i])
			return
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s: oracle %d entries, kernel %d", what, len(want), len(got))
	}
}

// TestSlicedHoldDeadlockReport: a hold queued behind a unit that is never
// released is reported as the acquire it is.
func TestSlicedHoldDeadlockReport(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cpu", 1)
	never := NewChan[int](k, "never")
	k.Spawn("hog", func(p *Proc) {
		r.Acquire(p, 1)
		never.Recv(p)
	})
	k.Spawn("burst", func(p *Proc) { r.HoldSliced(p, time.Millisecond, time.Microsecond, nil) })
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run = %v, want a DeadlockError", err)
	}
	want := []string{"burst(1): acquire cpu", "hog(0): recv never"}
	if !reflect.DeepEqual(de.Blocked, want) {
		t.Fatalf("blocked = %q, want %q", de.Blocked, want)
	}
	k.Shutdown()
}

func TestSlicedHoldBadQuantumPanics(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cpu", 1)
	k.Spawn("p", func(p *Proc) { r.HoldSliced(p, time.Millisecond, 0, nil) })
	err := k.Run()
	if pe, ok := err.(*PanicError); !ok || pe.Callback || pe.Proc != "p" {
		t.Fatalf("Run = %v, want process p's PanicError", err)
	}
	k.Shutdown()
}

// TestSlicedHoldLifecycle: however a run ends with one process mid-hold on
// the unit and another queued behind it, nothing of either hold happens
// afterwards — no event fires, no statement after the hold runs — and
// Shutdown leaves no coroutine behind.
func TestSlicedHoldLifecycle(t *testing.T) {
	const quantum = 10 * time.Microsecond
	endings := []struct {
		name string
		arm  func(k *Kernel, p *Proc)
	}{
		{"stop", func(k *Kernel, p *Proc) { k.Stop() }},
		{"cancel", nil}, // armed below: needs the channel before Run
		{"panic", func(k *Kernel, p *Proc) { panic("boom") }},
	}
	for _, end := range endings {
		tc := end.name
		base := runtime.NumGoroutine()
		k := NewKernel()
		arm := end.arm
		if arm == nil {
			cancel := make(chan struct{})
			k.SetCancel(cancel, 1)
			arm = func(*Kernel, *Proc) { close(cancel) }
		}
		tr := &hookLog{}
		k.SetTracer(tr)
		r := NewResource(k, "cpu", 1)
		after := 0
		for _, name := range []string{"holder", "queued"} {
			k.Spawn(name, func(p *Proc) {
				defer func() { after += 100 }() // the unwind itself must still happen
				r.HoldSliced(p, 100*quantum, quantum, nil)
				after++
			})
		}
		// The ender fires mid-slice, so the holder has the unit and the
		// other hold sits in the queue.
		k.Spawn("ender", func(p *Proc) {
			p.Sleep(quantum + quantum/2)
			arm(k, p)
			p.Sleep(time.Hour)
		})
		k.Spawn("bystander", func(p *Proc) { p.Sleep(time.Hour) })
		err := k.Run()
		if end.name == "panic" {
			if pe, ok := err.(*PanicError); !ok || pe.Proc != "ender" || pe.Callback {
				t.Fatalf("%s: Run = %v, want the ender's PanicError", tc, err)
			}
		} else if err != nil {
			t.Fatalf("%s: Run = %v", tc, err)
		}
		// Both holds are mid-flight: one on the unit and one queued, or (the
		// cancel poll stops the kernel on a slice boundary) both queued
		// with the grant still pending.
		if r.InUse()+r.QueueDepth() != 2 || r.QueueDepth() == 0 {
			t.Fatalf("%s: run ended with %d in use, %d queued; want two holds mid-flight", tc, r.InUse(), r.QueueDepth())
		}
		disp, pending := k.Dispatched(), k.Pending()
		hooks := func() int { return len(tr.lines) }
		before := hooks()
		live := k.LiveProcs()
		requireNoLeak(t, tc, k, base)
		if k.Dispatched() != disp || k.Pending() != pending {
			t.Fatalf("%s: Shutdown dispatched: %d -> %d events, %d -> %d pending", tc, disp, k.Dispatched(), pending, k.Pending())
		}
		// Teardown reports one ProcEnd per process it stopped, nothing else.
		if got := hooks() - before; got != live {
			t.Fatalf("%s: %d hooks fired during Shutdown, want the %d ProcEnds", tc, got, live)
		}
		if after != 200 {
			t.Fatalf("%s: after = %d, want 200 (both bodies unwound, neither continued past its hold)", tc, after)
		}
		// The holds' step events are still queued. Like a stale wake
		// (TestStaleWakeAfterShutdownIsDropped) they must be dropped, not
		// run, should anything drive the dead kernel's loop.
		inUse, depth, fired := r.InUse(), r.QueueDepth(), hooks()
		for k.queue.len() > 0 { // an armed cancel poll stops the loop after each event
			k.stopped = false
			if got := k.advance(nil); got != advDrained {
				t.Fatalf("%s: advance on the dead kernel = %v, want advDrained", tc, got)
			}
		}
		if r.InUse() != inUse || r.QueueDepth() != depth || hooks() != fired || k.Pending() != 0 {
			t.Fatalf("%s: a step of a torn-down hold ran: in use %d -> %d, queued %d -> %d, hooks %d -> %d, %d pending",
				tc, inUse, r.InUse(), depth, r.QueueDepth(), fired, hooks(), k.Pending())
		}
	}
}

package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// refChain is a chain as the calls it replaced, each its own park — the
// oracle for Proc.Hold, as refHoldSliced is for one burst: every event a
// chain schedules must be one these calls schedule, at the same instant, in
// the same order.
func refChain(p *Proc, c *Chain) {
	for _, d := range c.Burst {
		refHoldSliced(c.CPU, p, d, c.Quantum, c.Stall)
	}
	if c.Egress == nil {
		return
	}
	if c.Fabric != nil {
		c.Fabric.Acquire(p, 1)
	}
	c.Egress.Acquire(p, 1)
	p.Sleep(c.Wire)
	c.Egress.Release(1)
	if c.Fabric != nil {
		c.Fabric.Release(1)
	}
}

// chainImpl is one side of the comparison: how a process holds a chain, how
// it receives with a chain behind the receive, and how a timeout ends a
// private receive (with a negative value, after which nothing is held).
type chainImpl struct {
	hold      func(p *Proc, c *Chain)
	recvHold  func(c *Chan[int], p *Proc, v *int, then *Chain)
	interrupt func(c *Chan[int], v int)
	stackless bool // the chained forms' halves, in a stackless process
}

var (
	callsImpl = chainImpl{
		hold: refChain,
		recvHold: func(c *Chan[int], p *Proc, v *int, then *Chain) {
			if *v = c.Recv(p); *v >= 0 {
				refChain(p, then)
			}
		},
		interrupt: (*Chan[int]).Send,
	}
	chainedImpl = chainImpl{
		hold:      (*Proc).Hold,
		recvHold:  (*Chan[int]).RecvHold,
		interrupt: (*Chan[int]).Interrupt,
	}
)

// Scenario operations.
const (
	opChain    = iota // a chain: bursts, wire, fabric
	opAcquire         // a plain Acquire/Sleep/Release on the CPU, fabric or egress
	opSliced          // a one-burst hold, HoldSliced's shape
	opRecvHold        // a receive with a chain behind it, on the domain's shared box
	opRecv            // a plain receive on the shared box
	opSend            // a value into a box: now, later, or across domains
	opTimed           // a private receive that a delivery and a timeout race for
	opSleep
)

// chainSpec is a chain before it meets the domain's resources.
type chainSpec struct {
	burst [2]Duration
	stall bool
	wire  int // 0 none, 1 egress, 2 fabric and egress
	ser   Duration
}

func (cs chainSpec) chain(q Duration, cpu, fab, eg *Resource, st Staller) Chain {
	c := Chain{CPU: cpu, Quantum: q, Burst: cs.burst}
	if cs.stall {
		c.Stall = st
	}
	if cs.wire > 0 {
		c.Egress, c.Wire = eg, cs.ser
	}
	if cs.wire > 1 {
		c.Fabric = fab
	}
	return c
}

type chainOp struct {
	kind       int
	c          chainSpec
	d, d2      Duration
	units, res int
	dom        int  // opSend: the box's domain
	timerFirst bool // opTimed: the timeout is scheduled before the delivery
}

// chainScenario is a seeded plan, fixed before anything runs: two domains,
// each with a CPU (capacity 1 or 2), a fabric (1 or 2), an egress, a stall
// schedule and a shared mailbox; 1-5 processes per domain mixing chains of
// every shape (zero-length phases included) with plain acquires and holds on
// the same queues, receives with and without a chain behind them on the
// shared box (so a gate can lose its value to a plain receiver at the same
// instant), sends within and across domains, and private receives raced by
// a delivery and a timeout on a coarse time grid, so they often tie.
type chainScenario struct {
	quantum        Duration
	cpuCap, fabCap [2]int
	wins           [2][][2]Time
	procs          [2][][]chainOp
	feeds          [2][]Time // extra deliveries into each box, so receives end
}

func newChainScenario(seed int64) *chainScenario {
	rng := rand.New(rand.NewSource(seed))
	sc := &chainScenario{quantum: Duration(1+rng.Intn(3)) * 500 * time.Nanosecond}
	q := sc.quantum
	grid := func(n int) Duration { return Duration(rng.Intn(n)) * 250 * time.Nanosecond }
	burst := func() Duration {
		switch rng.Intn(7) {
		case 0:
			return Duration(-rng.Intn(2)) // 0 or negative: skipped
		case 1:
			return Duration(1+rng.Intn(4)) * q // exact multiples
		case 2:
			return grid(12) + 1
		default:
			return grid(12)
		}
	}
	var recvs, sends [2]int
	for d := 0; d < 2; d++ {
		sc.cpuCap[d], sc.fabCap[d] = 1+rng.Intn(2), 1+rng.Intn(2)
		at := Time(0)
		for n := rng.Intn(5); n > 0; n-- {
			var from Time
			switch rng.Intn(3) {
			case 0:
				from = at + Time(grid(40))
			case 1:
				from = at // chains onto the previous window's end
			default:
				from = at - Time(grid(4)) // overlaps it
			}
			if from < 0 {
				from = 0
			}
			to := from + 1 + Time(grid(20))
			sc.wins[d] = append(sc.wins[d], [2]Time{from, to})
			at = to
		}
		for n := 1 + rng.Intn(5); n > 0; n-- {
			var ops []chainOp
			for m := 2 + rng.Intn(6); m > 0; m-- {
				op := chainOp{c: chainSpec{
					burst: [2]Duration{burst(), burst()},
					stall: rng.Intn(3) > 0, wire: rng.Intn(3), ser: grid(8),
				}}
				switch k := rng.Intn(20); {
				case k < 6:
					op.kind = opChain
				case k < 8:
					op.kind, op.res, op.d, op.units = opAcquire, rng.Intn(3), grid(8), 1
					switch op.res {
					case 0:
						op.units += rng.Intn(sc.cpuCap[d])
					case 1:
						op.units += rng.Intn(sc.fabCap[d])
					}
				case k < 9:
					op.kind, op.d = opSliced, burst()
				case k < 12:
					op.kind = opRecvHold
					recvs[d]++
				case k < 13:
					op.kind = opRecv
					recvs[d]++
				case k < 17:
					op.kind, op.dom, op.d = opSend, rng.Intn(2), grid(8)
					sends[op.dom]++
				case k < 19:
					op.kind, op.d, op.d2, op.timerFirst = opTimed, grid(8), grid(8), rng.Intn(2) == 0
				default:
					op.kind, op.d = opSleep, grid(8)
				}
				ops = append(ops, op)
			}
			sc.procs[d] = append(sc.procs[d], ops)
		}
	}
	// Feed each box what its receivers will take beyond what is sent to it —
	// one value short in some scenarios, which then end in a deadlock both
	// sides must report alike.
	short := rng.Intn(8) == 0
	for d := 0; d < 2; d++ {
		for n := recvs[d] - sends[d]; n > 0; n-- {
			if short && d == 0 && n == 1 {
				continue
			}
			sc.feeds[d] = append(sc.feeds[d], Time(grid(400)))
		}
	}
	return sc
}

// chainProc is one scenario process: its operations and what it works with
// on its domain. body runs them as a coroutine, with impl's blocking forms;
// step (stackless_test.go) runs them as a stackless process, with halves.
type chainProc struct {
	k            *Kernel
	d            int
	li           int // index of the process's log
	ops          []chainOp
	q            Duration
	cpu, fab, eg *Resource
	stall        Staller
	box          [2]*Chan[int]
	log          *[]string
	// The stackless process's position: the next operation, and what its
	// wake must finish.
	j    int
	then func(p *Proc) bool
}

// note logs the clock, the dispatch count and the sequence number on return
// from an operation, with its result.
func (cp *chainProc) note(p *Proc, v ...any) {
	*cp.log = append(*cp.log, fmt.Sprint(p.Now(), cp.k.dispatched, cp.k.seq, v))
}

// chain is op's chain on the process's domain.
func (cp *chainProc) chain(op chainOp) Chain {
	return op.c.chain(cp.q, cp.cpu, cp.fab, cp.eg, cp.stall)
}

// sliced is an opSliced's one-burst chain.
func (cp *chainProc) sliced(op chainOp) Chain {
	return Chain{CPU: cp.cpu, Quantum: cp.q, Stall: cp.stall, Burst: [2]Duration{op.d}}
}

// res is an opAcquire's resource.
func (cp *chainProc) res(op chainOp) *Resource { return [...]*Resource{cp.cpu, cp.fab, cp.eg}[op.res] }

// send is opSend, operation j: a value into a box, now, later or across
// domains.
func (cp *chainProc) send(p *Proc, op chainOp, j int) {
	b, v := cp.box[op.dom], 100*cp.li+j
	switch {
	case op.dom != cp.d:
		cp.k.After(pingLatency+op.d, func() { b.Send(v) })
	case op.d == 0:
		b.Send(v)
	default:
		cp.k.After(op.d, func() { b.Send(v) })
	}
}

// timed arms opTimed, operation j: a private box that a delivery and a
// timeout race for.
func (cp *chainProc) timed(p *Proc, op chainOp, j int, impl chainImpl) *Chan[int] {
	ch := NewChan[int](cp.k, fmt.Sprintf("timed%d.%d", cp.li, j))
	done := false
	deliver := func() {
		if !done {
			done = true
			ch.Send(7)
		}
	}
	timeout := func() {
		if !done {
			done = true
			impl.interrupt(ch, -1)
		}
	}
	if op.timerFirst {
		cp.k.After(op.d2, timeout)
		cp.k.After(op.d, deliver)
	} else {
		cp.k.After(op.d, deliver)
		cp.k.After(op.d2, timeout)
	}
	return ch
}

// body runs the operations with impl's blocking forms.
func (cp *chainProc) body(p *Proc, impl chainImpl) {
	for j, op := range cp.ops {
		c := cp.chain(op)
		switch op.kind {
		case opChain:
			impl.hold(p, &c)
			cp.note(p)
		case opAcquire:
			r := cp.res(op)
			r.Acquire(p, op.units)
			cp.note(p)
			p.Sleep(op.d)
			r.Release(op.units)
			cp.note(p)
		case opSliced:
			c = cp.sliced(op)
			impl.hold(p, &c)
			cp.note(p)
		case opRecvHold:
			var v int
			impl.recvHold(cp.box[cp.d], p, &v, &c)
			cp.note(p, v)
		case opRecv:
			cp.note(p, cp.box[cp.d].Recv(p))
		case opSend:
			cp.send(p, op, j)
			cp.note(p)
		case opTimed:
			var v int
			impl.recvHold(cp.timed(p, op, j, impl), p, &v, &c)
			cp.note(p, v)
		case opSleep:
			p.Sleep(op.d)
			cp.note(p)
		}
	}
}

// run executes the scenario with impl and returns everything observable.
func (sc *chainScenario) run(t *testing.T, impl chainImpl) *holdRun {
	t.Helper()
	k := NewKernel()
	tr := &hookLog{}
	k.SetTracer(tr)
	out := &holdRun{}
	var stalls [2]*stallWindows
	var cpu, fab, eg [2]*Resource
	var box [2]*Chan[int]
	for d := 0; d < 2; d++ {
		cpu[d] = NewResource(k, fmt.Sprintf("cpu%d", d), sc.cpuCap[d])
		fab[d] = NewResource(k, fmt.Sprintf("fabric%d", d), sc.fabCap[d])
		eg[d] = NewResource(k, fmt.Sprintf("egress%d", d), 1)
		stalls[d] = &stallWindows{wins: sc.wins[d]}
		box[d] = NewChan[int](k, fmt.Sprintf("box%d", d))
		for i, at := range sc.feeds[d] {
			b, v := box[d], 10000+i
			k.After(Duration(at), func() { b.Send(v) })
		}
	}
	var logs [][]string
	for d := 0; d < 2; d++ {
		logs = append(logs, make([][]string, len(sc.procs[d]))...)
	}
	li := 0
	for d := 0; d < 2; d++ {
		for i, ops := range sc.procs[d] {
			cp := &chainProc{
				k: k, d: d, li: li, ops: ops, q: sc.quantum,
				cpu: cpu[d], fab: fab[d], eg: eg[d], stall: stalls[d], box: box, log: &logs[li],
			}
			li++
			name := fmt.Sprintf("d%dp%d", d, i)
			if impl.stackless {
				k.SpawnStep(procName(name), func(p *Proc) bool { return cp.step(p, impl) })
			} else {
				k.Spawn(name, func(p *Proc) { cp.body(p, impl) })
			}
		}
	}
	out.Err = fmt.Sprint(k.Run())
	out.Dispatched, out.End, out.Switches, out.Seq = k.Dispatched(), k.Now(), k.Switches(), k.seq
	k.Shutdown()
	out.ProcLogs = logs
	out.Hooks = tr.lines
	for d := range stalls {
		out.StallCalls[d] = stalls[d].calls
	}
	return out
}

// TestChainMatchesCalls is the tentpole's oracle: over seeded scenarios a
// chain held in one park — and a receive with a chain behind it — produce
// the same hook stream as the calls they replaced, consult the stall hook at
// the same instants, return from every operation at the same clock with the
// same value, dispatch count and sequence number, and end at the same
// dispatch count, sequence number, time and error (a deadlock's report
// included) — equal, not close. Only the switch count may differ.
func TestChainMatchesCalls(t *testing.T) {
	const scenarios = 240
	var refSw, gotSw uint64
	deadlocks := 0
	for seed := int64(0); seed < scenarios; seed++ {
		sc := newChainScenario(seed)
		want := sc.run(t, callsImpl)
		got := sc.run(t, chainedImpl)
		refSw, gotSw = refSw+want.Switches, gotSw+got.Switches
		want.Switches, got.Switches = 0, 0
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
		t.Fatalf("seed %d: calls vs chain: dispatched %d vs %d, seq %d vs %d, end %v vs %v, err %q vs %q",
			seed, want.Dispatched, got.Dispatched, want.Seq, got.Seq, want.End, got.End, want.Err, got.Err)
	}
	t.Logf("%d scenarios (%d ending in a deadlock): %d switches as calls, %d as chains", scenarios, deadlocks, refSw, gotSw)
	if deadlocks == 0 {
		t.Fatal("no scenario deadlocked: the deadlock report is not being compared")
	}
	if gotSw*3 > refSw*2 {
		t.Fatalf("chains made %d switches against the calls' %d: the steps are not running inline", gotSw, refSw)
	}
}

// TestGateSpuriousWake: a gated receiver whose value is taken, at the
// instant of delivery, by a plain receiver that got there first keeps
// waiting — without holding — and runs its chain on the next value, exactly
// as a plain receive followed by the chain's calls does.
func TestGateSpuriousWake(t *testing.T) {
	run := func(impl chainImpl) []string {
		k := NewKernel()
		tr := &hookLog{}
		k.SetTracer(tr)
		cpu := NewResource(k, "cpu", 1)
		box := NewChan[int](k, "box")
		var log []string
		k.Spawn("gated", func(p *Proc) {
			var v int
			impl.recvHold(box, p, &v, &Chain{CPU: cpu, Quantum: time.Microsecond, Burst: [2]Duration{1500}})
			log = append(log, fmt.Sprint("gated ", v, p.Now()))
		})
		k.Spawn("thief", func(p *Proc) {
			p.Sleep(time.Microsecond)
			box.Send(1)
			log = append(log, fmt.Sprint("thief ", box.Recv(p), p.Now())) // the gate's step is still queued
			p.Sleep(time.Microsecond)
			box.Send(2)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return append(log, tr.lines...)
	}
	want, got := run(callsImpl), run(chainedImpl)
	if !reflect.DeepEqual(want, got) {
		diffLines(t, "spurious gate wake", want, got)
	}
	if got[0] != "thief 1 1µs" || got[1] != "gated 2 3.5µs" {
		t.Fatalf("log %q: the thief should take 1 at 1µs and the gate hold 1.5µs after 2 arrives at 2µs", got[:2])
	}
}

// TestChainDeadlockReport: however far a chain got, a deadlock report names
// the phase it is actually stuck in — the mailbox, or the queue of whichever
// resource it waits for — not where it started.
func TestChainDeadlockReport(t *testing.T) {
	k := NewKernel()
	cpu, fab, eg := NewResource(k, "cpu", 1), NewResource(k, "fabric", 1), NewResource(k, "egress", 1)
	never, box := NewChan[int](k, "never"), NewChan[int](k, "box")
	k.Spawn("hog", func(p *Proc) {
		fab.Acquire(p, 1)
		never.Recv(p)
	})
	k.Spawn("send", func(p *Proc) {
		p.Hold(&Chain{CPU: cpu, Quantum: time.Microsecond, Burst: [2]Duration{1500, 500}, Fabric: fab, Egress: eg, Wire: 1})
	})
	k.Spawn("recv", func(p *Proc) {
		var v int
		box.RecvHold(p, &v, &Chain{CPU: cpu, Quantum: time.Microsecond, Burst: [2]Duration{500}})
	})
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run = %v, want a DeadlockError", err)
	}
	want := []string{"hog(0): recv never", "recv(2): recv box", "send(1): acquire fabric"}
	if !reflect.DeepEqual(de.Blocked, want) {
		t.Fatalf("blocked = %q, want %q", de.Blocked, want)
	}
	k.Shutdown()
}

// TestChainLifecycle: however a run ends with one chain on the wire, another
// queued for the fabric behind it and a receive parked at its gate, nothing
// of any of them happens afterwards — no event fires, no statement after the
// hold runs — and Shutdown leaves no coroutine behind.
func TestChainLifecycle(t *testing.T) {
	const q = 10 * time.Microsecond
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
		cpu := NewResource(k, "cpu", 1)
		fab, eg := NewResource(k, "fabric", 1), NewResource(k, "egress", 1)
		box := NewChan[int](k, "box")
		after := 0
		send := &Chain{CPU: cpu, Quantum: q, Burst: [2]Duration{q / 2, q / 2}, Fabric: fab, Egress: eg, Wire: 100 * q}
		for _, name := range []string{"wire", "queued"} {
			k.Spawn(name, func(p *Proc) {
				defer func() { after += 100 }() // the unwind itself must still happen
				p.Hold(send)
				after++
			})
		}
		k.Spawn("gated", func(p *Proc) {
			defer func() { after += 100 }()
			var v int
			box.RecvHold(p, &v, &Chain{CPU: cpu, Quantum: q, Burst: [2]Duration{q}})
			after++
		})
		// The ender fires once the first send is on the wire and the
		// second has finished its bursts and queued for the fabric; its
		// next wake is the event at which a cancel poll sees the close.
		k.Spawn("ender", func(p *Proc) {
			p.Sleep(2*q + q/2)
			arm(k, p)
			p.Sleep(q)
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
		if fab.InUse() != 1 || fab.QueueDepth() != 1 || eg.InUse() != 1 {
			t.Fatalf("%s: run ended with fabric %d in use / %d queued, egress %d in use; want one send on the wire and one queued",
				tc, fab.InUse(), fab.QueueDepth(), eg.InUse())
		}
		disp, pending := k.Dispatched(), k.Pending()
		hooks := func() int { return len(tr.lines) }
		before := hooks()
		live := k.LiveProcs()
		requireNoLeak(t, tc, k, base)
		if k.Dispatched() != disp || k.Pending() != pending {
			t.Fatalf("%s: Shutdown dispatched: %d -> %d events, %d -> %d pending", tc, disp, k.Dispatched(), pending, k.Pending())
		}
		if got := hooks() - before; got != live {
			t.Fatalf("%s: %d hooks fired during Shutdown, want the %d ProcEnds", tc, got, live)
		}
		if after != 300 {
			t.Fatalf("%s: after = %d, want 300 (all three bodies unwound, none continued past its hold)", tc, after)
		}
		// A delivery to the torn-down gate and the chains' queued events
		// must be dropped, not run, should anything drive the dead loop.
		box.Send(1)
		inUse, depth, fired := fab.InUse(), fab.QueueDepth(), hooks()
		for k.queue.len() > 0 { // an armed cancel poll stops the loop after each event
			k.stopped = false
			if got := k.advance(nil); got != advDrained {
				t.Fatalf("%s: advance on the dead kernel = %v, want advDrained", tc, got)
			}
		}
		if fab.InUse() != inUse || fab.QueueDepth() != depth || cpu.InUse() != 0 || hooks() != fired || k.Pending() != 0 {
			t.Fatalf("%s: a step of a torn-down chain ran: fabric %d -> %d in use, %d -> %d queued, cpu %d, hooks %d -> %d, %d pending",
				tc, inUse, fab.InUse(), depth, fab.QueueDepth(), cpu.InUse(), fired, hooks(), k.Pending())
		}
	}
}

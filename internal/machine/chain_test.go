package machine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
)

// The oracle for a message side held in one park is transfer and
// RecvOverhead as the separate calls they replaced, each a park of its own:
// the caller's pack Memcpy, then the send overhead, the fabric and egress
// acquires, the wire's Sleep and the releases; on the receive side a plain
// channel receive, then the overhead and the caller's unpack Memcpy. The CPU
// bursts are the quantum loop itself, not the kernel's sliced hold.

func refBusy(nd *Node, p *sim.Proc, d sim.Duration) {
	for d > 0 {
		if end, ok := nd.StalledUntil(p.Now()); ok {
			p.SleepUntil(end)
		}
		q := min(d, cpuQuantum)
		nd.cpu.Use(p, 1, q)
		d -= q
	}
}

func refTransfer(nd *Node, p *sim.Proc, dst, n, pack int, out fault.Outcome) (sim.Time, bool) {
	m := nd.mach
	pl := &m.Plat
	d := pl.CopyTime(pack)
	nd.CopyBusy += d
	refBusy(nd, p, d)
	nd.MsgsSent++
	nd.BytesSent += int64(n)
	if dst == nd.ID {
		d := pl.CopyTime(n)
		nd.CopyBusy += d
		refBusy(nd, p, d)
		return p.Now(), true
	}
	refBusy(nd, p, pl.SendOverhead)
	if out.Down {
		nd.CommBusy += pl.SendOverhead
		return 0, false
	}
	intra := pl.SameBoard(nd.ID, dst)
	lat, ser := pl.InterLatency, serialTime(n, pl.InterBW*out.BWFactor)
	if intra {
		lat, ser = pl.IntraLatency, serialTime(n, pl.IntraBW*out.BWFactor)
	}
	lat += out.ExtraLatency
	useFabric := !intra && m.fabric != nil
	if useFabric {
		m.fabric.Acquire(p, 1)
	}
	nd.egress.Acquire(p, 1)
	p.Sleep(ser)
	nd.egress.Release(1)
	if useFabric {
		m.fabric.Release(1)
	}
	nd.CommBusy += pl.SendOverhead + ser
	if out.Drop {
		return 0, false
	}
	return p.Now().Add(lat), true
}

// inbox is a test receiver's message box in the style of mpi's endpoint: an
// arrival is handed to a waiting receiver over its channel, or counted
// pending; a timeout hands over a negative value.
type inbox struct {
	ch      *sim.Chan[int]
	pending int
	waiting bool
	gen     int
}

func (in *inbox) arrive(v int) {
	if in.waiting {
		in.waiting = false
		in.ch.Send(v)
		return
	}
	in.pending++
}

// inboxGate is the inbox as a receive's gate (mpi's waiter is the real one).
type inboxGate struct {
	in *inbox
	v  int
}

func (g *inboxGate) HoldBegin(p *sim.Proc, then sim.Chain) bool {
	return g.in.ch.RecvHoldBegin(p, &g.v, &then)
}

func (g *inboxGate) HoldResume(p *sim.Proc) (done, came bool) {
	if !g.in.ch.RecvHoldResume(p, &g.v) {
		return false, false
	}
	return true, g.v >= 0
}

// msgImpl is one side of the comparison.
type msgImpl struct {
	transfer  func(nd *Node, p *sim.Proc, dst, n, pack int, out fault.Outcome) (sim.Time, bool)
	recv      func(nd *Node, p *sim.Proc, unpack int, g *inboxGate) bool // g nil: the message was pending
	interrupt func(c *sim.Chan[int], v int)
	busy      func(nd *Node, p *sim.Proc, d sim.Duration)
}

var (
	callsMsgs = msgImpl{
		transfer: refTransfer,
		recv: func(nd *Node, p *sim.Proc, unpack int, g *inboxGate) bool {
			if g != nil {
				if g.v = g.in.ch.Recv(p); g.v < 0 {
					return false
				}
			}
			pl := &nd.mach.Plat
			nd.CommBusy += pl.RecvOverhead
			refBusy(nd, p, pl.RecvOverhead)
			d := pl.CopyTime(unpack)
			nd.CopyBusy += d
			refBusy(nd, p, d)
			return true
		},
		interrupt: (*sim.Chan[int]).Send,
		busy:      refBusy,
	}
	chainedMsgs = msgImpl{
		transfer: (*Node).transfer,
		recv: func(nd *Node, p *sim.Proc, unpack int, g *inboxGate) bool {
			if g == nil {
				return nd.RecvOverhead(p, unpack, nil)
			}
			return nd.RecvOverhead(p, unpack, g)
		},
		interrupt: (*sim.Chan[int]).Interrupt,
		busy:      func(nd *Node, p *sim.Proc, d sim.Duration) { nd.burst(p, nd.busyBegin(p, d)) },
	}
)

// Message-scenario operations.
const (
	msgSend = iota
	msgRecv
	msgCompute
	msgEgress // a plain Acquire/Sleep/Release of the node's egress
	msgFabric // the same on the shared fabric (a plain sleep on a crossbar)
)

type msgOp struct {
	kind            int
	to              int // msgSend: the receiving process
	n, pack, unpack int
	out             fault.Outcome
	timeout, d      sim.Duration // msgRecv: 0 = untimed
}

// msgScenario is a seeded plan over a four-node machine (two boards): a
// crossbar or a shared fabric of one or two units, send and receive
// overheads of zero or not, processes on random nodes sending to each other
// (self-transfers included) with and without pack and unpack copies, links
// that are down, drop or degrade, receives raced by timeouts on a 1 µs grid
// (so arrival and timeout often tie), plain egress and fabric users and
// computation on the same queues, and stall windows on the node CPUs.
type msgScenario struct {
	fabric           int
	sendOvh, recvOvh sim.Duration
	procNode         []int
	ops              [][]msgOp
	stalls           []fault.StallRule
	feeds            []int // per process: late arrivals, so untimed receives end
}

func newMsgScenario(seed int64) *msgScenario {
	rng := rand.New(rand.NewSource(seed))
	us := func(n int) sim.Duration { return sim.Duration(rng.Intn(n)) * time.Microsecond }
	ovh := func() sim.Duration {
		return [...]sim.Duration{0, 10 * time.Microsecond, 3 * time.Microsecond}[rng.Intn(3)]
	}
	sc := &msgScenario{fabric: [...]int{0, 0, 1, 2}[rng.Intn(4)], sendOvh: ovh(), recvOvh: ovh()}
	sizes := []int{0, 100, 500, 2_000, 60_000} // 60 000 B copy: three quanta
	procs := 2 + rng.Intn(5)
	for i := 0; i < procs; i++ {
		sc.procNode = append(sc.procNode, rng.Intn(4))
	}
	sc.feeds = make([]int, procs)
	for i := 0; i < procs; i++ {
		var ops []msgOp
		for m := 2 + rng.Intn(7); m > 0; m-- {
			var op msgOp
			switch k := rng.Intn(12); {
			case k < 5:
				op.kind, op.to = msgSend, rng.Intn(procs)
				op.n = sizes[rng.Intn(len(sizes))]
				op.pack = [...]int{0, op.n, 300}[rng.Intn(3)]
				op.out = fault.Outcome{BWFactor: 1}
				if sc.procNode[op.to] != sc.procNode[i] {
					switch rng.Intn(8) {
					case 0:
						op.out = fault.Outcome{Down: true}
					case 1:
						op.out.Drop = true
					case 2:
						op.out = fault.Outcome{BWFactor: 0.5, ExtraLatency: us(4)}
					}
				}
			case k < 9:
				op.kind, op.unpack = msgRecv, [...]int{0, 300, 60_000}[rng.Intn(3)]
				if rng.Intn(3) > 0 {
					op.timeout = time.Microsecond + us(60)
				} else {
					sc.feeds[i]++
				}
			case k < 10:
				op.kind, op.d = msgCompute, us(40)
				if rng.Intn(4) == 0 {
					op.d = 600 * time.Microsecond
				}
			case k < 11:
				op.kind, op.d = msgEgress, us(20)
			default:
				op.kind, op.d = msgFabric, us(20)
			}
			ops = append(ops, op)
		}
		sc.ops = append(sc.ops, ops)
	}
	for node := 0; node < 4; node++ {
		at := sim.Time(0)
		for n := rng.Intn(3); n > 0; n-- {
			from := at + sim.Time(us(400))
			to := from + 1 + sim.Time(us(100))
			sc.stalls = append(sc.stalls, fault.StallRule{Node: node, Win: fault.Window{From: from, To: to}})
			at = to
		}
	}
	return sc
}

// hookRec records the complete hook stream.
type hookRec struct {
	lines []string
}

func (h *hookRec) add(v ...any)                                { h.lines = append(h.lines, fmt.Sprint(v...)) }
func (h *hookRec) ProcStart(pid int, name string, at sim.Time) { h.add("start ", pid, name, at) }
func (h *hookRec) ProcEnd(pid int, name string, at sim.Time)   { h.add("end ", pid, name, at) }
func (h *hookRec) Wait(pid int, proc, kind, object string, from, to sim.Time, depth int) {
	h.add("wait ", pid, proc, kind, object, from, to, depth)
}
func (h *hookRec) ChanOp(op, name string, qlen int, at sim.Time) { h.add("chan ", op, name, qlen, at) }
func (h *hookRec) ResourceOp(op, name string, inUse, capacity, queued int, at sim.Time) {
	h.add("res ", op, name, inUse, capacity, queued, at)
}

// msgRun is everything observable about one execution of a scenario.
type msgRun struct {
	Hooks      []string
	Logs       [][]string // per process: clock and result on return from every operation
	Nodes      []string   // per node: the accounting counters
	Faults     string
	Dispatched uint64
	End        sim.Time
	Err        string
	Switches   uint64 // reported, not compared
}

func (sc *msgScenario) run(t *testing.T, impl msgImpl) *msgRun {
	t.Helper()
	k := sim.NewKernel()
	tr := &hookRec{}
	k.SetTracer(tr)
	pl := testPlatform()
	pl.FabricConcurrency, pl.SendOverhead, pl.RecvOverhead = sc.fabric, sc.sendOvh, sc.recvOvh
	m := New(k, pl, 4)
	if len(sc.stalls) > 0 {
		plan := &fault.Plan{Stalls: sc.stalls}
		if err := plan.Validate(); err != nil {
			t.Fatal(err)
		}
		m.SetFaults(plan.NewInjector())
	}
	inboxes := make([]*inbox, len(sc.procNode))
	for i := range sc.procNode {
		inboxes[i] = &inbox{ch: sim.NewChan[int](k, fmt.Sprintf("inbox%d", i))}
	}
	for i, n := range sc.feeds {
		for j := 0; j < n; j++ {
			in, v := inboxes[i], 10000+j
			k.After(50*time.Millisecond+sim.Duration(j), func() { in.arrive(v) })
		}
	}
	out := &msgRun{Logs: make([][]string, len(sc.ops))}
	for i, ops := range sc.ops {
		nd := m.Node(sc.procNode[i])
		k.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			note := func(v ...any) {
				out.Logs[i] = append(out.Logs[i], fmt.Sprint(p.Now(), k.Dispatched(), v))
			}
			for j, op := range ops {
				switch op.kind {
				case msgSend:
					dst := sc.procNode[op.to]
					at, ok := impl.transfer(nd, p, dst, op.n, op.pack, op.out)
					note(at, ok)
					if !ok {
						continue
					}
					in, v := inboxes[op.to], 100*i+j
					if at <= p.Now() {
						in.arrive(v)
					} else {
						k.After(at.Sub(p.Now()), func() { in.arrive(v) })
					}
				case msgRecv:
					in := inboxes[i]
					var g *inboxGate
					if in.pending > 0 {
						in.pending--
					} else {
						g = &inboxGate{in: in}
						in.waiting = true
						if op.timeout > 0 {
							gen := in.gen
							k.After(op.timeout, func() {
								if in.gen == gen && in.waiting {
									in.waiting = false
									impl.interrupt(in.ch, -1)
								}
							})
						}
					}
					ok := impl.recv(nd, p, op.unpack, g)
					in.gen++
					v := -2
					if g != nil {
						v = g.v
					}
					note(ok, v)
				case msgCompute:
					nd.ComputeBusy += op.d
					impl.busy(nd, p, op.d)
					note()
				case msgEgress:
					nd.egress.Acquire(p, 1)
					p.Sleep(op.d)
					nd.egress.Release(1)
					note()
				case msgFabric:
					if m.fabric != nil {
						m.fabric.Acquire(p, 1)
						p.Sleep(op.d)
						m.fabric.Release(1)
					} else {
						p.Sleep(op.d)
					}
					note()
				}
			}
		})
	}
	out.Err = fmt.Sprint(k.Run())
	out.Dispatched, out.End, out.Switches = k.Dispatched(), k.Now(), k.Switches()
	k.Shutdown()
	out.Hooks = tr.lines
	for i := range m.NumNodes() {
		out.Nodes = append(out.Nodes, fmt.Sprint(m.Totals(i)))
	}
	out.Faults = fmt.Sprint(m.Faults().Counts())
	return out
}

// TestMessageChainMatchesCalls holds both message sides — Transfer with its
// pack copy, the fabric path, self-transfers, down and dropped links;
// RecvOverhead behind a gate with its unpack copy, timeouts tying with
// arrivals in either order — to the calls they replaced, over seeded
// scenarios: the complete hook stream, every process's clock and results, the nodes'
// ComputeBusy/CopyBusy/CommBusy/MsgsSent/BytesSent, the stall counts,
// Dispatched, the final clock and Run's error — equal, not close.
func TestMessageChainMatchesCalls(t *testing.T) {
	const scenarios = 200
	var refSw, gotSw uint64
	for seed := int64(0); seed < scenarios; seed++ {
		sc := newMsgScenario(seed)
		want := sc.run(t, callsMsgs)
		got := sc.run(t, chainedMsgs)
		refSw, gotSw = refSw+want.Switches, gotSw+got.Switches
		want.Switches, got.Switches = 0, 0
		if reflect.DeepEqual(want, got) {
			continue
		}
		diff := func(what string, a, b []string) {
			for i := 0; i < len(a) && i < len(b); i++ {
				if a[i] != b[i] {
					t.Errorf("seed %d %s: entry %d: calls %s, chain %s", seed, what, i, a[i], b[i])
					return
				}
			}
			if len(a) != len(b) {
				t.Errorf("seed %d %s: calls %d entries, chain %d", seed, what, len(a), len(b))
			}
		}
		diff("hooks", want.Hooks, got.Hooks)
		for p := range want.Logs {
			diff(fmt.Sprintf("process %d", p), want.Logs[p], got.Logs[p])
		}
		diff("nodes", want.Nodes, got.Nodes)
		t.Fatalf("seed %d: calls vs chain: dispatched %d vs %d, end %v vs %v, faults %s vs %s, err %q vs %q",
			seed, want.Dispatched, got.Dispatched, want.End, got.End, want.Faults, got.Faults, want.Err, got.Err)
	}
	t.Logf("%d scenarios: %d switches as calls, %d as chains", scenarios, refSw, gotSw)
	if gotSw*3 > refSw*2 {
		t.Fatalf("chains made %d switches against the calls' %d", gotSw, refSw)
	}
}

// TestChainedSendDeadlockNamesFabric: a send whose chain reached the shared
// fabric and waits there for ever is reported as the fabric acquire it is
// blocked in — as the separate calls reported it — not as its CPU, where
// the chain began; a receive parked at its gate is reported on the gate's
// channel.
func TestChainedSendDeadlockNamesFabric(t *testing.T) {
	pl := testPlatform()
	pl.Name, pl.FabricConcurrency = "SKY", 4
	k := sim.NewKernel()
	m := New(k, pl, 4)
	never := sim.NewChan[int](k, "never")
	k.Spawn("hog", func(p *sim.Proc) {
		m.fabric.Acquire(p, m.fabric.Capacity())
		never.Recv(p)
	})
	k.Spawn("send", func(p *sim.Proc) { m.Node(0).Transfer(p, 2, 1000, 500) })
	in := &inbox{ch: sim.NewChan[int](k, "inbox"), waiting: true}
	k.Spawn("recv", func(p *sim.Proc) { m.Node(1).RecvOverhead(p, 500, &inboxGate{in: in}) })
	err := k.Run()
	de, ok := err.(*sim.DeadlockError)
	if !ok {
		t.Fatalf("Run = %v, want a DeadlockError", err)
	}
	want := []string{"hog(0): recv never", "recv(2): recv inbox", "send(1): acquire SKY.fabric"}
	if !reflect.DeepEqual(de.Blocked, want) {
		t.Fatalf("blocked = %q, want %q", de.Blocked, want)
	}
	k.Shutdown()
}

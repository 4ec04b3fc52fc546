package machine

import (
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Machine is a Platform instantiated at a specific node count on a simulation
// kernel. All nodes of a machine share one kernel and one virtual clock.
type Machine struct {
	K    *sim.Kernel
	Plat Platform
	// nodes[i] is node i once something uses it (Node, SetNodeSpeeds), nil
	// until then. A node is carved out of spare, the rest of the newest
	// chunk, so a run builds the nodes it maps onto and a handful of
	// objects, not the whole machine.
	nodes  []*Node
	spare  []Node
	built  int
	fabric *sim.Resource // nil when FabricConcurrency == 0 (crossbar)
	tr     *trace.Collector
	faults *fault.Injector
}

// SetTrace attaches a trace collector to the machine and installs it as the
// kernel's structured tracer. A nil collector disables tracing (the
// default). Call before the simulation runs; one collector serves one
// kernel.
func (m *Machine) SetTrace(c *trace.Collector) {
	m.tr = c
	if c.Enabled() {
		m.K.SetTracer(c)
	}
	m.faults.SetTrace(c)
}

// SetFaults installs a fault injector on the machine's links and node CPUs.
// A nil injector disables injection (the default). The injector belongs to
// this machine's kernel — never share one across machines. Call before the
// simulation runs, in any order relative to SetTrace.
func (m *Machine) SetFaults(inj *fault.Injector) {
	m.faults = inj
	inj.SetTrace(m.tr)
}

// Faults returns the installed injector (nil — the disabled injector — when
// fault injection is off). The MPI substrate consults it to decide whether
// sends need the retry protocol.
func (m *Machine) Faults() *fault.Injector { return m.faults }

// Trace returns the attached collector (nil — the disabled collector — when
// tracing is off). Layers above the machine (mpi, sagert, handcoded) emit
// their spans through it.
func (m *Machine) Trace() *trace.Collector { return m.tr }

// TraceNodeTotals records every node's accumulated counters into the
// attached collector and stamps the final virtual time; call after the
// kernel has drained. No-op when tracing is off.
func (m *Machine) TraceNodeTotals() {
	if !m.tr.Enabled() {
		return
	}
	for i := range m.nodes {
		t := m.Totals(i)
		m.tr.AddNodeTotals(trace.NodeTotals{
			Node: i, ComputeBusy: t.ComputeBusy, CopyBusy: t.CopyBusy,
			CommBusy: t.CommBusy, MsgsSent: t.MsgsSent, BytesSent: t.BytesSent,
		})
	}
	m.tr.Finish(m.K)
}

// Node is one processor of the machine. Per-node accounting (busy time split
// into compute, copy and communication) feeds the utilisation reports of the
// visualizer.
type Node struct {
	ID     int
	Board  int
	mach   *Machine
	egress sim.Resource
	cpu    sim.Resource // serialises the CPU among co-located threads
	// speed is the node's CPU speed multiplier relative to the platform
	// baseline (heterogeneous systems mix processor generations; the
	// paper's mapper explicitly targets "the multi-processor,
	// heterogeneous architecture"). Affects compute, not the memory or
	// messaging system.
	speed float64

	Totals
}

// Totals are a node's accumulated counters: busy time, in virtual time, and
// the messages and bytes it sent.
type Totals struct {
	ComputeBusy sim.Duration
	CopyBusy    sim.Duration
	CommBusy    sim.Duration
	MsgsSent    int
	BytesSent   int64
}

// cpuQuantum is the preemption granularity of the node CPU model: a long
// computation holds the processor in quantum-sized slices so co-located
// threads time-share (as under the VxWorks scheduler) instead of convoying
// behind one unpreemptable burst.
const cpuQuantum = 250 * time.Microsecond

// busy occupies the node's CPU for duration d: co-located simulated threads
// time-share the processor rather than overlapping for free. When the fault
// injector has the node inside a stall window, the CPU is unavailable until
// the restart time — crash-restart semantics at quantum granularity:
// in-progress work pauses and resumes, it is not lost. The slicing, the
// round-robin hand-over and the stall check (StalledUntil below) all run in
// the kernel; the process parks once per burst. busyBegin begins the burst
// and reports whether p parked; if so, BusyEnd follows the wake.
func (nd *Node) busyBegin(p *sim.Proc, d sim.Duration) bool {
	c := nd.bursts(d, 0)
	return p.HoldBegin(&c)
}

// BusyEnd is the half that follows the wake of a CPU burst begun by
// ComputeFlopsBegin, ComputeTimeBegin or MemcpyBegin.
func (nd *Node) BusyEnd(p *sim.Proc) { p.HoldResume() }

// burst completes a CPU burst in process context: the blocking forms are
// nd.burst(p, nd.XBegin(p, ...)).
func (nd *Node) burst(p *sim.Proc, parked bool) {
	if parked {
		p.Suspend()
		nd.BusyEnd(p)
	}
}

// bursts is the chain of two CPU bursts on this node, one after the other
// in one park (sim.Chain): each is time-sliced and stall-checked like busy.
func (nd *Node) bursts(a, b sim.Duration) sim.Chain {
	return sim.Chain{CPU: &nd.cpu, Quantum: cpuQuantum, Stall: nd, Burst: [2]sim.Duration{a, b}}
}

// StalledUntil makes the node its CPU's sim.Staller: the fault injector's
// stall windows for this node. Handing busy the node itself costs nothing —
// a pointer in an interface — where a bound func would allocate per node or
// per burst; the injector is looked up per call because SetFaults may
// install it after New.
func (nd *Node) StalledUntil(now sim.Time) (sim.Time, bool) {
	return nd.mach.faults.StalledUntil(nd.ID, now)
}

// New creates a machine with n nodes of the given platform. It panics on an
// invalid platform or node count, since both are programming errors in this
// codebase (platforms are compiled in, counts come from validated configs).
func New(k *sim.Kernel, pl Platform, n int) *Machine {
	if err := pl.Validate(); err != nil {
		panic(fmt.Sprintf("machine: invalid platform %s: %v", pl.Name, err))
	}
	if n < 1 {
		panic(fmt.Sprintf("machine: node count %d < 1", n))
	}
	m := &Machine{K: k, Plat: pl, nodes: make([]*Node, n)}
	if pl.FabricConcurrency > 0 {
		m.fabric = sim.NewResource(k, pl.Name+".fabric", pl.FabricConcurrency)
	}
	return m
}

// Chunk is how many records the next allocation holds — nodes, or the
// per-node records of a layer above such as MPI endpoints — once built of n
// are built: as many as are built already, at least 4 and at most 16. A run
// that uses a few nodes builds a few; one that uses many makes an object
// per 16.
func Chunk(built, n int) int { return min(max(built, 4), 16, n-built) }

// build makes node id, which nothing has used yet. A chunk holds the nodes
// and, inside each, its two resources; their names are formatted only if a
// tracer or a deadlock report asks.
func (m *Machine) build(id int) *Node {
	if len(m.spare) == 0 {
		m.spare = make([]Node, Chunk(m.built, len(m.nodes)))
	}
	nd := &m.spare[0]
	m.spare = m.spare[1:]
	m.built++
	nd.ID, nd.Board, nd.mach, nd.speed = id, m.Plat.Board(id), m, 1
	nd.egress.Init(m.K, 1, (*egressName)(nd))
	nd.cpu.Init(m.K, 1, (*cpuName)(nd))
	m.nodes[id] = nd
	return nd
}

// egressName and cpuName name a node's two resources on demand
// (sim.Resource.Init): the node itself, seen through a type whose Name
// says which resource is meant, so naming needs no allocation up front.
type (
	egressName Node
	cpuName    Node
)

func (n *egressName) Name() string { return fmt.Sprintf("%s.n%d.egress", n.mach.Plat.Name, n.ID) }
func (n *cpuName) Name() string    { return fmt.Sprintf("%s.n%d.cpu", n.mach.Plat.Name, n.ID) }

// NumNodes reports the node count.
func (m *Machine) NumNodes() int { return len(m.nodes) }

// Node returns node id, building it on first use (panics if out of range).
func (m *Machine) Node(id int) *Node {
	if nd := m.nodes[id]; nd != nil {
		return nd
	}
	return m.build(id)
}

// Totals reports node id's counters; a node nothing has used reports zeros,
// and is not built to do so.
func (m *Machine) Totals(id int) Totals {
	if nd := m.nodes[id]; nd != nil {
		return nd.Totals
	}
	return Totals{}
}

// ComputeFlops blocks the calling process for the CPU time of nflops
// floating-point operations on this node.
func (nd *Node) ComputeFlops(p *sim.Proc, nflops float64) {
	nd.burst(p, nd.ComputeFlopsBegin(p, nflops))
}

// ComputeFlopsBegin is ComputeFlops' first half; it reports whether p
// parked, and BusyEnd follows the wake.
func (nd *Node) ComputeFlopsBegin(p *sim.Proc, nflops float64) bool {
	d := sim.Duration(float64(nd.mach.Plat.FlopTime(nflops)) / nd.speed)
	nd.ComputeBusy += d
	return nd.busyBegin(p, d)
}

// Speed reports the node's CPU speed multiplier.
func (nd *Node) Speed() float64 { return nd.speed }

// SetSpeed sets the node's CPU speed multiplier (must be > 0).
func (nd *Node) SetSpeed(mult float64) {
	if mult <= 0 {
		panic(fmt.Sprintf("machine: node %d speed %v <= 0", nd.ID, mult))
	}
	nd.speed = mult
}

// SetNodeSpeeds applies per-node CPU speed multipliers; speeds beyond the
// node count are ignored, missing entries keep 1.0.
func (m *Machine) SetNodeSpeeds(speeds []float64) {
	for i, s := range speeds {
		if i >= len(m.nodes) {
			return
		}
		m.Node(i).SetSpeed(s)
	}
}

// ComputeTime blocks the calling process for an explicit CPU duration
// (used for fixed software overheads such as dispatch).
func (nd *Node) ComputeTime(p *sim.Proc, d sim.Duration) {
	nd.burst(p, nd.ComputeTimeBegin(p, d))
}

// ComputeTimeBegin is ComputeTime's first half, as ComputeFlopsBegin is
// ComputeFlops'.
func (nd *Node) ComputeTimeBegin(p *sim.Proc, d sim.Duration) bool {
	if d < 0 {
		d = 0
	}
	nd.ComputeBusy += d
	return nd.busyBegin(p, d)
}

// Memcpy blocks the calling process for a local copy of n bytes.
func (nd *Node) Memcpy(p *sim.Proc, n int) {
	nd.burst(p, nd.MemcpyBegin(p, n))
}

// MemcpyBegin is Memcpy's first half, as ComputeFlopsBegin is
// ComputeFlops'.
func (nd *Node) MemcpyBegin(p *sim.Proc, n int) bool {
	d := nd.mach.Plat.CopyTime(n)
	nd.CopyBusy += d
	return nd.busyBegin(p, d)
}

// Transfer models sending n bytes from this node to node dst, of which pack
// bytes are first copied out of the sender's buffer (0: sent in place). The
// calling process (the sender's CPU) is blocked for the pack copy, the
// software send overhead and the wire serialisation time (during which the
// node's egress port — and, for inter-board transfers, a unit of the shared
// fabric — is held), all as one hold: it parks once. It returns the virtual
// time at which the payload arrives at dst, i.e. the earliest moment a
// receiver can observe it; latency is pipelined and does not occupy the
// sender.
//
// A self-transfer (dst == this node) is priced as a local memory copy.
//
// Transfer bypasses the fault injector entirely: it is the base link
// behaviour, and also the maintenance path a retry protocol escalates to
// after exhausting its attempt budget (which is what guarantees progress
// under any fault plan). Fault-aware senders use TryTransfer.
func (nd *Node) Transfer(p *sim.Proc, dst, n, pack int) sim.Time {
	at, _ := nd.transfer(p, dst, n, pack, fault.Outcome{BWFactor: 1})
	return at
}

// TransferBegin is Transfer's first half: it reports whether p parked, and
// TransferEnd follows the wake. x carries the send between the two; once
// the send is over, x.Arrival is what Transfer returns.
func (nd *Node) TransferBegin(p *sim.Proc, dst, n, pack int, x *Xfer) bool {
	return nd.transferBegin(p, dst, n, pack, fault.Outcome{BWFactor: 1}, x)
}

// Xfer is a message send between its two halves (TransferBegin or
// TryTransferBegin, then TransferEnd): what the end of the hold decides.
type Xfer struct {
	Arrival sim.Time     // when the payload reaches dst; 0 if it never does
	lat     sim.Duration // latency past the wire's end
	comm    sim.Duration // the CommBusy the send accounts at its end
	OK      bool         // whether the payload arrives: not over a downed link or after a drop
	lost    bool
}

// TryTransfer is Transfer under the machine's fault injector, with nothing
// to pack (a retrying sender packs once, before its first attempt): link
// degradation scales bandwidth and adds latency, a downed (zero-bandwidth)
// link refuses the attempt after the software overhead without occupying
// the wire, and a drop loses the message after the full send cost. ok
// reports whether the payload will arrive; on ok the arrival time is
// returned exactly as from Transfer. Without an installed injector
// TryTransfer is identical to Transfer.
func (nd *Node) TryTransfer(p *sim.Proc, dst int, n int) (arrival sim.Time, ok bool) {
	return nd.transfer(p, dst, n, 0, nd.linkAttempt(p, dst))
}

// TryTransferBegin is TryTransfer's first half, as TransferBegin is
// Transfer's; once the send is over, x.Arrival and x.OK are what
// TryTransfer returns.
func (nd *Node) TryTransferBegin(p *sim.Proc, dst, n int, x *Xfer) bool {
	return nd.transferBegin(p, dst, n, 0, nd.linkAttempt(p, dst), x)
}

// linkAttempt asks the fault injector what an attempt to dst meets now.
func (nd *Node) linkAttempt(p *sim.Proc, dst int) fault.Outcome {
	if dst == nd.ID {
		return fault.Outcome{BWFactor: 1} // self-transfers never touch a link
	}
	return nd.mach.faults.LinkAttempt(nd.ID, dst, p.Now())
}

// transfer is the blocking form Transfer and TryTransfer share.
func (nd *Node) transfer(p *sim.Proc, dst, n, pack int, out fault.Outcome) (sim.Time, bool) {
	var x Xfer
	if nd.transferBegin(p, dst, n, pack, out, &x) {
		p.Suspend()
		nd.TransferEnd(p, &x)
	}
	return x.Arrival, x.OK
}

// transferBegin begins a send as one chain of pack copy, send overhead and
// (unless the link is down) the wire, fabric included, and reports whether
// p parked.
func (nd *Node) transferBegin(p *sim.Proc, dst, n, pack int, out fault.Outcome, x *Xfer) bool {
	m := nd.mach
	pl := &m.Plat
	nd.MsgsSent++
	nd.BytesSent += int64(n)
	m.tr.LinkTransfer(nd.ID, dst, n)
	packT := pl.CopyTime(pack)
	nd.CopyBusy += packT
	*x = Xfer{}
	var c sim.Chain
	switch {
	case dst == nd.ID:
		d := pl.CopyTime(n)
		nd.CopyBusy += d
		c = nd.bursts(packT, d)
	case out.Down:
		// The link refused the attempt before anything serialised: the
		// pack copy and software overhead are the whole (wasted) cost.
		// Guards the zero-bandwidth degradation case — nothing divides by
		// the zero.
		c = nd.bursts(packT, pl.SendOverhead)
		x.comm, x.lost = pl.SendOverhead, true
	default:
		// Pack copy and software overhead on the sending CPU, then the wire.
		c = nd.bursts(packT, pl.SendOverhead)
		intra := pl.SameBoard(nd.ID, dst)
		if intra {
			x.lat = pl.IntraLatency
			c.Wire = serialTime(n, pl.IntraBW*out.BWFactor)
		} else {
			x.lat = pl.InterLatency
			c.Wire = serialTime(n, pl.InterBW*out.BWFactor)
			c.Fabric = m.fabric // nil on a crossbar
		}
		x.lat += out.ExtraLatency
		c.Egress = &nd.egress
		// Account occupancy only (overhead + wire serialisation), not time
		// spent queueing for the fabric, so utilisation stays meaningful. A
		// drop is lost on the wire: the full send cost paid for nothing.
		x.comm, x.lost = pl.SendOverhead+c.Wire, out.Drop
	}
	if p.HoldBegin(&c) {
		return true
	}
	nd.transferDone(p, x)
	return false
}

// TransferEnd is the half that follows the wake of a send begun by
// TransferBegin or TryTransferBegin.
func (nd *Node) TransferEnd(p *sim.Proc, x *Xfer) {
	p.HoldResume()
	nd.transferDone(p, x)
}

// transferDone settles a send once its hold is over.
func (nd *Node) transferDone(p *sim.Proc, x *Xfer) {
	nd.CommBusy += x.comm
	if !x.lost {
		x.Arrival, x.OK = p.Now().Add(x.lat), true
	}
}

// A Gate is what the receive side of a message waits behind, in two halves
// (sim.Chan.RecvHoldBegin and RecvHoldResume). HoldBegin waits for the
// message and holds then — the node's receive overhead and unpack copy —
// behind it in the same park, and reports whether p parked; a gate that does
// not park had the message and nothing to hold. HoldResume follows each
// wake: done false means the wait goes on, came false that it ended without
// the message (a receive that timed out) and nothing was held.
type Gate interface {
	HoldBegin(p *sim.Proc, then sim.Chain) bool
	HoldResume(p *sim.Proc) (done, came bool)
}

// RecvOverhead charges this node's CPU for taking one message in: the
// software receive overhead, then the copy that unpacks unpack bytes into
// the receiver's buffer (0: received in place), as one hold. With a gate the
// hold waits behind it — for the message to arrive — in the same park; if
// the gate opens without the message nothing is charged and RecvOverhead
// reports false.
func (nd *Node) RecvOverhead(p *sim.Proc, unpack int, gate Gate) bool {
	if !nd.RecvOverheadBegin(p, unpack, gate) {
		return true
	}
	for {
		p.Suspend()
		if done, came := nd.RecvOverheadEnd(p, unpack, gate); done {
			return came
		}
	}
}

// RecvOverheadBegin is RecvOverhead's first half: it reports whether p
// parked; RecvOverheadEnd, with the same unpack and gate, follows each wake.
func (nd *Node) RecvOverheadBegin(p *sim.Proc, unpack int, gate Gate) bool {
	c := nd.bursts(nd.mach.Plat.RecvOverhead, nd.mach.Plat.CopyTime(unpack))
	var parked bool
	if gate == nil {
		parked = p.HoldBegin(&c)
	} else {
		parked = gate.HoldBegin(p, c)
	}
	if !parked {
		nd.recvCharged(unpack)
	}
	return parked
}

// RecvOverheadEnd is RecvOverhead's half after a wake: done false means
// the wait goes on; came is what RecvOverhead reports.
func (nd *Node) RecvOverheadEnd(p *sim.Proc, unpack int, gate Gate) (done, came bool) {
	if gate == nil {
		p.HoldResume()
		done, came = true, true
	} else {
		done, came = gate.HoldResume(p)
	}
	if came {
		nd.recvCharged(unpack)
	}
	return done, came
}

// recvCharged accounts a message taken in.
func (nd *Node) recvCharged(unpack int) {
	nd.CommBusy += nd.mach.Plat.RecvOverhead
	nd.CopyBusy += nd.mach.Plat.CopyTime(unpack)
}

// Utilization reports the fraction of the elapsed virtual time [0, now] the
// node's CPU spent busy (compute + copy). Wire serialisation is concurrent
// DMA-engine work and is reported separately via CommBusy. Returns 0 for an
// idle clock.
func (t Totals) Utilization(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(t.ComputeBusy+t.CopyBusy) / float64(now)
}

// ResetAccounting clears the per-node counters (used between experiment
// repetitions that share a machine).
func (nd *Node) ResetAccounting() { nd.Totals = Totals{} }

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
	K      *sim.Kernel
	Plat   Platform
	nodes  []*Node
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
	// Pre-size the injector's per-node state so a sharded run never grows
	// it concurrently.
	inj.Bind(len(m.nodes))
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
	for _, nd := range m.nodes {
		m.tr.AddNodeTotals(trace.NodeTotals{
			Node: nd.ID, ComputeBusy: nd.ComputeBusy, CopyBusy: nd.CopyBusy,
			CommBusy: nd.CommBusy, MsgsSent: nd.MsgsSent, BytesSent: nd.BytesSent,
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
	egress *sim.Resource
	cpu    *sim.Resource // serialises the CPU among co-located threads
	// speed is the node's CPU speed multiplier relative to the platform
	// baseline (heterogeneous systems mix processor generations; the
	// paper's mapper explicitly targets "the multi-processor,
	// heterogeneous architecture"). Affects compute, not the memory or
	// messaging system.
	speed float64

	// Accounting, in virtual time.
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
// the kernel; the process parks once per burst.
func (nd *Node) busy(p *sim.Proc, d sim.Duration) {
	nd.cpu.HoldSliced(p, d, cpuQuantum, nd)
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
	m := &Machine{K: k, Plat: pl}
	if pl.FabricConcurrency > 0 {
		m.fabric = sim.NewResource(k, pl.Name+".fabric", pl.FabricConcurrency)
	}
	for i := 0; i < n; i++ {
		// Per-node resources live on the shard owning the node (shard 0 on
		// an unsharded kernel), since only processes on that node touch
		// them. The fabric above stays global: a platform with a shared
		// fabric cannot shard (the runtime layer forces one shard).
		m.nodes = append(m.nodes, &Node{
			ID:     i,
			Board:  pl.Board(i),
			mach:   m,
			egress: sim.NewResourceOn(k, i, fmt.Sprintf("%s.n%d.egress", pl.Name, i), 1),
			cpu:    sim.NewResourceOn(k, i, fmt.Sprintf("%s.n%d.cpu", pl.Name, i), 1),
			speed:  1,
		})
	}
	return m
}

// NumNodes reports the node count.
func (m *Machine) NumNodes() int { return len(m.nodes) }

// Node returns node id (panics if out of range).
func (m *Machine) Node(id int) *Node { return m.nodes[id] }

// Nodes returns all nodes in id order.
func (m *Machine) Nodes() []*Node { return m.nodes }

// ComputeFlops blocks the calling process for the CPU time of nflops
// floating-point operations on this node.
func (nd *Node) ComputeFlops(p *sim.Proc, nflops float64) {
	d := sim.Duration(float64(nd.mach.Plat.FlopTime(nflops)) / nd.speed)
	nd.ComputeBusy += d
	nd.busy(p, d)
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
		m.nodes[i].SetSpeed(s)
	}
}

// ComputeTime blocks the calling process for an explicit CPU duration
// (used for fixed software overheads such as dispatch).
func (nd *Node) ComputeTime(p *sim.Proc, d sim.Duration) {
	if d < 0 {
		d = 0
	}
	nd.ComputeBusy += d
	nd.busy(p, d)
}

// Memcpy blocks the calling process for a local copy of n bytes.
func (nd *Node) Memcpy(p *sim.Proc, n int) {
	d := nd.mach.Plat.CopyTime(n)
	nd.CopyBusy += d
	nd.busy(p, d)
}

// Transfer models sending n bytes from this node to node dst. The calling
// process (the sender's CPU) is blocked for the software send overhead and
// the wire serialisation time (during which the node's egress port — and,
// for inter-board transfers, a unit of the shared fabric — is held). It
// returns the virtual time at which the payload arrives at dst, i.e. the
// earliest moment a receiver can observe it; latency is pipelined and does
// not occupy the sender.
//
// A self-transfer (dst == this node) is priced as a local memory copy.
//
// Transfer bypasses the fault injector entirely: it is the base link
// behaviour, and also the maintenance path a retry protocol escalates to
// after exhausting its attempt budget (which is what guarantees progress
// under any fault plan). Fault-aware senders use TryTransfer.
func (nd *Node) Transfer(p *sim.Proc, dst int, n int) sim.Time {
	at, _ := nd.transfer(p, dst, n, fault.Outcome{BWFactor: 1})
	return at
}

// TryTransfer is Transfer under the machine's fault injector: link
// degradation scales bandwidth and adds latency, a downed (zero-bandwidth)
// link refuses the attempt after the software overhead without occupying
// the wire, and a drop loses the message after the full send cost. ok
// reports whether the payload will arrive; on ok the arrival time is
// returned exactly as from Transfer. Without an installed injector
// TryTransfer is identical to Transfer.
func (nd *Node) TryTransfer(p *sim.Proc, dst int, n int) (arrival sim.Time, ok bool) {
	var out fault.Outcome
	if dst == nd.ID {
		out = fault.Outcome{BWFactor: 1} // self-transfers never touch a link
	} else {
		out = nd.mach.faults.LinkAttempt(nd.ID, dst, p.Now())
	}
	return nd.transfer(p, dst, n, out)
}

// transfer is the shared core of Transfer and TryTransfer.
func (nd *Node) transfer(p *sim.Proc, dst int, n int, out fault.Outcome) (sim.Time, bool) {
	m := nd.mach
	pl := &m.Plat
	nd.MsgsSent++
	nd.BytesSent += int64(n)
	m.tr.LinkTransfer(nd.ID, dst, n)
	if dst == nd.ID {
		nd.Memcpy(p, n)
		return p.Now(), true
	}
	// Software overhead on the sending CPU.
	nd.busy(p, pl.SendOverhead)

	if out.Down {
		// The link refused the attempt before anything serialised: the
		// software overhead is the whole (wasted) cost. Guards the
		// zero-bandwidth degradation case — nothing divides by the zero.
		nd.CommBusy += pl.SendOverhead
		return 0, false
	}

	intra := pl.SameBoard(nd.ID, dst)
	var lat sim.Duration
	var ser sim.Duration
	if intra {
		lat = pl.IntraLatency
		ser = serialTime(n, pl.IntraBW*out.BWFactor)
	} else {
		lat = pl.InterLatency
		ser = serialTime(n, pl.InterBW*out.BWFactor)
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
	// Account occupancy only (overhead + wire serialisation), not time
	// spent queueing for the fabric, so utilisation stays meaningful.
	nd.CommBusy += pl.SendOverhead + ser
	if out.Drop {
		// Lost on the wire: the full send cost was paid for nothing.
		return 0, false
	}
	return p.Now().Add(lat), true
}

// RecvOverhead blocks the calling process for the software cost of receiving
// one message on this node.
func (nd *Node) RecvOverhead(p *sim.Proc) {
	d := nd.mach.Plat.RecvOverhead
	nd.CommBusy += d
	nd.busy(p, d)
}

// Utilization reports the fraction of the elapsed virtual time [0, now] this
// node's CPU spent busy (compute + copy). Wire serialisation is concurrent
// DMA-engine work and is reported separately via CommBusy. Returns 0 for an
// idle clock.
func (nd *Node) Utilization(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(nd.ComputeBusy+nd.CopyBusy) / float64(now)
}

// ResetAccounting clears the per-node counters (used between experiment
// repetitions that share a machine).
func (nd *Node) ResetAccounting() {
	nd.ComputeBusy, nd.CopyBusy, nd.CommBusy = 0, 0, 0
	nd.MsgsSent, nd.BytesSent = 0, 0
}

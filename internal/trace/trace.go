// Package trace is the kernel-level observability layer of the reproduction:
// a structured event collector wired into the simulation kernel
// (internal/sim), the machine model (internal/machine), the MPI substrate
// (internal/mpi), the SAGE runtime (internal/sagert) and the hand-coded
// baselines (internal/handcoded). The paper's SAGE run-time made its
// sequencing, striping and buffer-management decisions observable enough to
// compare glue code against hand-coded MPI phase by phase; this package is
// that instrument for the reproduction.
//
// A Collector belongs to exactly one simulation kernel and therefore to one
// goroutine (the one running sim.Kernel.Run); it needs no locking. Under the
// parallel experiment engine every concurrent run records into its own
// Collector, and the per-run collectors are merged into a Trace in sweep
// order after the pool drains, so traced output is deterministic at any
// Parallelism setting. A nil *Collector is valid and records nothing; every
// recording method is nil-safe, which is what makes instrumentation
// zero-overhead when tracing is disabled (call sites guard the argument
// construction with Enabled()).
//
// All timestamps are virtual time from the owning kernel. Tracing only
// observes — it never sleeps, sends or acquires — so enabling it cannot
// change any simulated result.
//
// Exporters emit the Chrome trace-event JSON format (loadable in
// chrome://tracing or Perfetto; see WriteChrome) and a per-run text summary
// table (WriteSummary). The event model, counter semantics and the
// Chrome-trace mapping are documented in DESIGN.md.
package trace

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Layer identifies the subsystem that emitted an event; it becomes the
// Chrome trace "cat" field.
type Layer string

const (
	// LayerSim marks kernel-level events: process lifetimes and blocking
	// waits (channel receive, resource acquisition, barriers).
	LayerSim Layer = "sim"
	// LayerMachine marks hardware-model events: per-link transfers.
	LayerMachine Layer = "machine"
	// LayerMPI marks collective phase spans, tagged with the algorithm.
	LayerMPI Layer = "mpi"
	// LayerSage marks SAGE runtime events: per-thread function phases,
	// port-striping transfers and buffer credit flow.
	LayerSage Layer = "sagert"
	// LayerHand marks hand-coded baseline phases.
	LayerHand Layer = "handcoded"
	// LayerFault marks fault-injection and recovery events: injected drops,
	// link outages and node stalls (from internal/fault), and the retry,
	// timeout and degraded-mode recovery behaviour of the runtimes.
	LayerFault Layer = "fault"
	// LayerStream marks streaming-workload events from internal/stream: frame
	// admission and shedding, backpressure gauges (backlog, per-stage queue
	// depth, credit starvation) and the quiesce/drain/remap/resume protocol
	// of the mid-run remapping controller.
	LayerStream Layer = "stream"
)

// FaultTrack is the per-node track fault-injection events land on when they
// are not attributable to a specific simulated thread.
const FaultTrack = "faults"

// FaultKinds enumerates the legal first tokens of fault-layer event names;
// ValidateChrome rejects fault events outside this vocabulary. Injection
// kinds (drop, down, stall) come from the injector; recovery kinds (retry,
// giveup, recv-timeout, credit-timeout, overcommit) from the runtimes.
var FaultKinds = map[string]bool{
	"drop":           true,
	"down":           true,
	"stall":          true,
	"retry":          true,
	"giveup":         true,
	"recv-timeout":   true,
	"credit-timeout": true,
	"overcommit":     true,
}

// StreamTrack is the per-node track stream-layer events land on when they are
// not attributable to a specific simulated thread (source admission, the
// remap controller).
const StreamTrack = "stream"

// StreamKinds enumerates the legal first tokens of stream-layer event names;
// ValidateChrome rejects stream events outside this vocabulary, exactly as
// FaultKinds gates the fault layer. Workload kinds (admit, shed, frame, late,
// eos) come from the stream runner's source and sink; backpressure gauges
// (backlog, qdepth, credit-stall) from every stage; the remaining kinds from
// the remapping controller's quiesce-drain-remap-resume protocol.
var StreamKinds = map[string]bool{
	"admit":        true,
	"shed":         true,
	"frame":        true,
	"late":         true,
	"eos":          true,
	"backlog":      true,
	"qdepth":       true,
	"credit-stall": true,
	"quiesce":      true,
	"drain":        true,
	"remap":        true,
	"migrate":      true,
	"resume":       true,
}

// NodeKernel is the pseudo-node owning events that are not attributable to a
// machine node (the simulation kernel's own bookkeeping).
const NodeKernel = -1

// Span is one completed interval on a named track. Optional fields use -1
// for "absent" so exporters can omit them.
type Span struct {
	Layer Layer
	Node  int    // owning machine node, or NodeKernel
	Track string // thread-level track within the node (see ProcTrack)
	Name  string
	Start sim.Time
	End   sim.Time
	Bytes int64 // payload bytes, or -1
	Iter  int   // iteration index, or -1
	Depth int   // queue depth observed when a wait began, or -1
}

// Instant is a zero-duration event, recorded only in Verbose mode (channel
// and resource operations are too frequent for default traces).
type Instant struct {
	Layer Layer
	Node  int
	Track string
	Name  string
	At    sim.Time
	Value int // post-operation queue length / units in use
}

// Gauge is one sample of a named time-series counter (a backpressure metric:
// queue depth, backlog, outstanding credits). Gauges export as Chrome "C"
// counter events, which the trace viewers render as stacked area charts.
type Gauge struct {
	Layer Layer
	Node  int
	Track string
	Name  string
	At    sim.Time
	Value int
}

// NodeTotals are the end-of-run counters for one machine node. Idle time is
// derived: Elapsed() minus the busy components.
type NodeTotals struct {
	Node        int
	ComputeBusy sim.Duration
	CopyBusy    sim.Duration
	CommBusy    sim.Duration
	MsgsSent    int
	BytesSent   int64
}

// LinkKey identifies a directed node pair.
type LinkKey struct{ Src, Dst int }

// LinkTotals accumulate traffic per directed link.
type LinkTotals struct {
	Msgs  int
	Bytes int64
}

// WaitTotals accumulate contention per wait key ("kind object").
type WaitTotals struct {
	Count int
	Total sim.Duration
}

// ProcTrack names the per-process track used by every layer, so phase spans
// (sagert), collective spans (mpi) and blocking waits (sim) of one simulated
// thread can share one timeline row. PIDs are unique per kernel, which keeps
// tracks unique even when processes share a name.
func ProcTrack(name string, pid int) string {
	return fmt.Sprintf("%s #%d", name, pid)
}

// Collector accumulates the event stream and counters of one simulation run.
// The zero value is not used; create collectors with New. A nil *Collector
// is the disabled collector: every method is a no-op and Enabled reports
// false.
type Collector struct {
	// Label identifies the run in merged traces and summaries.
	Label string
	// Verbose additionally records per-operation channel and resource
	// instants, which can enlarge traces by orders of magnitude.
	Verbose bool

	spans       eventLog[Span]
	instants    eventLog[Instant]
	gauges      eventLog[Gauge]
	nodes       []NodeTotals
	links       map[LinkKey]*LinkTotals
	waits       map[waitKey]*WaitTotals
	waitNames   map[waitKey]string // "wait:kind object" per full object
	opTracks    map[waitKey]string // Verbose: "chan name" or "res name" per channel or resource
	resOps      map[resOp]string   // Verbose: "op inUse/capacity" per resource operation seen
	collectives map[string]int
	faults      map[string]int
	streams     map[string]int
	procs       map[int]liveProc
	dispatched  uint64
	elapsed     sim.Time
}

// waitKey is a wait's kind (a single word: recv, acquire, barrier) and its
// object.
type waitKey struct{ kind, obj string }

// resOp is a resource operation as its Verbose instant names it.
type resOp struct {
	op              string
	inUse, capacity int
}

// liveProc is a live process: its track, built once, and its start time.
type liveProc struct {
	track   string
	start   sim.Time
	started bool
}

// New returns an empty collector for one simulation run.
func New(label string) *Collector {
	return &Collector{
		Label:       label,
		links:       map[LinkKey]*LinkTotals{},
		waits:       map[waitKey]*WaitTotals{},
		waitNames:   map[waitKey]string{},
		collectives: map[string]int{},
		faults:      map[string]int{},
		streams:     map[string]int{},
		procs:       map[int]liveProc{},
	}
}

// Enabled reports whether events should be recorded (and, at call sites,
// whether it is worth building their arguments).
func (c *Collector) Enabled() bool { return c != nil }

// Span records a completed interval with no optional fields.
func (c *Collector) Span(layer Layer, node int, track, name string, start, end sim.Time) {
	if c == nil {
		return
	}
	c.spans.add(Span{Layer: layer, Node: node, Track: track, Name: name,
		Start: start, End: end, Bytes: -1, Iter: -1, Depth: -1})
}

// Phase records an iteration-tagged runtime phase (recv/compute/send,
// scatter/gather, ...).
func (c *Collector) Phase(layer Layer, node int, track, name string, iter int, start, end sim.Time) {
	if c == nil {
		return
	}
	c.spans.add(Span{Layer: layer, Node: node, Track: track, Name: name,
		Start: start, End: end, Bytes: -1, Iter: iter, Depth: -1})
}

// Xfer records a data-movement span with its payload size.
func (c *Collector) Xfer(layer Layer, node int, track, name string, bytes int, iter int, start, end sim.Time) {
	if c == nil {
		return
	}
	c.spans.add(Span{Layer: layer, Node: node, Track: track, Name: name,
		Start: start, End: end, Bytes: int64(bytes), Iter: iter, Depth: -1})
}

// Collective records one MPI collective phase (name carries the algorithm,
// e.g. "alltoall[bruck]") and counts it for the summary.
func (c *Collector) Collective(node int, track, name string, start, end sim.Time) {
	if c == nil {
		return
	}
	c.collectives[name]++
	c.spans.add(Span{Layer: LayerMPI, Node: node, Track: track, Name: name,
		Start: start, End: end, Bytes: -1, Iter: -1, Depth: -1})
}

// eventKind extracts the event-kind vocabulary token (everything before the
// first space) from a fault event name.
func eventKind(name string) string {
	if i := strings.IndexByte(name, ' '); i > 0 {
		return name[:i]
	}
	return name
}

// FaultPoint records an instantaneous fault-injection event (a dropped
// message, a refused attempt on a downed link) on the owning node's fault
// track. The name's first token must come from FaultKinds; unlike the
// verbose channel/resource instants, fault points are always recorded.
func (c *Collector) FaultPoint(node int, name string, at sim.Time) {
	if c == nil {
		return
	}
	c.faults[eventKind(name)]++
	c.instants.add(Instant{Layer: LayerFault, Node: node,
		Track: FaultTrack, Name: name, At: at})
}

// FaultSpan records a fault or recovery interval — a node stall window, a
// retry-with-backoff episode, a timeout re-arm — on the given track (use
// FaultTrack for node-level events, ProcTrack for thread-level recovery).
// The name's first token must come from FaultKinds.
func (c *Collector) FaultSpan(node int, name string, start, end sim.Time) {
	c.FaultSpanOn(node, FaultTrack, name, start, end)
}

// FaultSpanOn is FaultSpan with an explicit track, so recovery spans can sit
// on the affected thread's own timeline row.
func (c *Collector) FaultSpanOn(node int, track, name string, start, end sim.Time) {
	if c == nil {
		return
	}
	c.faults[eventKind(name)]++
	c.spans.add(Span{Layer: LayerFault, Node: node, Track: track,
		Name: name, Start: start, End: end, Bytes: -1, Iter: -1, Depth: -1})
}

// Faults returns per-kind injected/recovery event counts in kind order.
func (c *Collector) Faults() []struct {
	Kind  string
	Count int
} {
	if c == nil {
		return nil
	}
	kinds := slices.Sorted(maps.Keys(c.faults))
	out := make([]struct {
		Kind  string
		Count int
	}, len(kinds))
	for i, k := range kinds {
		out[i].Kind = k
		out[i].Count = c.faults[k]
	}
	return out
}

// StreamPoint records an instantaneous stream-workload event (a frame
// admission, a shed decision, an SLO violation) on the owning node's stream
// track. The name's first token must come from StreamKinds; like fault
// points, stream points are always recorded.
func (c *Collector) StreamPoint(node int, name string, at sim.Time) {
	if c == nil {
		return
	}
	c.streams[eventKind(name)]++
	c.instants.add(Instant{Layer: LayerStream, Node: node,
		Track: StreamTrack, Name: name, At: at})
}

// StreamSpan records a stream-protocol interval — a quiesce/drain window, a
// thread migration, a credit-starvation stall — on the given track (use
// StreamTrack for controller-level events, ProcTrack for per-thread ones).
// The name's first token must come from StreamKinds.
func (c *Collector) StreamSpan(node int, track, name string, start, end sim.Time) {
	if c == nil {
		return
	}
	c.streams[eventKind(name)]++
	c.spans.add(Span{Layer: LayerStream, Node: node, Track: track,
		Name: name, Start: start, End: end, Bytes: -1, Iter: -1, Depth: -1})
}

// StreamGauge samples a named backpressure counter (backlog, per-stage queue
// depth, outstanding credits) on the given track. Gauges export as Chrome
// "C" counter events. The name's first token must come from StreamKinds.
func (c *Collector) StreamGauge(node int, track, name string, value int, at sim.Time) {
	if c == nil {
		return
	}
	c.streams[eventKind(name)]++
	c.gauges.add(Gauge{Layer: LayerStream, Node: node, Track: track,
		Name: name, At: at, Value: value})
}

// Streams returns per-kind stream event counts in kind order.
func (c *Collector) Streams() []struct {
	Kind  string
	Count int
} {
	if c == nil {
		return nil
	}
	kinds := slices.Sorted(maps.Keys(c.streams))
	out := make([]struct {
		Kind  string
		Count int
	}, len(kinds))
	for i, k := range kinds {
		out[i].Kind = k
		out[i].Count = c.streams[k]
	}
	return out
}

// Gauges returns a copy of the recorded counter samples in recording order.
func (c *Collector) Gauges() []Gauge {
	if c == nil {
		return nil
	}
	return c.gauges.appendTo(nil)
}

// LinkTransfer accumulates per-link traffic counters (called by the machine
// model for every message, including self-transfers).
func (c *Collector) LinkTransfer(src, dst, bytes int) {
	if c == nil {
		return
	}
	lt := c.links[LinkKey{src, dst}]
	if lt == nil {
		lt = &LinkTotals{}
		c.links[LinkKey{src, dst}] = lt
	}
	lt.Msgs++
	lt.Bytes += int64(bytes)
}

// AddNodeTotals records a node's end-of-run counters.
func (c *Collector) AddNodeTotals(nt NodeTotals) {
	if c == nil {
		return
	}
	c.nodes = append(c.nodes, nt)
}

// Finish stamps the run's final virtual time and kernel event count, read
// through the kernel's accessors (see the sim package's trace hook
// contract).
func (c *Collector) Finish(k *sim.Kernel) {
	if c == nil {
		return
	}
	c.elapsed = k.Now()
	c.dispatched = k.Dispatched()
}

// Elapsed reports the final virtual time recorded by Finish.
func (c *Collector) Elapsed() sim.Time { return c.elapsed }

// Dispatched reports the kernel event count recorded by Finish.
func (c *Collector) Dispatched() uint64 { return c.dispatched }

// Spans returns a copy of the recorded spans in recording order
// (completion order).
func (c *Collector) Spans() []Span {
	if c == nil {
		return nil
	}
	return c.spans.appendTo(nil)
}

// Nodes returns the recorded per-node totals.
func (c *Collector) Nodes() []NodeTotals {
	if c == nil {
		return nil
	}
	return c.nodes
}

// Links returns the per-link totals in (src, dst) order.
func (c *Collector) Links() []struct {
	LinkKey
	LinkTotals
} {
	if c == nil {
		return nil
	}
	keys := make([]LinkKey, 0, len(c.links))
	for k := range c.links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Src != keys[j].Src {
			return keys[i].Src < keys[j].Src
		}
		return keys[i].Dst < keys[j].Dst
	})
	out := make([]struct {
		LinkKey
		LinkTotals
	}, len(keys))
	for i, k := range keys {
		out[i].LinkKey = k
		out[i].LinkTotals = *c.links[k]
	}
	return out
}

// Waits returns the contention totals keyed by "kind object", sorted by
// total wait time descending (ties by key).
func (c *Collector) Waits() []struct {
	Key string
	WaitTotals
} {
	if c == nil {
		return nil
	}
	out := make([]struct {
		Key string
		WaitTotals
	}, len(c.waits))
	i := 0
	for k, wt := range c.waits {
		out[i].Key, out[i].WaitTotals = k.kind+" "+k.obj, *wt
		i++
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Collectives returns per-collective counts in name order.
func (c *Collector) Collectives() []struct {
	Name  string
	Count int
} {
	if c == nil {
		return nil
	}
	names := slices.Sorted(maps.Keys(c.collectives))
	out := make([]struct {
		Name  string
		Count int
	}, len(names))
	for i, n := range names {
		out[i].Name = n
		out[i].Count = c.collectives[n]
	}
	return out
}

// --- sim.Tracer implementation ----------------------------------------------
//
// The Collector is the standard implementation of the sim package's Tracer
// interface; Machine.SetTrace installs it on the kernel.

// Track returns process p's track, ProcTrack(p.Name(), p.PID()), built
// once per process: every layer's spans of one simulated thread share it.
// The nil collector returns "".
func (c *Collector) Track(p *sim.Proc) string {
	if c == nil {
		return ""
	}
	return c.live(p.PID(), p.Name()).track
}

// live returns process pid's entry, making it on first sight.
func (c *Collector) live(pid int, name string) liveProc {
	pr, ok := c.procs[pid]
	if !ok {
		pr.track = ProcTrack(name, pid)
		c.procs[pid] = pr
	}
	return pr
}

// ProcStart implements sim.Tracer: remember when the process began so
// ProcEnd can emit its lifetime span.
func (c *Collector) ProcStart(pid int, name string, at sim.Time) {
	if c == nil {
		return
	}
	pr := c.live(pid, name)
	pr.start, pr.started = at, true
	c.procs[pid] = pr
}

// ProcEnd implements sim.Tracer: emit the process lifetime span.
func (c *Collector) ProcEnd(pid int, name string, at sim.Time) {
	if c == nil {
		return
	}
	pr := c.live(pid, name)
	if !pr.started {
		pr.start = at
	}
	delete(c.procs, pid)
	c.spans.add(Span{Layer: LayerSim, Node: NodeKernel,
		Track: pr.track, Name: "proc " + name,
		Start: pr.start, End: at, Bytes: -1, Iter: -1, Depth: -1})
}

// Wait implements sim.Tracer: a process blocked from from to to on a channel
// receive ("recv"), resource acquisition ("acquire") or barrier ("barrier").
// Every wait feeds the contention counters; waits also become spans, except
// resource-acquisition waits in non-Verbose mode (CPU time-sharing makes
// them frequent; their totals remain in the counters).
func (c *Collector) Wait(pid int, proc, kind, object string, from, to sim.Time, queueDepth int) {
	if c == nil {
		return
	}
	// Counter keys drop per-message detail such as "(src=3,tag=7)" so the
	// totals aggregate per object, not per endpoint pair; spans keep the
	// full name.
	counterObj := object
	if i := strings.IndexByte(counterObj, '('); i > 0 {
		counterObj = counterObj[:i]
	}
	wt := c.waits[waitKey{kind, counterObj}]
	if wt == nil {
		wt = &WaitTotals{}
		c.waits[waitKey{kind, counterObj}] = wt
	}
	wt.Count++
	wt.Total += to.Sub(from)
	if kind == "acquire" && !c.Verbose {
		return
	}
	name, ok := c.waitNames[waitKey{kind, object}]
	if !ok {
		name = "wait:" + kind + " " + object
		c.waitNames[waitKey{kind, object}] = name
	}
	c.spans.add(Span{Layer: LayerSim, Node: NodeKernel,
		Track: c.live(pid, proc).track, Name: name,
		Start: from, End: to, Bytes: -1, Iter: -1, Depth: queueDepth})
}

// ChanOp implements sim.Tracer: per-operation mailbox instants, Verbose
// only.
func (c *Collector) ChanOp(op, name string, qlen int, at sim.Time) {
	if c == nil || !c.Verbose {
		return
	}
	c.instants.add(Instant{Layer: LayerSim, Node: NodeKernel,
		Track: c.opTrack("chan", name), Name: op, At: at, Value: qlen})
}

// ResourceOp implements sim.Tracer: per-operation resource instants, Verbose
// only.
func (c *Collector) ResourceOp(op, name string, inUse, capacity, queued int, at sim.Time) {
	if c == nil || !c.Verbose {
		return
	}
	key := resOp{op, inUse, capacity}
	label, ok := c.resOps[key]
	if !ok {
		label = fmt.Sprintf("%s %d/%d", op, inUse, capacity)
		if c.resOps == nil {
			c.resOps = map[resOp]string{}
		}
		c.resOps[key] = label
	}
	c.instants.add(Instant{Layer: LayerSim, Node: NodeKernel,
		Track: c.opTrack("res", name), Name: label, At: at, Value: queued})
}

// opTrack is the track of a channel's or resource's Verbose instants,
// "kind name", built once per collector; the maps are made by the first
// Verbose operation, so a collector that records none pays nothing.
func (c *Collector) opTrack(kind, name string) string {
	key := waitKey{kind, name}
	if track, ok := c.opTracks[key]; ok {
		return track
	}
	if c.opTracks == nil {
		c.opTracks = map[waitKey]string{}
	}
	track := kind + " " + name
	c.opTracks[key] = track
	return track
}

// --- merged multi-run trace --------------------------------------------------

// Trace is an ordered collection of per-run collectors: the unit the
// exporters consume. Add must be called from a single goroutine — the
// experiment drivers append collectors in sweep order after their worker
// pool has drained, which keeps merged output deterministic at any
// parallelism.
type Trace struct {
	runs []*Collector
}

// NewTrace returns an empty merged trace.
func NewTrace() *Trace { return &Trace{} }

// Add appends one run's collector. Nil collectors are ignored.
func (t *Trace) Add(c *Collector) {
	if t == nil || c == nil {
		return
	}
	t.runs = append(t.runs, c)
}

// Runs returns the collectors in merge order.
func (t *Trace) Runs() []*Collector {
	if t == nil {
		return nil
	}
	return t.runs
}

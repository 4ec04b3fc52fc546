package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/atot"
	"repro/internal/fault"
	"repro/internal/funclib"
	"repro/internal/gluegen"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/sagert"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/twin"
)

// errBadRequest marks validation failures the client caused; the handler
// maps it to HTTP 400 where everything else in the execution path is a 500.
var errBadRequest = errors.New("bad request")

// badf builds a client-error with errBadRequest in its chain.
func badf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, errBadRequest)...)
}

// Request is the body of POST /v1/run: a model (a named benchmark or inline
// model text), a platform, a mapping strategy with its seed, and the
// execution protocol. Every field that influences the simulated result is
// part of the cache key; TimeoutMs is the one knob that is not — it bounds
// wall-clock patience, never virtual-time results.
type Request struct {
	// App selects a generated benchmark model: fft2d | cornerturn | stap.
	App string `json:"app,omitempty"`
	// N is the benchmark matrix edge (power of two; default 256).
	N int `json:"n,omitempty"`
	// Threads is the benchmark worker-thread count (default 4).
	Threads int `json:"threads,omitempty"`
	// Source is inline model text (the sage designer format); when set it
	// replaces App/N/Threads.
	Source string `json:"source,omitempty"`
	// Platform is a registry platform name (default CSPI).
	Platform string `json:"platform,omitempty"`
	// Nodes is the processor count (default 8).
	Nodes int `json:"nodes,omitempty"`
	// Mapping is the strategy: spread | roundrobin | greedy | ga
	// (default spread).
	Mapping string `json:"mapping,omitempty"`
	// Seed drives the GA mapper; it is part of the cache key for every
	// strategy so clients can force distinct cache entries.
	Seed int64 `json:"seed,omitempty"`
	// Protocol is the execution protocol (§3.3 shape).
	Protocol Protocol `json:"protocol,omitempty"`
	// Faults is an optional fault-plan text (the sage check fault format)
	// injected into the run.
	Faults string `json:"faults,omitempty"`
	// TraceSummary asks for the per-node/per-link trace summary of the run
	// in the response.
	TraceSummary bool `json:"trace_summary,omitempty"`
	// TimeoutMs lowers the server's per-request deadline for this request.
	// It is excluded from the cache key: patience is not a simulation
	// parameter, and cached bytes must not depend on it.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Estimate answers with the analytical twin's closed-form prediction
	// instead of simulating: the response carries predicted period/latency/
	// elapsed (plus a twin breakdown) and never occupies a worker slot or a
	// rate token. Estimates are cached like runs (Estimate is part of the
	// key, so a prediction can never shadow a measurement).
	Estimate bool `json:"estimate,omitempty"`
}

// Protocol mirrors the experiments protocol: a fixed iteration count, run
// once. Repetitions is accepted so that clients written for the old
// repetition knob still decode; the simulator is deterministic, so
// normalize folds every valid value to 1 and a request runs once.
type Protocol struct {
	Iterations       int  `json:"iterations,omitempty"`        // default 5
	Repetitions      int  `json:"repetitions,omitempty"`       // always 1 after normalize
	Sequential       bool `json:"sequential,omitempty"`        // no pipelining
	OptimizedBuffers bool `json:"optimized_buffers,omitempty"` // future-work optimisation
	// Stream switches the request from the batch runtime to the streaming
	// one: frames arrive from the spec's client classes instead of a fixed
	// iteration count, and the response carries an SLO report. Mutually
	// exclusive with Iterations, Sequential, Repetitions > 1 and Estimate.
	Stream *StreamSpec `json:"stream,omitempty"`
}

// StreamSpec is the streaming half of a run request: the client-class mix
// plus the optional remap policy, riding on the request's app/platform/
// mapping/seed/faults fields.
type StreamSpec struct {
	// Classes is the client mix (stream.Class JSON shape).
	Classes []stream.Class `json:"classes"`
	// BufferSlots is the per-transfer pipelining credit (default 2).
	BufferSlots int `json:"buffer_slots,omitempty"`
	// Remap, when non-nil, enables the mid-run remapping controller.
	Remap *stream.RemapSpec `json:"remap,omitempty"`
}

// Response is the body of a successful /v1/run. Every field is derived from
// virtual time or deterministic mapping output — no wall-clock values — so
// the encoded bytes are identical for a given request at any worker count,
// which is what makes the content-addressed cache sound.
type Response struct {
	App          string           `json:"app"`
	Platform     string           `json:"platform"`
	Nodes        int              `json:"nodes"`
	Mapping      string           `json:"mapping"`
	Seed         int64            `json:"seed"`
	Iterations   int              `json:"iterations"`
	Repetitions  int              `json:"repetitions"`
	Period       string           `json:"period"`
	PeriodNs     int64            `json:"period_ns"`
	AvgLatency   string           `json:"avg_latency"`
	AvgLatencyNs int64            `json:"avg_latency_ns"`
	Elapsed      string           `json:"elapsed"`
	ElapsedNs    int64            `json:"elapsed_ns"`
	Dispatches   uint64           `json:"dispatches"`
	NodeStats    []NodeStat       `json:"node_stats"`
	Assignment   map[string][]int `json:"assignment"`
	GA           *GASummary       `json:"ga,omitempty"`
	TraceSummary string           `json:"trace_summary,omitempty"`
	FaultSummary string           `json:"fault_summary,omitempty"`
	// Twin is present on estimate-only responses: the analytical model's
	// breakdown of the prediction the top-level fields carry.
	Twin *TwinSummary `json:"twin,omitempty"`
	// Stream is present on streaming responses: the full SLO report
	// (per-class latency percentiles, goodput, fairness, remap events).
	Stream *stream.Report `json:"stream,omitempty"`
}

// TwinSummary is the analytical twin's view of an estimated run.
type TwinSummary struct {
	FirstIterationNs   int64 `json:"first_iteration_ns"`
	SteadyIterationNs  int64 `json:"steady_iteration_ns"`
	BottleneckPeriodNs int64 `json:"bottleneck_period_ns"`
	RecvNs             int64 `json:"recv_ns"`
	DispatchNs         int64 `json:"dispatch_ns"`
	ComputeNs          int64 `json:"compute_ns"`
	SendNs             int64 `json:"send_ns"`
}

// NodeStat is one node's busy-time breakdown in nanoseconds of virtual time.
type NodeStat struct {
	Node        int     `json:"node"`
	ComputeNs   int64   `json:"compute_ns"`
	CopyNs      int64   `json:"copy_ns"`
	CommNs      int64   `json:"comm_ns"`
	Utilization float64 `json:"utilization"`
}

// GASummary reports the genetic mapper's work when mapping=ga.
type GASummary struct {
	Generations int     `json:"generations"`
	Evaluations int     `json:"evaluations"`
	Best        float64 `json:"best"`
}

// normalize applies defaults and validates everything that can be checked
// without building the model. It must be called before cacheKey so that
// spelled-out and defaulted requests share an entry.
func (r *Request) normalize() error {
	if r.Source == "" && r.App == "" {
		return badf("pass app or source")
	}
	if r.Source != "" {
		r.App, r.N, r.Threads = "", 0, 0
	} else {
		switch r.App {
		case "fft2d", "cornerturn", "stap":
		default:
			return badf("unknown app %q (want fft2d, cornerturn or stap)", r.App)
		}
		if r.N == 0 {
			r.N = 256
		}
		if r.N < 0 {
			return badf("n must be positive")
		}
		if r.Threads == 0 {
			r.Threads = 4
		}
		if r.Threads < 0 {
			return badf("threads must be positive")
		}
	}
	if r.Platform == "" {
		r.Platform = "CSPI"
	}
	if _, err := platforms.ByName(r.Platform); err != nil {
		return badf("%v (have %s)", err, strings.Join(platforms.Names(), ", "))
	}
	if r.Nodes == 0 {
		r.Nodes = 8
	}
	if r.Nodes < 0 {
		return badf("nodes must be positive")
	}
	if r.Mapping == "" {
		r.Mapping = "spread"
	}
	switch r.Mapping {
	case "spread", "roundrobin", "greedy", "ga":
	default:
		return badf("unknown mapping %q (want spread, roundrobin, greedy or ga)", r.Mapping)
	}
	if st := r.Protocol.Stream; st != nil {
		// Streaming replaces the iteration protocol: arrivals drive the run.
		if r.Protocol.Iterations != 0 {
			return badf("stream: iterations is a batch-protocol knob; the class mix drives a streaming run")
		}
		if r.Protocol.Repetitions > 1 {
			return badf("stream: repetitions > 1 is a batch-protocol knob (streaming runs are deterministic)")
		}
		if r.Protocol.Sequential || r.Protocol.OptimizedBuffers {
			return badf("stream: sequential and optimized_buffers are batch-runtime modes")
		}
		if r.Estimate {
			return badf("stream: the twin has no streaming model; drop estimate or run the batch protocol")
		}
		if len(st.Classes) == 0 {
			return badf("stream: no client classes")
		}
		for i := range st.Classes {
			if err := st.Classes[i].Validate(); err != nil {
				return badf("stream: %v", err)
			}
		}
		if st.BufferSlots < 0 {
			return badf("stream: buffer_slots must be non-negative")
		}
	} else {
		if r.Protocol.Iterations == 0 {
			r.Protocol.Iterations = 5
		}
		if r.Protocol.Iterations < 0 {
			return badf("iterations must be positive")
		}
	}
	if r.Protocol.Repetitions < 0 {
		return badf("repetitions must be positive")
	}
	r.Protocol.Repetitions = 1
	if r.TimeoutMs < 0 {
		return badf("timeout_ms must be non-negative")
	}
	if r.Estimate {
		if r.Faults != "" {
			return badf("estimate: fault paths are outside the twin's model; drop faults or run a full simulation")
		}
		if r.TraceSummary {
			return badf("estimate: no events are simulated, so there is no trace; drop trace_summary or run a full simulation")
		}
	}
	if r.Faults != "" {
		plan, err := fault.ParsePlan(r.Faults)
		if err != nil {
			return badf("faults: %v", err)
		}
		if err := plan.Validate(); err != nil {
			return badf("faults: %v", err)
		}
	}
	return nil
}

// cacheKey returns the content address of a normalized request: the sha256
// of its canonical JSON with the wall-clock-only fields zeroed. Two requests
// with the same key ask for the same deterministic computation, so serving
// one's cached bytes for the other is exact, not approximate.
func (r *Request) cacheKey() string {
	c := *r
	c.TimeoutMs = 0
	b, err := json.Marshal(&c)
	if err != nil {
		// A Request is plain data; Marshal cannot fail on it.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// buildCase turns a normalized request into executable runtime tables.
// Every error here is the client's (bad model text, shape constraints,
// unmappable graphs) and is wrapped as errBadRequest.
func buildCase(r *Request) (*gluegen.Tables, *model.App, machine.Platform, *Response, error) {
	var app *model.App
	var err error
	if r.Source != "" {
		app, err = model.ReadText(strings.NewReader(r.Source))
		if err != nil {
			return nil, nil, machine.Platform{}, nil, badf("source: %v", err)
		}
		if err := funclib.ValidateApp(app); err != nil {
			return nil, nil, machine.Platform{}, nil, badf("source: %v", err)
		}
	} else {
		switch r.App {
		case "fft2d":
			app, err = apps.FFT2D(r.N, r.Threads)
		case "cornerturn":
			app, err = apps.CornerTurn(r.N, r.Threads)
		case "stap":
			app, err = apps.STAP(r.N, r.Threads)
		}
		if err != nil {
			return nil, nil, machine.Platform{}, nil, badf("%s: %v", r.App, err)
		}
	}
	pl, err := platforms.ByName(r.Platform)
	if err != nil {
		return nil, nil, machine.Platform{}, nil, badf("%v", err)
	}

	resp := &Response{
		App:         app.Name,
		Platform:    pl.Name,
		Nodes:       r.Nodes,
		Mapping:     r.Mapping,
		Seed:        r.Seed,
		Iterations:  r.Protocol.Iterations,
		Repetitions: r.Protocol.Repetitions,
	}

	var mapping *model.Mapping
	switch r.Mapping {
	case "spread":
		mapping, err = model.SpreadParallel(app, r.Nodes)
	case "roundrobin":
		mapping = model.RoundRobin(app, r.Nodes)
	case "greedy", "ga":
		ev, everr := atot.NewEvaluator(app, pl, r.Nodes)
		if everr != nil {
			return nil, nil, machine.Platform{}, nil, badf("%v", everr)
		}
		if r.Mapping == "greedy" {
			mapping, err = atot.MapGreedy(ev)
		} else {
			var stats *atot.GAStats
			// Small fixed GA budget: the daemon answers interactively, and
			// the seed (cache-keyed) makes the search reproducible. The
			// search runs inside a worker of a fleet that already fills the
			// cores, so it scores at width 1: a nested fan-out of ~30
			// microsecond scorings per generation costs more than it saves.
			mapping, stats, err = atot.MapGA(ev, atot.GAConfig{Population: 32, Generations: 40, Seed: r.Seed, Parallelism: 1})
			if stats != nil {
				resp.GA = &GASummary{Generations: stats.Generations, Evaluations: stats.Evaluations, Best: stats.Best.Total}
			}
		}
	}
	if err != nil {
		return nil, nil, machine.Platform{}, nil, badf("mapping: %v", err)
	}
	resp.Assignment = mapping.Assign

	out, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: pl, NumNodes: r.Nodes})
	if err != nil {
		return nil, nil, machine.Platform{}, nil, badf("gluegen: %v", err)
	}
	return out.Tables, app, pl, resp, nil
}

// executeEstimate answers a request from the analytical twin: same model,
// mapping and table generation as a real run, but the execution itself is a
// closed-form prediction — no kernel, no events, no worker occupancy. The
// response mirrors a run response (predicted period/latency/elapsed,
// predicted per-node busy stats, Dispatches 0) plus the twin breakdown.
func executeEstimate(r *Request) (*Response, error) {
	tables, _, pl, resp, err := buildCase(r)
	if err != nil {
		return nil, err
	}
	ev, err := twin.NewEvaluator(tables, pl)
	if err != nil {
		return nil, badf("twin: %v", err)
	}
	pred := ev.Predict(twin.Options{
		Iterations:       r.Protocol.Iterations,
		Sequential:       r.Protocol.Sequential,
		OptimizedBuffers: r.Protocol.OptimizedBuffers,
	})
	period := time.Duration(pred.Period)
	avg := time.Duration(pred.AvgLatency)
	elapsed := time.Duration(pred.Elapsed)
	resp.Period = period.String()
	resp.PeriodNs = int64(period)
	resp.AvgLatency = avg.String()
	resp.AvgLatencyNs = int64(avg)
	resp.Elapsed = elapsed.String()
	resp.ElapsedNs = int64(elapsed)
	for n, nc := range pred.Nodes {
		util := 0.0
		if pred.Elapsed > 0 {
			util = float64(nc.Compute+nc.Copy) / float64(pred.Elapsed)
		}
		resp.NodeStats = append(resp.NodeStats, NodeStat{
			Node:        n,
			ComputeNs:   int64(nc.Compute),
			CopyNs:      int64(nc.Copy),
			CommNs:      int64(nc.Comm),
			Utilization: util,
		})
	}
	resp.Twin = &TwinSummary{
		FirstIterationNs:   int64(pred.FirstIteration),
		SteadyIterationNs:  int64(pred.SteadyIteration),
		BottleneckPeriodNs: int64(pred.BottleneckPeriod),
		RecvNs:             int64(pred.Phases.Recv),
		DispatchNs:         int64(pred.Phases.Dispatch),
		ComputeNs:          int64(pred.Phases.Compute),
		SendNs:             int64(pred.Phases.Send),
	}
	return resp, nil
}

// executeStream runs a streaming request: same model/mapping/table pipeline
// as a batch run, then the stream runtime instead of sagert. The response's
// latency fields summarise frames (mean frame latency; period is the mean
// completion interval) and Stream carries the full SLO report. The backlog
// callback, when non-nil, receives live admission-queue depths for the
// daemon's per-worker gauges; it never influences the simulated result.
func executeStream(ctx context.Context, r *Request, backlog func(int)) (*Response, error) {
	tables, app, pl, resp, err := buildCase(r)
	if err != nil {
		return nil, err
	}
	spec := r.Protocol.Stream
	cfg := stream.Config{
		Tables:      tables,
		App:         app,
		Platform:    pl,
		Classes:     spec.Classes,
		Seed:        r.Seed,
		BufferSlots: spec.BufferSlots,
		Backlog:     backlog,
		Cancel:      ctx.Done(),
	}
	if r.Faults != "" {
		plan, err := fault.ParsePlan(r.Faults)
		if err != nil {
			return nil, badf("faults: %v", err)
		}
		if err := plan.CheckNodes(tables.NumNodes); err != nil {
			return nil, badf("faults: %v", err)
		}
		cfg.Faults = plan
	}
	if spec.Remap != nil {
		remap := *spec.Remap
		cfg.Remap = remap.Config()
	}
	var col *trace.Collector
	if r.TraceSummary {
		col = trace.New(resp.App + " stream on " + pl.Name)
		cfg.Collector = col
	}
	res, err := stream.Run(cfg)
	if err != nil {
		if errors.Is(err, stream.ErrCanceled) || errors.As(err, new(*sim.PanicError)) {
			return nil, err
		}
		return nil, badf("stream: %v", err)
	}
	rep := stream.BuildReport(cfg.Classes, cfg.Seed, res)
	if err := rep.Validate(); err != nil {
		return nil, fmt.Errorf("stream: report: %w", err)
	}
	resp.Iterations = 0
	resp.Stream = rep
	elapsed := time.Duration(res.Elapsed)
	resp.Elapsed = elapsed.String()
	resp.ElapsedNs = int64(elapsed)
	resp.Dispatches = res.Dispatches
	if rep.Completed > 0 {
		// Period: mean completion interval; AvgLatency: mean frame latency.
		period := time.Duration(rep.LastDoneNs / int64(rep.Completed))
		resp.Period = period.String()
		resp.PeriodNs = int64(period)
		var totalLat int64
		for i := range rep.Classes {
			totalLat += rep.Classes[i].MeanNs * int64(rep.Classes[i].Completed)
		}
		avg := time.Duration(totalLat / int64(rep.Completed))
		resp.AvgLatency = avg.String()
		resp.AvgLatencyNs = int64(avg)
	}
	for _, ns := range res.NodeStats {
		resp.NodeStats = append(resp.NodeStats, NodeStat{
			Node:        ns.Node,
			ComputeNs:   int64(ns.ComputeBusy),
			CopyNs:      int64(ns.CopyBusy),
			CommNs:      int64(ns.CommBusy),
			Utilization: ns.Utilization,
		})
	}
	if col != nil {
		t := trace.NewTrace()
		t.Add(col)
		var b bytes.Buffer
		if err := t.WriteSummary(&b); err != nil {
			return nil, fmt.Errorf("trace summary: %w", err)
		}
		resp.TraceSummary = b.String()
	}
	resp.FaultSummary = faultSummary(cfg.Faults)
	return resp, nil
}

// faultSummary describes the fault plan a run was given, "" for none.
func faultSummary(plan *fault.Plan) string {
	if plan == nil || plan.Empty() {
		return ""
	}
	return fmt.Sprintf("seed %d: %d drop / %d degrade / %d stall rules applied",
		plan.Seed, len(plan.Drops), len(plan.Degrades), len(plan.Stalls))
}

// execute runs a normalized request end to end. The context's deadline is
// wired into the kernel's cancellation poll (sagert.Options.Cancel): a
// deadline mid-run aborts between dispatched events and sagert's deferred
// Kernel.Shutdown releases the parked process goroutines, so a canceled
// request leaks nothing. backlog feeds the daemon's per-worker queue-depth
// gauge on streaming requests; batch requests ignore it.
func execute(ctx context.Context, r *Request, backlog func(int)) (*Response, error) {
	if r.Protocol.Stream != nil {
		return executeStream(ctx, r, backlog)
	}
	tables, _, pl, resp, err := buildCase(r)
	if err != nil {
		return nil, err
	}

	var plan *fault.Plan
	if r.Faults != "" {
		// Parse validated by normalize; reparse for the injector.
		if plan, err = fault.ParsePlan(r.Faults); err != nil {
			return nil, badf("faults: %v", err)
		}
		if err := plan.CheckNodes(tables.NumNodes); err != nil {
			return nil, badf("faults: %v", err)
		}
	}

	// No Response field derives from a sample, and buildCase's tables come
	// from a validated model: the run carries none.
	opts := sagert.Options{
		Iterations:        r.Protocol.Iterations,
		ComputeIterations: sagert.NoSamples,
		Sequential:        r.Protocol.Sequential,
		OptimizedBuffers:  r.Protocol.OptimizedBuffers,
		Faults:            plan,
		Cancel:            ctx.Done(),
	}
	if r.TraceSummary {
		opts.Collector = trace.New(resp.App + " on " + pl.Name)
	}
	res, err := sagert.Run(tables, pl, opts)
	if err != nil {
		return nil, err
	}
	if err := resp.setRun(res, opts.Collector, plan); err != nil {
		return nil, err
	}
	return resp, nil
}

// setRun fills in what a batch run measured: the timings and per-node busy
// times of res, the summary of its trace when one was collected, and the fault plan's one-line account. Nothing here reads a
// sample, which is why execute's runs carry none.
func (resp *Response) setRun(res *sagert.Result, col *trace.Collector, plan *fault.Plan) error {
	period := time.Duration(res.Period)
	avg := time.Duration(res.AvgLatency())
	elapsed := time.Duration(res.Elapsed)
	resp.Period = period.String()
	resp.PeriodNs = int64(period)
	resp.AvgLatency = avg.String()
	resp.AvgLatencyNs = int64(avg)
	resp.Elapsed = elapsed.String()
	resp.ElapsedNs = int64(elapsed)
	resp.Dispatches = res.Dispatches
	for _, ns := range res.NodeStats {
		resp.NodeStats = append(resp.NodeStats, NodeStat{
			Node:        ns.Node,
			ComputeNs:   int64(ns.ComputeBusy),
			CopyNs:      int64(ns.CopyBusy),
			CommNs:      int64(ns.CommBusy),
			Utilization: ns.Utilization,
		})
	}
	if col != nil {
		t := trace.NewTrace()
		t.Add(col)
		var b bytes.Buffer
		if err := t.WriteSummary(&b); err != nil {
			return fmt.Errorf("trace summary: %w", err)
		}
		resp.TraceSummary = b.String()
	}
	resp.FaultSummary = faultSummary(plan)
	return nil
}

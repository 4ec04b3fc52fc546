package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/atot"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/pool"
	"repro/internal/sagert"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ---------------------------------------------------------------------------
// §3.4 two-node anomaly
// ---------------------------------------------------------------------------

// TwoNode reproduces the §3.4 observation: "A performance hit was taken on a
// two-node configuration. Here, the SAGE run-time buffer management scheme
// assigns unique logical buffers to the data per function which can cause
// extra data access times."
type TwoNode struct {
	N    int
	Rows []Row // corner turn at 2, 4, 8 nodes
}

// RunTwoNode measures the corner turn across node counts, one pooled run per
// node count.
func RunTwoNode(pl machine.Platform, n int, proto Protocol) (*TwoNode, error) {
	proto = proto.withDefaults()
	nodeCounts := []int{2, 4, 8}
	type cellOut struct {
		row  Row
		cols []*trace.Collector
	}
	outs, err := pool.Run(proto.Parallelism, len(nodeCounts), func(i int) (cellOut, error) {
		nodes := nodeCounts[i]
		hand, hcols, err := runHand(AppCornerTurn, pl, nodes, n, proto)
		if err != nil {
			return cellOut{}, err
		}
		sage, scols, err := runSage(AppCornerTurn, pl, nodes, n, proto, sagert.Options{})
		if err != nil {
			return cellOut{}, err
		}
		return cellOut{
			row: Row{App: AppCornerTurn, N: n, Nodes: nodes,
				Hand: hand, Sage: sage, PctOfHand: 100 * float64(hand) / float64(sage)},
			cols: append(hcols, scols...),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	mergeTrace(proto.Trace, outs, func(co cellOut) []*trace.Collector { return co.cols })
	out := &TwoNode{N: n}
	for _, co := range outs {
		out.Rows = append(out.Rows, co.row)
	}
	return out, nil
}

// Format renders the anomaly table.
func (t *TwoNode) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§3.4 two-node corner-turn anomaly (%d x %d, CSPI buffer scheme)\n\n", t.N, t.N)
	fmt.Fprintf(&b, "%6s  %14s %14s %14s\n", "Nodes", "Hand Coded", "SAGE AutoGen", "% of Hand")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%6d  %14v %14v %13.1f%%\n", r.Nodes, r.Hand, r.Sage, r.PctOfHand)
	}
	return b.String()
}

// WorstIsTwoNodes reports whether the 2-node configuration shows the largest
// overhead, as the paper observed.
func (t *TwoNode) WorstIsTwoNodes() bool {
	if len(t.Rows) == 0 {
		return false
	}
	worst := t.Rows[0]
	for _, r := range t.Rows[1:] {
		if r.PctOfHand < worst.PctOfHand {
			worst = r
		}
	}
	return worst.Nodes == 2
}

// ---------------------------------------------------------------------------
// §4 aggregate efficiency + future-work optimisation
// ---------------------------------------------------------------------------

// Aggregate reproduces the conclusion's headline numbers: the overall
// percentage of hand-coded performance across both applications, and the
// same figure with the announced buffer optimisation enabled (the "90% of
// hand coded performance" work-in-progress).
type Aggregate struct {
	Baseline  *Table1
	Optimized *Table1
}

// RunAggregate runs the Table 1.0 grid twice.
func RunAggregate(cfg Table1Config) (*Aggregate, error) {
	base, err := RunTable1(cfg)
	if err != nil {
		return nil, err
	}
	optCfg := cfg
	optCfg.Options.OptimizedBuffers = true
	opt, err := RunTable1(optCfg)
	if err != nil {
		return nil, err
	}
	return &Aggregate{Baseline: base, Optimized: opt}, nil
}

// Format renders the aggregate claim.
func (a *Aggregate) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§4 aggregate efficiency of SAGE auto-generated code\n\n")
	fmt.Fprintf(&b, "%-28s %10s %12s %10s\n", "Configuration", "2D FFT", "Corner Turn", "Overall")
	fmt.Fprintf(&b, "%-28s %9.1f%% %11.1f%% %9.1f%%\n", "released glue generator",
		a.Baseline.FFTAvg, a.Baseline.CTAvg, a.Baseline.OverallAvg)
	fmt.Fprintf(&b, "%-28s %9.1f%% %11.1f%% %9.1f%%\n", "optimized buffers (future)",
		a.Optimized.FFTAvg, a.Optimized.CTAvg, a.Optimized.OverallAvg)
	return b.String()
}

// ---------------------------------------------------------------------------
// Cross-vendor comparison (§3.1, after the MITRE study)
// ---------------------------------------------------------------------------

// VendorRow is one (platform, app, nodes) measurement of the hand-coded
// benchmarks, vendor MPI included.
type VendorRow struct {
	Platform string
	App      AppKind
	Nodes    int
	Latency  sim.Duration
}

// CrossVendor holds the sweep.
type CrossVendor struct {
	N    int
	Rows []VendorRow
}

// RunCrossVendor sweeps both benchmarks across the four vendor platforms at
// several node counts, the shape of the MITRE cross-vendor data the paper
// cites.
func RunCrossVendor(n int, nodes []int, proto Protocol) (*CrossVendor, error) {
	proto = proto.withDefaults()
	if len(nodes) == 0 {
		nodes = []int{2, 4, 8, 16}
	}
	type cell struct {
		pl   machine.Platform
		kind AppKind
		nn   int
	}
	var cells []cell
	for _, pl := range platforms.Vendors() {
		for _, kind := range []AppKind{AppFFT2D, AppCornerTurn} {
			for _, nn := range nodes {
				cells = append(cells, cell{pl, kind, nn})
			}
		}
	}
	type cellOut struct {
		row  VendorRow
		cols []*trace.Collector
	}
	outs, err := pool.Run(proto.Parallelism, len(cells), func(i int) (cellOut, error) {
		cl := cells[i]
		lat, cols, err := runHand(cl.kind, cl.pl, cl.nn, n, proto)
		if err != nil {
			return cellOut{}, err
		}
		return cellOut{row: VendorRow{Platform: cl.pl.Name, App: cl.kind, Nodes: cl.nn, Latency: lat}, cols: cols}, nil
	})
	if err != nil {
		return nil, err
	}
	mergeTrace(proto.Trace, outs, func(co cellOut) []*trace.Collector { return co.cols })
	out := &CrossVendor{N: n}
	for _, co := range outs {
		out.Rows = append(out.Rows, co.row)
	}
	return out, nil
}

// Format renders the sweep grouped by application.
func (c *CrossVendor) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-vendor performance, hand-coded benchmarks with vendor all-to-all (%d x %d)\n", c.N, c.N)
	for _, kind := range []AppKind{AppFFT2D, AppCornerTurn} {
		fmt.Fprintf(&b, "\n%s:\n%-10s", kind, "Platform")
		var nodeCounts []int
		seen := map[int]bool{}
		for _, r := range c.Rows {
			if r.App == kind && !seen[r.Nodes] {
				seen[r.Nodes] = true
				nodeCounts = append(nodeCounts, r.Nodes)
			}
		}
		sort.Ints(nodeCounts)
		for _, nn := range nodeCounts {
			fmt.Fprintf(&b, " %14s", fmt.Sprintf("%d nodes", nn))
		}
		fmt.Fprintln(&b)
		for _, pl := range platforms.Vendors() {
			fmt.Fprintf(&b, "%-10s", pl.Name)
			for _, nn := range nodeCounts {
				for _, r := range c.Rows {
					if r.App == kind && r.Platform == pl.Name && r.Nodes == nn {
						fmt.Fprintf(&b, " %14v", r.Latency)
					}
				}
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String()
}

// Winner returns the fastest platform for an app at a node count.
func (c *CrossVendor) Winner(kind AppKind, nodes int) string {
	best, name := sim.Duration(1<<62), ""
	for _, r := range c.Rows {
		if r.App == kind && r.Nodes == nodes && r.Latency < best {
			best, name = r.Latency, r.Platform
		}
	}
	return name
}

// ---------------------------------------------------------------------------
// Portability (§1/§4): one model, regenerated per platform
// ---------------------------------------------------------------------------

// PortabilityRow is one platform's execution of the unmodified model.
type PortabilityRow struct {
	Platform string
	Latency  sim.Duration
	Verified bool
}

// Portability holds the study.
type Portability struct {
	App   AppKind
	N     int
	Nodes int
	Rows  []PortabilityRow
}

// RunPortability regenerates glue code for the same application model on
// every vendor platform and executes it, verifying the numerical output is
// identical everywhere ("the designer simply needs to re-generate the glue
// code for the new hardware platform", §4).
func RunPortability(kind AppKind, n, nodes int, proto Protocol) (*Portability, error) {
	proto = proto.withDefaults()
	out := &Portability{App: kind, N: n, Nodes: nodes}
	vendors := platforms.Vendors()
	results, err := pool.Run(proto.Parallelism, len(vendors), func(i int) (*sagert.Result, error) {
		pl := vendors[i]
		tbl, err := GenerateTables(kind, pl, nodes, n)
		if err != nil {
			return nil, err
		}
		o := sagert.Options{Iterations: proto.Iterations}
		applyShards(proto, tbl.Tables, pl, &o)
		return sagert.Run(tbl.Tables, pl, o)
	})
	if err != nil {
		return nil, err
	}
	// Verification order matches the sequential protocol: the first vendor's
	// output is the reference every other platform must reproduce exactly.
	reference := results[0]
	for i, res := range results {
		row := PortabilityRow{Platform: vendors[i].Name, Latency: res.AvgLatency()}
		if i == 0 {
			row.Verified = true
		} else {
			row.Verified = res.Output != nil && reference.Output != nil &&
				res.Output.MaxDiff(reference.Output) == 0
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Format renders the portability table.
func (p *Portability) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Portability: %s %dx%d model regenerated per platform (%d nodes)\n\n", p.App, p.N, p.N, p.Nodes)
	fmt.Fprintf(&b, "%-10s %14s %10s\n", "Platform", "Latency", "Output OK")
	for _, r := range p.Rows {
		fmt.Fprintf(&b, "%-10s %14v %10v\n", r.Platform, r.Latency, r.Verified)
	}
	return b.String()
}

// AllVerified reports whether every platform produced the identical result.
func (p *Portability) AllVerified() bool {
	for _, r := range p.Rows {
		if !r.Verified {
			return false
		}
	}
	return len(p.Rows) > 0
}

// ---------------------------------------------------------------------------
// Figure 1.0: the generation pipeline itself
// ---------------------------------------------------------------------------

// GenStudy quantifies one glue-code generation (Figure 1.0's models ->
// Alter -> source files pipeline).
type GenStudy struct {
	App        AppKind
	N, Nodes   int
	Functions  int
	Buffers    int
	Transfers  int
	TableLines int
	GlueLines  int
	Verified   bool
}

// RunGenStudy generates glue for a benchmark model and reports artifact
// statistics.
func RunGenStudy(kind AppKind, pl machine.Platform, n, nodes int) (*GenStudy, error) {
	out, err := GenerateTables(kind, pl, nodes, n)
	if err != nil {
		return nil, err
	}
	s := &GenStudy{App: kind, N: n, Nodes: nodes,
		Functions: len(out.Tables.Functions), Buffers: len(out.Tables.Buffers)}
	for _, b := range out.Tables.Buffers {
		s.Transfers += len(b.Transfers)
	}
	s.TableLines = strings.Count(out.TableSource, "\n")
	s.GlueLines = strings.Count(out.GlueSource, "\n")
	s.Verified = out.Tables.Verify() == nil
	return s, nil
}

// Format renders the study.
func (s *GenStudy) Format() string {
	return fmt.Sprintf("Figure 1.0 generation study: %s %dx%d on %d nodes: %d functions, %d logical buffers, %d striding transfers; %d table-source lines, %d glue-listing lines; verified=%v",
		s.App, s.N, s.N, s.Nodes, s.Functions, s.Buffers, s.Transfers, s.TableLines, s.GlueLines, s.Verified)
}

// ---------------------------------------------------------------------------
// Pipelining ablation: §3.3's period vs latency distinction
// ---------------------------------------------------------------------------

// Pipeline quantifies what the SAGE runtime's dataflow pipelining buys: the
// steady-state period of the pipelined runtime versus its own sequential
// per-data-set latency and the hand-coded loop.
type Pipeline struct {
	App                AppKind
	N, Nodes           int
	Hand               sim.Duration // hand-coded sequential loop
	SageSequential     sim.Duration // SAGE, one data set at a time
	SagePipelinePeriod sim.Duration // SAGE steady-state period
	SagePipelineLat    sim.Duration // SAGE per-data-set latency inside the full pipeline
}

// RunPipeline measures the three modes, pooled (they are independent runs on
// separate simulated machines).
func RunPipeline(kind AppKind, pl machine.Platform, n, nodes, iterations int) (*Pipeline, error) {
	if iterations < 4 {
		iterations = 4
	}
	out := &Pipeline{App: kind, N: n, Nodes: nodes}
	tbl, err := GenerateTables(kind, pl, nodes, n)
	if err != nil {
		return nil, err
	}
	modes := []func() error{
		func() (err error) {
			out.Hand, _, err = runHand(kind, pl, nodes, n, Protocol{Repetitions: 1, Iterations: iterations})
			return err
		},
		func() error {
			seq, err := sagert.Run(tbl.Tables, pl, sagert.Options{Iterations: iterations, ComputeIterations: sagert.NoSamples, Sequential: true})
			if err != nil {
				return err
			}
			out.SageSequential = seq.AvgLatency()
			return nil
		},
		func() error {
			pip, err := sagert.Run(tbl.Tables, pl, sagert.Options{Iterations: iterations, ComputeIterations: sagert.NoSamples})
			if err != nil {
				return err
			}
			out.SagePipelinePeriod = pip.Period
			out.SagePipelineLat = pip.AvgLatency()
			return nil
		},
	}
	if _, err := pool.Run(0, len(modes), func(i int) (struct{}, error) {
		return struct{}{}, modes[i]()
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Format renders the ablation.
func (p *Pipeline) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Pipelining ablation: %s %dx%d on %d nodes (period vs latency, §3.3)\n\n", p.App, p.N, p.N, p.Nodes)
	fmt.Fprintf(&b, "%-34s %14s\n", "hand-coded loop (per data set)", p.Hand)
	fmt.Fprintf(&b, "%-34s %14s\n", "SAGE sequential latency", p.SageSequential)
	fmt.Fprintf(&b, "%-34s %14s\n", "SAGE pipelined period", p.SagePipelinePeriod)
	fmt.Fprintf(&b, "%-34s %14s\n", "SAGE pipelined latency", p.SagePipelineLat)
	return b.String()
}

// ---------------------------------------------------------------------------
// Scaling study: §3.1's "several node configurations (node counts)" axis
// ---------------------------------------------------------------------------

// ScalingRow is one node-count measurement.
type ScalingRow struct {
	Nodes       int
	Hand        sim.Duration
	Sage        sim.Duration
	HandSpeedup float64 // vs 1 node hand-coded
	SageSpeedup float64 // vs 1 node SAGE
}

// Scaling sweeps node counts for one application.
type Scaling struct {
	App  AppKind
	N    int
	Rows []ScalingRow
}

// RunScaling measures hand-coded and SAGE times across node counts and
// derives speedups relative to each version's single-node time.
func RunScaling(kind AppKind, pl machine.Platform, n int, nodeCounts []int, proto Protocol) (*Scaling, error) {
	proto = proto.withDefaults()
	if len(nodeCounts) == 0 {
		nodeCounts = []int{1, 2, 4, 8, 16}
	}
	out := &Scaling{App: kind, N: n}
	type point struct {
		hand, sage sim.Duration
		cols       []*trace.Collector
	}
	points, err := pool.Run(proto.Parallelism, len(nodeCounts), func(i int) (point, error) {
		hand, hcols, err := runHand(kind, pl, nodeCounts[i], n, proto)
		if err != nil {
			return point{}, err
		}
		sage, scols, err := runSage(kind, pl, nodeCounts[i], n, proto, sagert.Options{})
		if err != nil {
			return point{}, err
		}
		return point{hand, sage, append(hcols, scols...)}, nil
	})
	if err != nil {
		return nil, err
	}
	mergeTrace(proto.Trace, points, func(pt point) []*trace.Collector { return pt.cols })
	// Speedups are relative to the first configuration, derivable only once
	// every pooled measurement is in.
	var handBase, sageBase sim.Duration
	for i, pt := range points {
		if handBase == 0 {
			handBase, sageBase = pt.hand, pt.sage
		}
		out.Rows = append(out.Rows, ScalingRow{
			Nodes: nodeCounts[i], Hand: pt.hand, Sage: pt.sage,
			HandSpeedup: float64(handBase) / float64(pt.hand),
			SageSpeedup: float64(sageBase) / float64(pt.sage),
		})
	}
	return out, nil
}

// Format renders the sweep.
func (s *Scaling) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scaling study: %s %dx%d (speedup vs the smallest configuration)\n\n", s.App, s.N, s.N)
	fmt.Fprintf(&b, "%6s %14s %10s %14s %10s\n", "Nodes", "Hand", "speedup", "SAGE", "speedup")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%6d %14v %9.2fx %14v %9.2fx\n", r.Nodes, r.Hand, r.HandSpeedup, r.Sage, r.SageSpeedup)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// AToT model fidelity: do the analytic estimates rank mappings the way the
// simulator does? (The trades process is only useful if its cost model
// orders candidate architectures correctly.)
// ---------------------------------------------------------------------------

// EstimatePoint pairs an analytic estimate with a measurement for one
// mapping.
type EstimatePoint struct {
	Mapping   string
	Estimated sim.Duration // AToT critical-path estimate
	Measured  sim.Duration // simulated sequential latency
}

// EstimateAccuracy reports the comparison across several mappings.
type EstimateAccuracy struct {
	App    string
	Points []EstimatePoint
}

// RunEstimateAccuracy evaluates a handful of qualitatively different
// mappings with the AToT cost model and with the simulator.
func RunEstimateAccuracy(app *model.App, pl machine.Platform, nodes int) (*EstimateAccuracy, error) {
	ev, err := atot.NewEvaluator(app, pl, nodes)
	if err != nil {
		return nil, err
	}
	candidates := map[string]*model.Mapping{}
	if m, err := model.SpreadParallel(app, nodes); err == nil {
		candidates["spread"] = m
	}
	candidates["roundrobin"] = model.RoundRobin(app, nodes)
	packed := model.NewMapping()
	for _, f := range app.Functions {
		packed.Set(f.Name, make([]int, f.Threads)...)
	}
	candidates["packed"] = packed
	if m, err := atot.MapGreedy(ev); err == nil {
		candidates["greedy"] = m
	}

	out := &EstimateAccuracy{App: app.Name}
	for _, name := range []string{"packed", "roundrobin", "spread", "greedy"} {
		m, ok := candidates[name]
		if !ok {
			continue
		}
		cost, err := ev.Evaluate(m, atot.Weights{})
		if err != nil {
			return nil, err
		}
		tbl, err := gluegenGenerate(app, m, pl, nodes)
		if err != nil {
			return nil, err
		}
		res, err := sagert.Run(tbl, pl, sagert.Options{Iterations: 2, ComputeIterations: sagert.NoSamples, Sequential: true})
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, EstimatePoint{
			Mapping: name, Estimated: cost.CriticalPath, Measured: res.AvgLatency(),
		})
	}
	return out, nil
}

// RankAgreement counts concordant pairs: for how many mapping pairs does the
// estimate order agree with the measured order? Pairs whose values differ by
// less than 5% in either dimension are ties, not evidence either way.
// Returns concordant, total.
func (e *EstimateAccuracy) RankAgreement() (int, int) {
	distinct := func(a, b sim.Duration) bool {
		lo, hi := float64(a), float64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		return hi > 1.05*lo
	}
	concordant, total := 0, 0
	for i := 0; i < len(e.Points); i++ {
		for j := i + 1; j < len(e.Points); j++ {
			a, b := e.Points[i], e.Points[j]
			if !distinct(a.Estimated, b.Estimated) || !distinct(a.Measured, b.Measured) {
				continue
			}
			total++
			if (a.Estimated < b.Estimated) == (a.Measured < b.Measured) {
				concordant++
			}
		}
	}
	return concordant, total
}

// Format renders the comparison.
func (e *EstimateAccuracy) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "AToT estimate fidelity for %s (critical-path estimate vs simulated latency)\n\n", e.App)
	fmt.Fprintf(&b, "%-12s %16s %16s\n", "Mapping", "estimated", "measured")
	for _, p := range e.Points {
		fmt.Fprintf(&b, "%-12s %16v %16v\n", p.Mapping, p.Estimated, p.Measured)
	}
	c, tot := e.RankAgreement()
	fmt.Fprintf(&b, "\nrank agreement: %d of %d mapping pairs ordered identically\n", c, tot)
	return b.String()
}

// ---------------------------------------------------------------------------
// Heterogeneous-architecture study (§1.1: "assigns the application tasks to
// the multi-processor, heterogeneous architecture")
// ---------------------------------------------------------------------------

// Heterogeneous compares speed-aware GA mapping against naive placement on a
// machine mixing fast and slow processors.
type Heterogeneous struct {
	App        string
	Speeds     []float64
	MeasuredGA sim.Duration
	MeasuredRR sim.Duration
}

// RunHeterogeneous maps an application onto a heterogeneous machine (per-node
// speed multipliers) with the speed-aware GA and with round-robin, and
// measures both on the simulator.
func RunHeterogeneous(app *model.App, pl machine.Platform, speeds []float64, ga atot.GAConfig) (*Heterogeneous, error) {
	nodes := len(speeds)
	ev, err := atot.NewEvaluator(app, pl, nodes)
	if err != nil {
		return nil, err
	}
	ev.SetNodeSpeeds(speeds)
	gaMap, _, err := atot.MapGA(ev, ga)
	if err != nil {
		return nil, err
	}
	out := &Heterogeneous{App: app.Name, Speeds: speeds}
	// Measure per-data-set latency in sequential mode — the quantity the
	// optimiser's critical-path model estimates.
	measure := func(m *model.Mapping) (sim.Duration, error) {
		tbl, err := gluegenGenerate(app, m, pl, nodes)
		if err != nil {
			return 0, err
		}
		res, err := sagert.Run(tbl, pl, sagert.Options{Iterations: 3, ComputeIterations: sagert.NoSamples, Sequential: true, NodeSpeeds: speeds})
		if err != nil {
			return 0, err
		}
		return res.AvgLatency(), nil
	}
	mappings := []*model.Mapping{gaMap, model.RoundRobin(app, nodes)}
	measured, err := pool.Run(0, len(mappings), func(i int) (sim.Duration, error) {
		return measure(mappings[i])
	})
	if err != nil {
		return nil, err
	}
	out.MeasuredGA, out.MeasuredRR = measured[0], measured[1]
	return out, nil
}

// Format renders the study.
func (h *Heterogeneous) Format() string {
	return fmt.Sprintf("Heterogeneous mapping study for %s (node speeds %v):\n  GA latency %v, round-robin latency %v (GA %.1f%% faster)\n",
		h.App, h.Speeds, h.MeasuredGA, h.MeasuredRR,
		100*(float64(h.MeasuredRR)-float64(h.MeasuredGA))/float64(h.MeasuredRR))
}

// ---------------------------------------------------------------------------
// Real-time input-rate study (§1: "real-time applications that require
// high-performance and high input/output bandwidth")
// ---------------------------------------------------------------------------

// RealTimeRow is one paced run.
type RealTimeRow struct {
	InputPeriod sim.Duration
	MaxOverrun  sim.Duration
	AvgLatency  sim.Duration
	Sustained   bool // the pipeline kept up (no meaningful overrun)
}

// RealTime sweeps sensor input rates around the pipeline's capability.
type RealTime struct {
	App      AppKind
	N, Nodes int
	Capacity sim.Duration // unpaced steady-state period
	Rows     []RealTimeRow
}

// RunRealTime measures the free-running period, then paces the source at
// multiples of it and reports whether the runtime sustains each rate.
func RunRealTime(kind AppKind, pl machine.Platform, n, nodes, iterations int, factors []float64) (*RealTime, error) {
	if iterations < 4 {
		iterations = 4
	}
	if len(factors) == 0 {
		factors = []float64{0.7, 1.0, 1.3, 2.0}
	}
	tbl, err := GenerateTables(kind, pl, nodes, n)
	if err != nil {
		return nil, err
	}
	free, err := sagert.Run(tbl.Tables, pl, sagert.Options{Iterations: iterations, ComputeIterations: sagert.NoSamples})
	if err != nil {
		return nil, err
	}
	out := &RealTime{App: kind, N: n, Nodes: nodes, Capacity: free.Period}
	// Every paced run depends on the free-running period above, but the runs
	// are independent of each other: one pooled job per input rate.
	rows, err := pool.Run(0, len(factors), func(i int) (RealTimeRow, error) {
		period := sim.Duration(float64(free.Period) * factors[i])
		res, err := sagert.Run(tbl.Tables, pl, sagert.Options{Iterations: iterations, ComputeIterations: sagert.NoSamples, InputPeriod: period})
		if err != nil {
			return RealTimeRow{}, err
		}
		return RealTimeRow{
			InputPeriod: period,
			MaxOverrun:  res.MaxOverrun,
			AvgLatency:  res.AvgLatency(),
			Sustained:   float64(res.MaxOverrun) < 0.05*float64(period),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out.Rows = rows
	return out, nil
}

// Format renders the sweep.
func (r *RealTime) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Real-time input-rate study: %s %dx%d on %d nodes (free-running period %v)\n\n",
		r.App, r.N, r.N, r.Nodes, r.Capacity)
	fmt.Fprintf(&b, "%16s %16s %16s %10s\n", "input period", "max overrun", "avg latency", "sustained")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%16v %16v %16v %10v\n", row.InputPeriod, row.MaxOverrun, row.AvgLatency, row.Sustained)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// AToT mapping study (§1.1)
// ---------------------------------------------------------------------------

// MappingStudy compares the GA mapper against the baselines on an
// application.
type MappingStudy struct {
	App        string
	GACost     atot.Cost
	GreedyCost atot.Cost
	RoundRobin atot.Cost
	// MeasuredGA / MeasuredRR are simulated latencies of the GA and
	// round-robin mappings, closing the loop between the analytic model
	// and the runtime.
	MeasuredGA sim.Duration
	MeasuredRR sim.Duration
}

// RunMappingStudy maps an application with all three strategies, prices them
// with the AToT cost model, and executes the GA and round-robin mappings on
// the simulator.
func RunMappingStudy(app *model.App, pl machine.Platform, nodes int, ga atot.GAConfig) (*MappingStudy, error) {
	ev, err := atot.NewEvaluator(app, pl, nodes)
	if err != nil {
		return nil, err
	}
	gaMap, stats, err := atot.MapGA(ev, ga)
	if err != nil {
		return nil, err
	}
	greedy, err := atot.MapGreedy(ev)
	if err != nil {
		return nil, err
	}
	greedyCost, err := ev.Evaluate(greedy, ga.Weights)
	if err != nil {
		return nil, err
	}
	rr := model.RoundRobin(app, nodes)
	rrCost, err := ev.Evaluate(rr, ga.Weights)
	if err != nil {
		return nil, err
	}
	study := &MappingStudy{App: app.Name, GACost: stats.Best, GreedyCost: greedyCost, RoundRobin: rrCost}

	measure := func(m *model.Mapping) (sim.Duration, error) {
		out, err := gluegenGenerate(app, m, pl, nodes)
		if err != nil {
			return 0, err
		}
		res, err := sagert.Run(out, pl, sagert.Options{Iterations: 3, ComputeIterations: sagert.NoSamples})
		if err != nil {
			return 0, err
		}
		return res.AvgLatency(), nil
	}
	mappings := []*model.Mapping{gaMap, rr}
	measured, err := pool.Run(0, len(mappings), func(i int) (sim.Duration, error) {
		return measure(mappings[i])
	})
	if err != nil {
		return nil, err
	}
	study.MeasuredGA, study.MeasuredRR = measured[0], measured[1]
	return study, nil
}

// Format renders the study.
func (s *MappingStudy) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "AToT mapping study for %s\n\n", s.App)
	fmt.Fprintf(&b, "%-12s %16s %16s %16s\n", "Strategy", "max node busy", "comm cost", "critical path")
	row := func(name string, c atot.Cost) {
		fmt.Fprintf(&b, "%-12s %16v %16v %16v\n", name, c.MaxNodeBusy, c.Comm, c.CriticalPath)
	}
	row("GA", s.GACost)
	row("greedy", s.GreedyCost)
	row("round-robin", s.RoundRobin)
	fmt.Fprintf(&b, "\nsimulated latency: GA mapping %v, round-robin %v\n", s.MeasuredGA, s.MeasuredRR)
	return b.String()
}

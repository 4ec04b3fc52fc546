package experiments

import (
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/platforms"
	"repro/internal/pool"
	"repro/internal/sagert"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DefaultFaultSeed is the fault-plan seed the sweep uses when the config
// leaves it zero (any fixed value works; determinism only needs it pinned).
const DefaultFaultSeed = 7

// FaultSweepConfig parameterises a fault sweep; zero values select defaults.
type FaultSweepConfig struct {
	App      AppKind // default Corner Turn (the communication-bound benchmark)
	Platform machine.Platform
	N        int       // matrix edge, default 256
	Nodes    int       // default 4
	Rates    []float64 // per-message drop rates, default {0, 0.05, 0.20}
	Seed     int64     // fault-plan seed, default DefaultFaultSeed
	Protocol Protocol
	Options  sagert.Options
}

func (c FaultSweepConfig) withDefaults() FaultSweepConfig {
	if c.App == "" {
		c.App = AppCornerTurn
	}
	if c.Platform.Name == "" {
		c.Platform = platforms.CSPI()
	}
	if c.N == 0 {
		c.N = 256
	}
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if len(c.Rates) == 0 {
		c.Rates = []float64{0, 0.05, 0.20}
	}
	if c.Seed == 0 {
		c.Seed = DefaultFaultSeed
	}
	c.Protocol = c.Protocol.withDefaults()
	return c
}

// FaultRow is one fault rate's hand-vs-SAGE comparison.
type FaultRow struct {
	Rate       float64
	Hand, Sage sim.Duration
	// HandSlow and SageSlow are slowdown factors relative to the fault-free
	// run of the same implementation (1.0 at rate 0).
	HandSlow, SageSlow float64
	PctOfHand          float64 // 100 * Hand / Sage at this fault rate
}

// FaultSweep reports how injected link faults degrade the hand-coded baseline
// and the resilient SAGE runtime. Every row derives from the same seeded
// plan family, so the whole table is reproducible byte for byte at any
// Protocol.Parallelism and with tracing on or off.
type FaultSweep struct {
	App      AppKind
	Platform string
	N, Nodes int
	Seed     int64
	Protocol Protocol
	Rows     []FaultRow
}

// RunFaultSweep measures overhead versus fault rate: for each rate it runs
// the hand-coded baseline and the SAGE runtime under a drop-all-links plan
// (rate 0 runs fault-free) and normalises against the fault-free run. Cells
// fan out across the Protocol.Parallelism pool like every other sweep.
func RunFaultSweep(cfg FaultSweepConfig) (*FaultSweep, error) {
	c := cfg.withDefaults()
	out := &FaultSweep{App: c.App, Platform: c.Platform.Name, N: c.N, Nodes: c.Nodes,
		Seed: c.Seed, Protocol: c.Protocol}
	type cellOut struct {
		hand, sage sim.Duration
		cols       []*trace.Collector
	}
	// Cell 0 is the fault-free reference; cell i+1 runs rate i.
	runCell := func(plan *fault.Plan) (cellOut, error) {
		proto := c.Protocol
		proto.Faults = plan
		hand, hcols, err := runHand(c.App, c.Platform, c.Nodes, c.N, proto)
		if err != nil {
			return cellOut{}, err
		}
		sage, scols, err := runSage(c.App, c.Platform, c.Nodes, c.N, proto, c.Options)
		if err != nil {
			return cellOut{}, err
		}
		return cellOut{hand: hand, sage: sage, cols: append(hcols, scols...)}, nil
	}
	outs, err := pool.Run(c.Protocol.Parallelism, 1+len(c.Rates), func(i int) (cellOut, error) {
		var plan *fault.Plan
		if i > 0 && c.Rates[i-1] > 0 {
			plan = fault.DropAll(c.Seed, c.Rates[i-1])
		}
		co, err := runCell(plan)
		if err != nil {
			rate := 0.0
			if i > 0 {
				rate = c.Rates[i-1]
			}
			return cellOut{}, fmt.Errorf("experiments: fault sweep rate %g: %w", rate, err)
		}
		return co, nil
	})
	if err != nil {
		return nil, err
	}
	mergeTrace(c.Protocol.Trace, outs, func(co cellOut) []*trace.Collector { return co.cols })
	// Trace is an output channel and Parallelism a host-execution knob —
	// neither is a result parameter, so drop both from the stored protocol:
	// a sweep must compare deep-equal however it was executed.
	out.Protocol.Trace = nil
	out.Protocol.Parallelism = 0
	base := outs[0]
	for i, rate := range c.Rates {
		co := outs[i+1]
		out.Rows = append(out.Rows, FaultRow{
			Rate: rate, Hand: co.hand, Sage: co.sage,
			HandSlow:  float64(co.hand) / float64(base.hand),
			SageSlow:  float64(co.sage) / float64(base.sage),
			PctOfHand: 100 * float64(co.hand) / float64(co.sage),
		})
	}
	return out, nil
}

// Format renders the sweep as an overhead-versus-fault-rate table.
func (s *FaultSweep) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault sweep — %s %dx%d on %s, %d nodes, plan seed %d\n",
		s.App, s.N, s.N, s.Platform, s.Nodes, s.Seed)
	fmt.Fprintf(&b, "(protocol: %d executions x %d iterations; drop faults on all links,\n",
		s.Protocol.Repetitions, s.Protocol.Iterations)
	fmt.Fprintf(&b, " MPI retry protocol on both, SAGE resilient runtime mode on top)\n\n")
	fmt.Fprintf(&b, "%7s  %14s %8s  %14s %8s  %10s\n",
		"rate", "Hand Coded", "x fault0", "SAGE AutoGen", "x fault0", "% of Hand")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%6.1f%%  %14v %8.3f  %14v %8.3f  %9.1f%%\n",
			100*r.Rate, r.Hand, r.HandSlow, r.Sage, r.SageSlow, r.PctOfHand)
	}
	return b.String()
}

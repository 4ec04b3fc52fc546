package experiments

import (
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/platforms"
	"repro/internal/sagert"
	"repro/internal/sim"
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
	App        AppKind
	Platform   string
	N, Nodes   int
	Seed       int64
	Iterations int
	Rows       []FaultRow
}

// RunFaultSweep measures overhead versus fault rate: one sweep whose first
// cell runs fault-free and whose cell i+1 runs rate i under a drop-all-links
// plan (none at rate 0); each row is normalised against the fault-free
// cell. The sweep's own plans replace Protocol.Faults.
func RunFaultSweep(cfg FaultSweepConfig) (*FaultSweep, error) {
	c := cfg.withDefaults()
	cells := []cell{{c.App, c.Platform, c.N, c.Nodes, c.Options, nil}}
	for _, rate := range c.Rates {
		var plan *fault.Plan
		if rate > 0 {
			plan = fault.DropAll(c.Seed, rate)
		}
		cells = append(cells, cell{c.App, c.Platform, c.N, c.Nodes, c.Options, plan})
	}
	rows, err := sweep(c.Protocol, cells, true)
	if err != nil {
		return nil, err
	}
	out := &FaultSweep{App: c.App, Platform: c.Platform.Name, N: c.N, Nodes: c.Nodes,
		Seed: c.Seed, Iterations: c.Protocol.Iterations}
	base := rows[0]
	for i, rate := range c.Rates {
		r := rows[i+1]
		out.Rows = append(out.Rows, FaultRow{
			Rate: rate, Hand: r.Hand, Sage: r.Sage,
			HandSlow:  float64(r.Hand) / float64(base.Hand),
			SageSlow:  float64(r.Sage) / float64(base.Sage),
			PctOfHand: r.PctOfHand,
		})
	}
	return out, nil
}

// Format renders the sweep as an overhead-versus-fault-rate table.
func (s *FaultSweep) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault sweep — %s %dx%d on %s, %d nodes, plan seed %d\n",
		s.App, s.N, s.N, s.Platform, s.Nodes, s.Seed)
	fmt.Fprintf(&b, "(protocol: %d iterations, one execution; drop faults on all links,\n", s.Iterations)
	fmt.Fprintf(&b, " MPI retry protocol on both, SAGE resilient runtime mode on top)\n\n")
	fmt.Fprintf(&b, "%7s  %14s %8s  %14s %8s  %10s\n",
		"rate", "Hand Coded", "x fault0", "SAGE AutoGen", "x fault0", "% of Hand")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%6.1f%%  %14v %8.3f  %14v %8.3f  %9.1f%%\n",
			100*r.Rate, r.Hand, r.HandSlow, r.Sage, r.SageSlow, r.PctOfHand)
	}
	return b.String()
}

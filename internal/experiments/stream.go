package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/pool"
	"repro/internal/stream"
	"repro/internal/trace"
)

// StreamCompareConfig parameterises the remap-vs-static streaming
// experiment. The scenario must enable remapping; the static baseline cell
// is derived from it with Scenario.Static.
type StreamCompareConfig struct {
	Scenario *stream.Scenario
	// Parallelism and Trace follow the Protocol conventions: the two cells
	// fan out across the pool, collectors merge in cell order.
	Parallelism int
	Trace       *trace.Trace
}

// StreamCompare holds both cells of the experiment. Reports are pure
// virtual-time artifacts, so the struct compares deep-equal at any
// Parallelism and with tracing on or off.
type StreamCompare struct {
	Scenario *stream.Scenario
	Static   *stream.Report
	Remap    *stream.Report
}

// RunStreamCompare runs the committed fault scenario twice — once with the
// remap controller disabled and once enabled — and returns both reports.
// This is the experiment behind the subsystem's headline claim: mid-run
// remapping strictly reduces late and shed frames under recurring faults.
func RunStreamCompare(cfg StreamCompareConfig) (*StreamCompare, error) {
	if cfg.Scenario == nil {
		return nil, fmt.Errorf("experiments: stream compare: nil scenario")
	}
	if cfg.Scenario.Remap == nil {
		return nil, fmt.Errorf("experiments: stream compare: scenario has no remap policy (nothing to compare)")
	}
	cells := []*stream.Scenario{cfg.Scenario.Static(), cfg.Scenario}
	type cellOut struct {
		rep *stream.Report
		col *trace.Collector
	}
	outs, err := pool.Run(cfg.Parallelism, len(cells), func(i int) (cellOut, error) {
		c, err := cells[i].Build()
		if err != nil {
			return cellOut{}, fmt.Errorf("experiments: stream compare: %w", err)
		}
		var col *trace.Collector
		if cfg.Trace != nil {
			kind := "static"
			if i == 1 {
				kind = "remap"
			}
			col = trace.New(fmt.Sprintf("stream %s %s", cells[i].App, kind))
		}
		c.Collector = col
		res, err := stream.Run(c)
		if err != nil {
			return cellOut{}, fmt.Errorf("experiments: stream compare: %w", err)
		}
		rep := stream.BuildReport(c.Classes, c.Seed, res)
		if err := rep.Validate(); err != nil {
			return cellOut{}, fmt.Errorf("experiments: stream compare: %w", err)
		}
		return cellOut{rep: rep, col: col}, nil
	})
	if err != nil {
		return nil, err
	}
	mergeTrace(cfg.Trace, outs, func(co cellOut) []*trace.Collector {
		if co.col == nil {
			return nil
		}
		return []*trace.Collector{co.col}
	})
	return &StreamCompare{Scenario: cfg.Scenario, Static: outs[0].rep, Remap: outs[1].rep}, nil
}

// Improved reports whether the remapped run beat the static baseline on the
// late+shed count — the acceptance criterion CI's remap-golden check gates.
func (s *StreamCompare) Improved() bool {
	return s.Remap.Late+s.Remap.Shed < s.Static.Late+s.Static.Shed
}

// Format renders the comparison as a two-row table plus the remap events.
func (s *StreamCompare) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Stream remap comparison — %s, seed %d, %d frames offered\n\n",
		s.Scenario.App, s.Static.Seed, s.Static.Offered)
	fmt.Fprintf(&b, "%-8s %6s %6s %6s %6s %8s %12s %10s\n",
		"mapping", "compl", "late", "shed", "remaps", "jain", "stall", "fps")
	for _, row := range []struct {
		name string
		rep  *stream.Report
	}{{"static", s.Static}, {"remap", s.Remap}} {
		fmt.Fprintf(&b, "%-8s %6d %6d %6d %6d %8.4f %12v %10.1f\n",
			row.name, row.rep.Completed, row.rep.Late, row.rep.Shed, len(row.rep.Remaps),
			row.rep.Jain, time.Duration(row.rep.CreditStallNs), row.rep.ThroughputFPS)
	}
	for i := range s.Remap.Remaps {
		ev := &s.Remap.Remaps[i]
		fmt.Fprintf(&b, "\nremap %d: node %d degraded at %v; %d threads migrated, admission stalled %v\n",
			i, ev.Trigger, time.Duration(ev.AtNs), ev.Migrated, time.Duration(ev.StallNs))
	}
	verdict := "remapping did NOT improve late+shed"
	if s.Improved() {
		verdict = fmt.Sprintf("remapping cut late+shed from %d to %d",
			s.Static.Late+s.Static.Shed, s.Remap.Late+s.Remap.Shed)
	}
	fmt.Fprintf(&b, "\n%s\n", verdict)
	return b.String()
}

package stream

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/sim"
)

// Scenario is the authored form of a streaming run: an app/platform/mapping
// case plus the class mix, fault plan and remap policy. It is what
// sage stream reads from disk, what the experiments harness commits as
// goldens, and what a report embeds so a replay needs nothing else.
type Scenario struct {
	// App selects a generated benchmark: fft2d | cornerturn | stap.
	App string `json:"app"`
	// N is the benchmark matrix edge (default 64 — streaming scenarios run
	// many frames, so the per-frame size stays modest).
	N int `json:"n,omitempty"`
	// Threads is the worker-thread count per parallel function (default 4).
	Threads int `json:"threads,omitempty"`
	// Platform is a registry platform name (default CSPI).
	Platform string `json:"platform,omitempty"`
	// Nodes is the processor count (default 8).
	Nodes int `json:"nodes,omitempty"`
	// Mapping is the initial strategy: spread | stagger | roundrobin
	// (default spread). The remap controller may change it mid-run.
	Mapping string `json:"mapping,omitempty"`
	// Seed drives the arrival processes.
	Seed int64 `json:"seed,omitempty"`
	// BufferSlots is the per-transfer pipelining credit (default 2).
	BufferSlots int `json:"buffer_slots,omitempty"`
	// Classes is the client mix.
	Classes []Class `json:"classes"`
	// Faults is an optional fault-plan text (the sage check fault format).
	Faults string `json:"faults,omitempty"`
	// Remap, when non-nil, enables the remapping controller.
	Remap *RemapSpec `json:"remap,omitempty"`
}

// RemapSpec is the JSON form of RemapConfig (durations in milliseconds,
// zero fields take the controller defaults).
type RemapSpec struct {
	ControlIntervalMs float64 `json:"control_interval_ms,omitempty"`
	Window            int     `json:"window,omitempty"`
	StallFraction     float64 `json:"stall_fraction,omitempty"`
	MaxRemaps         int     `json:"max_remaps,omitempty"`
	SpeedPenalty      float64 `json:"speed_penalty,omitempty"`
	Population        int     `json:"population,omitempty"`
	Generations       int     `json:"generations,omitempty"`
	GASeed            int64   `json:"ga_seed,omitempty"`
	ReplanCostMs      float64 `json:"replan_cost_ms,omitempty"`
}

func (rs *RemapSpec) Config() *RemapConfig {
	return &RemapConfig{
		ControlInterval: sim.Duration(rs.ControlIntervalMs * float64(time.Millisecond)),
		Window:          rs.Window,
		StallFraction:   rs.StallFraction,
		MaxRemaps:       rs.MaxRemaps,
		SpeedPenalty:    rs.SpeedPenalty,
		Population:      rs.Population,
		Generations:     rs.Generations,
		GASeed:          rs.GASeed,
		ReplanCost:      sim.Duration(rs.ReplanCostMs * float64(time.Millisecond)),
	}
}

// ReadScenario parses a scenario from JSON.
func ReadScenario(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("stream: scenario: %w", err)
	}
	return &s, nil
}

// withDefaults returns a defaulted copy (the original is left as authored so
// report-embedded scenarios stay byte-stable).
func (s *Scenario) withDefaults() Scenario {
	out := *s
	if out.N == 0 {
		out.N = 64
	}
	if out.Threads == 0 {
		out.Threads = 4
	}
	if out.Platform == "" {
		out.Platform = "CSPI"
	}
	if out.Nodes == 0 {
		out.Nodes = 8
	}
	if out.Mapping == "" {
		out.Mapping = "spread"
	}
	return out
}

// Build compiles the scenario into a runnable Config: model construction,
// initial mapping, glue-code generation, fault-plan parsing. The returned
// Config has no Collector or Cancel wired; callers add those.
func (s *Scenario) Build() (Config, error) {
	d := s.withDefaults()
	var cfg Config
	var app *model.App
	var err error
	switch d.App {
	case "fft2d":
		app, err = apps.FFT2D(d.N, d.Threads)
	case "cornerturn":
		app, err = apps.CornerTurn(d.N, d.Threads)
	case "stap":
		app, err = apps.STAP(d.N, d.Threads)
	default:
		return cfg, fmt.Errorf("stream: unknown app %q (want fft2d, cornerturn or stap)", d.App)
	}
	if err != nil {
		return cfg, fmt.Errorf("stream: %s: %w", d.App, err)
	}
	pl, err := platforms.ByName(d.Platform)
	if err != nil {
		return cfg, fmt.Errorf("stream: %w", err)
	}
	var mapping *model.Mapping
	switch d.Mapping {
	case "spread":
		mapping, err = model.SpreadParallel(app, d.Nodes)
	case "stagger":
		mapping, err = model.StaggerParallel(app, d.Nodes)
	case "roundrobin":
		mapping = model.RoundRobin(app, d.Nodes)
	default:
		return cfg, fmt.Errorf("stream: unknown mapping %q (want spread, stagger or roundrobin)", d.Mapping)
	}
	if err != nil {
		return cfg, fmt.Errorf("stream: mapping: %w", err)
	}
	out, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: pl, NumNodes: d.Nodes})
	if err != nil {
		return cfg, fmt.Errorf("stream: gluegen: %w", err)
	}
	if len(d.Classes) == 0 {
		return cfg, fmt.Errorf("stream: scenario has no classes")
	}
	for i := range d.Classes {
		if err := d.Classes[i].Validate(); err != nil {
			return cfg, err
		}
	}
	var plan *fault.Plan
	if d.Faults != "" {
		plan, err = fault.ParsePlan(d.Faults)
		if err != nil {
			return cfg, fmt.Errorf("stream: faults: %w", err)
		}
		if err := plan.Validate(); err != nil {
			return cfg, fmt.Errorf("stream: faults: %w", err)
		}
		if err := plan.CheckNodes(d.Nodes); err != nil {
			return cfg, fmt.Errorf("stream: faults: %w", err)
		}
	}
	cfg = Config{
		Tables:      out.Tables,
		App:         app,
		Platform:    pl,
		Classes:     d.Classes,
		Seed:        d.Seed,
		BufferSlots: d.BufferSlots,
		Faults:      plan,
	}
	if d.Remap != nil {
		cfg.Remap = d.Remap.Config()
	}
	return cfg, nil
}

// Static returns a copy of the scenario with remapping disabled — the
// baseline cell of the remap-vs-static comparison.
func (s *Scenario) Static() *Scenario {
	out := *s
	out.Remap = nil
	return &out
}

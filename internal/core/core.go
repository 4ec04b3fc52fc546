// Package core implements the paper's primary contribution as one
// orchestrated pipeline: automatic source-code generation plus the run-time
// infrastructure that executes it. Build takes a validated application
// model, a thread-to-processor mapping and a platform, runs the Alter
// glue-code generator, verifies the resulting runtime tables, and returns a
// Program that can be executed any number of times on fresh simulated
// machines. The sage facade, the experiment harness and the CLI tools all
// go through this package.
package core

import (
	"fmt"

	"repro/internal/funclib"
	"repro/internal/gluegen"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/sagert"
	"repro/internal/viz"
)

// Program is generated glue code bound to its target platform: the
// executable artifact of Figure 1.0's pipeline.
//
// A Program is immutable after Build: the runtime tables, platform
// descriptor and glue listings are only ever read. Run creates a fresh
// simulated machine (its own sim.Kernel, nodes and MPI world) per call and
// shuts it down on exit, so a single Program may be executed from many
// goroutines concurrently — the parallel experiment engine relies on this.
// The packages underneath hold no mutable process-wide state either: the
// funclib and platforms registries are written only during init, and
// isspl's twiddle cache is lock-guarded.
type Program struct {
	Platform  machine.Platform
	NumNodes  int
	Artifacts *gluegen.Output
}

// Tables exposes the verified runtime tables.
func (p *Program) Tables() *gluegen.Tables { return p.Artifacts.Tables }

// Build validates the model against the function library and the mapping
// against the node count, then generates and verifies glue code with the
// standard Alter script. Build reads the model and writes only its own
// fresh artifacts (each call runs a private Alter interpreter), so distinct
// Build calls may run concurrently as long as they don't share a mutable
// *model.App.
func Build(app *model.App, mapping *model.Mapping, pl machine.Platform, nodes int) (*Program, error) {
	return build(app, mapping, pl, nodes, gluegen.Generate)
}

// BuildWithScript is Build with a custom Alter generator script.
func BuildWithScript(app *model.App, mapping *model.Mapping, pl machine.Platform, nodes int, script string) (*Program, error) {
	return build(app, mapping, pl, nodes, func(in gluegen.Input) (*gluegen.Output, error) {
		return gluegen.GenerateWith(in, script)
	})
}

func build(app *model.App, mapping *model.Mapping, pl machine.Platform, nodes int, generate func(gluegen.Input) (*gluegen.Output, error)) (*Program, error) {
	if app == nil {
		return nil, fmt.Errorf("core: nil application")
	}
	if mapping == nil {
		return nil, fmt.Errorf("core: nil mapping")
	}
	if err := funclib.ValidateApp(app); err != nil {
		return nil, err
	}
	out, err := generate(gluegen.Input{App: app, Mapping: mapping, Platform: pl, NumNodes: nodes})
	if err != nil {
		return nil, err
	}
	return &Program{Platform: pl, NumNodes: nodes, Artifacts: out}, nil
}

// Run executes the program on a fresh simulated machine.
func (p *Program) Run(opts sagert.Options) (*sagert.Result, error) {
	return sagert.Run(p.Artifacts.Tables, p.Platform, opts)
}

// RunTraced executes with every function probed and returns the Visualizer
// trace alongside the result.
func (p *Program) RunTraced(opts sagert.Options) (*sagert.Result, *viz.Trace, error) {
	trace, hook := viz.Collector()
	opts.ProbeAll = true
	opts.Trace = hook
	res, err := p.Run(opts)
	if err != nil {
		return nil, nil, err
	}
	return res, trace, nil
}

package experiments

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/atot"
	"repro/internal/platforms"
)

// Iteration counts of the experiments that do not follow the §3.3 protocol.
const (
	portabilityIterations = 5 // enough to compare outputs across platforms
	pipelineIterations    = 8 // fills the pipeline past its start-up
	realtimeIterations    = 8
)

// Experiment is one entry of the registry: the run behind
// `sage bench -experiment Name`, returning the block it prints.
type Experiment struct {
	Name string
	Run  func(Protocol) (string, error)
}

// Experiments lists every experiment with its one grid, at the paper's
// sizes, in the order `sage bench -experiment all` runs them. EXPERIMENTS.md
// shows each block verbatim.
var Experiments = []Experiment{
	{"table1", func(p Protocol) (string, error) {
		return block(RunTable1(Table1Config{Protocol: p}))
	}},
	{"twonode", func(p Protocol) (string, error) {
		t, err := RunTwoNode(platforms.CSPI(), 512, p)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s\ntwo-node configuration is the worst: %v (paper §3.4 observed the same)\n\n",
			t.Format(), t.WorstIsTwoNodes()), nil
	}},
	{"aggregate", func(p Protocol) (string, error) {
		return block(RunAggregate(Table1Config{Protocol: p}))
	}},
	{"crossvendor", func(p Protocol) (string, error) {
		return block(RunCrossVendor(1024, []int{2, 4, 8, 16}, p))
	}},
	{"portability", func(p Protocol) (string, error) {
		r, err := RunPortability(AppFFT2D, 512, 8, Protocol{Iterations: portabilityIterations, Parallelism: p.Parallelism})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s\nidentical output on every platform: %v\n\n", r.Format(), r.AllVerified()), nil
	}},
	{"genstudy", func(Protocol) (string, error) {
		var b strings.Builder
		for _, kind := range []AppKind{AppFFT2D, AppCornerTurn} {
			s, err := RunGenStudy(kind, platforms.CSPI(), 1024, 8)
			if err != nil {
				return "", err
			}
			b.WriteString(s.Format() + "\n")
		}
		return b.String() + "\n", nil
	}},
	{"pipeline", func(Protocol) (string, error) {
		return block(RunPipeline(AppFFT2D, platforms.CSPI(), 512, 8, pipelineIterations))
	}},
	{"mapping", func(Protocol) (string, error) {
		app, err := apps.STAP(256, 6)
		if err != nil {
			return "", err
		}
		return block(RunMappingStudy(app, platforms.CSPI(), 8, atot.GAConfig{Generations: 120, Seed: 1}))
	}},
	{"heterogeneous", func(Protocol) (string, error) {
		app, err := apps.STAP(128, 4)
		if err != nil {
			return "", err
		}
		return block(RunHeterogeneous(app, platforms.CSPI(), []float64{2, 2, 1, 1, 1, 1, 0.5, 0.5},
			atot.GAConfig{Generations: 60, Seed: 1}))
	}},
	{"realtime", func(Protocol) (string, error) {
		return block(RunRealTime(AppCornerTurn, platforms.CSPI(), 512, 8, realtimeIterations, []float64{0.7, 1.0, 1.3, 2.0}))
	}},
	{"scaling", func(p Protocol) (string, error) {
		var b strings.Builder
		for _, kind := range []AppKind{AppFFT2D, AppCornerTurn} {
			s, err := block(RunScaling(kind, platforms.CSPI(), 512, []int{2, 4, 8, 16}, p))
			if err != nil {
				return "", err
			}
			b.WriteString(s)
		}
		return b.String(), nil
	}},
	{"faultsweep", func(p Protocol) (string, error) {
		return block(RunFaultSweep(FaultSweepConfig{Protocol: p}))
	}},
}

// Lookup returns the registered experiment of that name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// block renders one result as its printed block: the table and a blank line.
func block(r interface{ Format() string }, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Format() + "\n", nil
}

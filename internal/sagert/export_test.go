package sagert

import (
	"repro/internal/gluegen"
	"repro/internal/machine"
	"repro/internal/sim"
)

// RunKernel is Run that also hands back the run's kernel. With eager set
// every node of the machine and every endpoint of its world is built before
// the threads spawn, as machine.New and mpi.NewWorld built them before nodes
// and endpoints came into being on first use: the oracle of lazy_test.go.
func RunKernel(tables *gluegen.Tables, pl machine.Platform, opts Options, eager bool) (*Result, *sim.Kernel, error) {
	var k *sim.Kernel
	res, err := run(tables, pl, opts, runHooks{setup: func(r *runner, kk *sim.Kernel) {
		k = kk
		if eager {
			buildEveryNode(r)
		}
	}})
	return res, k, err
}

// buildEveryNode builds every node of r's machine and every endpoint of its
// world, in id order.
func buildEveryNode(r *runner) {
	for i := range r.mach.NumNodes() {
		r.mach.Node(i)
		r.world.Attach(i, nil)
	}
}

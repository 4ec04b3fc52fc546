package sagert

import (
	"fmt"

	"repro/internal/funclib"
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

// RunInputs is Run that also hands back, per thread of the plan in its
// order, the blocks its input ports held in the run's first compute
// iteration: each thread's step is watched after every return, and a port's
// block is set from the end of its receives until the next iteration.
func RunInputs(tables *gluegen.Tables, pl machine.Platform, opts Options) (*Result, [][]*funclib.Block, error) {
	var ins [][]*funclib.Block
	res, err := run(tables, pl, opts, runHooks{spawn: func(r *runner, k *sim.Kernel) {
		ins = make([][]*funclib.Block, len(r.plan.Threads))
		for ti := range r.plan.Threads {
			t, tp := &thread{}, &r.plan.Threads[ti]
			ins[ti] = make([]*funclib.Block, len(tp.Ins))
			p := k.SpawnStep(fmt.Sprintf("%s.%s[%d]", r.plan.Tables.AppName, tp.Fn.Name, tp.Index), func(p *sim.Proc) bool {
				more := t.step(p)
				for pi := range tp.Ins {
					if b := t.inBlocks[tp.Ins[pi].Entry.Name]; t.iter == 0 && t.compute && b != nil {
						ins[ti][pi] = b
					}
				}
				return more
			})
			t.init(r, ti, r.world.Attach(tp.Node, p))
		}
	}})
	return res, ins, err
}

// Package conformance is the randomized end-to-end verification subsystem:
// it generates arbitrary valid SAGE applications (layered DAGs of function
// library ops with randomized matrix shapes, stripings, fan-in/fan-out and
// thread counts), pushes each through the full pipeline — model validation,
// mapping, Alter glue-code generation, runtime-table verification, execution
// on the simulated multicomputer — and differentially checks the numeric
// outputs against a sequential oracle that evaluates the same dataflow graph
// with no distribution at all. On top of the oracle agreement it checks
// metamorphic invariants (sequential vs pipelined, optimized buffers, traced
// vs untraced, faulted with forced delivery, node-permuted mappings,
// re-execution), and on any failure a greedy shrinker minimizes the
// application graph and writes a reproducer corpus file that `go test`
// replays forever. The paper's equivalence claim — generated glue code
// computes exactly what a hand-written implementation of the model computes —
// becomes a property over every expressible application instead of a check on
// two fixed benchmarks.
package conformance

import (
	"fmt"

	"repro/internal/funclib"
	"repro/internal/isspl"
	"repro/internal/model"
)

// Oracle evaluates the application as plain sequential Go: every function
// runs single-threaded on whole, replicated matrices, in topological order,
// for the given iteration number (iterations are independent: every library
// kind is stateless and the source generator is addressed by iteration). It
// returns one assembled matrix per sink function, keyed by function name —
// the semantic reference the distributed runtime must reproduce bit for bit.
func Oracle(app *model.App, iteration int) (map[string]*isspl.Matrix, error) {
	order, err := app.TopoOrder()
	if err != nil {
		return nil, err
	}
	producer := map[*model.Port]*model.Port{} // input port -> driving output port
	for _, arc := range app.Arcs {
		producer[arc.To] = arc.From
	}
	values := map[*model.Port]*funclib.Block{}
	outputs := map[string]*isspl.Matrix{}
	for _, f := range order {
		impl, err := funclib.Lookup(f.Kind)
		if err != nil {
			return nil, fmt.Errorf("conformance: oracle: %w", err)
		}
		// Blocks go in the kind's port order, whatever order the model lists
		// the ports in (ValidateFunction matches their names to the kind's).
		ins := make([]*funclib.Block, len(impl.In))
		for _, p := range f.Inputs {
			src, ok := values[producer[p]]
			if !ok {
				return nil, fmt.Errorf("conformance: oracle: input %s has no value", p.QualifiedName())
			}
			// Copy: library kinds treat inputs as read-only, but the same
			// producer value may fan out to several consumers.
			cp := funclib.NewBlock(src.Region)
			copy(cp.Data, src.Data)
			ins[funclib.Position(impl.In, p.Name)] = cp
		}
		outs := make([]*funclib.Block, len(impl.Out))
		for _, p := range f.Outputs {
			values[p] = funclib.NewBlock(model.Region{Rows: p.Type.Rows, Cols: p.Type.Cols})
			outs[funclib.Position(impl.Out, p.Name)] = values[p]
		}
		ctx := &funclib.Context{
			FuncName: f.Name, Params: f.Params, Thread: 0, Threads: 1, Iteration: iteration,
		}
		if f.Kind == "sink_matrix" {
			name := f.Name
			ctx.Sink = func(port string, b *funclib.Block) {
				m := isspl.NewMatrix(b.Region.Rows, b.Region.Cols)
				copy(m.Data, b.Data)
				outputs[name] = m
			}
		}
		if err := impl.Compute(ctx, ins, outs); err != nil {
			return nil, fmt.Errorf("conformance: oracle: %s: %w", f.Name, err)
		}
	}
	return outputs, nil
}

// SinkNames lists the app's sink_matrix functions in ID order.
func SinkNames(app *model.App) []string {
	var out []string
	for _, f := range app.Functions {
		if f.Kind == "sink_matrix" {
			out = append(out, f.Name)
		}
	}
	return out
}

package conformance

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/fault"
	"repro/internal/funclib"
	"repro/internal/isspl"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/sim"
)

// Case is one self-contained conformance scenario: a generated application,
// its mapping onto a platform, and the ingredients of the metamorphic
// variants (the fault plan for the forced-delivery run, the node permutation
// for the remapped run). A Case round-trips through the corpus text format,
// so failing cases can be committed as reproducers and replayed by tests.
type Case struct {
	Seed       int64
	Platform   string
	Nodes      int
	Iterations int
	App        *model.App
	Mapping    *model.Mapping
	// Perm is a permutation of node ids; the permuted variant runs the same
	// app with every thread's node renamed through it.
	Perm []int
	// Faults is the plan for the faulted variant (forced delivery guarantees
	// termination); nil skips that variant.
	Faults *fault.Plan
}

// Tasks returns the application's function count.
func (c *Case) Tasks() int { return len(c.App.Functions) }

// Arcs returns the application's arc count.
func (c *Case) Arcs() int { return len(c.App.Arcs) }

// GenConfig tunes the generator.
type GenConfig struct {
	// Quick bounds sizes and op counts for smoke runs (CI).
	Quick bool
}

// genValue is a data set flowing through the graph under construction: the
// output port that produces it. Values may be consumed any number of times
// (fan-out); values consumed zero times are terminated with sinks.
type genValue struct {
	port     *model.Port
	consumed bool
}

type generator struct {
	rng  *rand.Rand
	cfg  GenConfig
	app  *model.App
	vals []*genValue
	nfn  int
}

// dims returns a randomized matrix dimension: mostly small composites and
// powers of two, including the degenerate 1.
func (g *generator) dim() int {
	if g.cfg.Quick {
		return []int{1, 2, 4, 8}[g.rng.Intn(4)]
	}
	return []int{1, 2, 3, 4, 5, 6, 8, 12, 16}[g.rng.Intn(9)]
}

// typeFor interns a matrix type of the given shape in the app's dictionary.
func (g *generator) typeFor(rows, cols int) *model.DataType {
	name := fmt.Sprintf("m%dx%d", rows, cols)
	if t, ok := g.app.Types[name]; ok {
		return t
	}
	t, err := g.app.AddType(&model.DataType{Name: name, Rows: rows, Cols: cols, Elem: model.ElemComplex})
	if err != nil {
		panic(err) // shape >= 1x1 by construction
	}
	return t
}

// threadsFor picks a thread count legal for striping s over a rows x cols
// type (striped ports may not leave any thread an empty partition).
func (g *generator) threadsFor(s model.StripeKind, t *model.DataType) int {
	maxT := 4
	switch s {
	case model.ByRows:
		maxT = min(maxT, t.Rows)
	case model.ByCols:
		maxT = min(maxT, t.Cols)
	}
	return 1 + g.rng.Intn(maxT)
}

func (g *generator) anyStripe() model.StripeKind {
	return []model.StripeKind{model.ByRows, model.ByCols, model.Replicated}[g.rng.Intn(3)]
}

func (g *generator) rowStripe() model.StripeKind {
	return []model.StripeKind{model.ByRows, model.Replicated}[g.rng.Intn(2)]
}

func (g *generator) colStripe() model.StripeKind {
	return []model.StripeKind{model.ByCols, model.Replicated}[g.rng.Intn(2)]
}

// pick returns a random existing value (consumed or not — re-picking a
// consumed value is how fan-out arises).
func (g *generator) pick() *genValue { return g.vals[g.rng.Intn(len(g.vals))] }

// connect wires the value into the input port and marks it consumed.
func (g *generator) connect(v *genValue, f *model.Function, port string) {
	if _, err := g.app.Connect(v.port.Fn.Name, v.port.Name, f.Name, port); err != nil {
		panic(err) // ports exist by construction
	}
	v.consumed = true
}

// addSource appends a source_matrix with a random shape and striping.
func (g *generator) addSource() {
	t := g.typeFor(g.dim(), g.dim())
	s := g.anyStripe()
	f := g.app.AddFunction(&model.Function{
		Name: fmt.Sprintf("src%d", g.nfn), Kind: "source_matrix",
		Threads: g.threadsFor(s, t),
		Params:  map[string]any{"seed": 1 + g.rng.Intn(1000)},
	})
	g.nfn++
	p := f.AddOutput("out", t, s)
	g.vals = append(g.vals, &genValue{port: p})
}

// opKinds is the insertion menu; each entry reports whether it applies to a
// candidate input type and, when chosen, builds the function. The generator
// retries down a shuffled menu, and "identity" always applies, so insertion
// always succeeds.
var opKinds = []string{"identity", "scale", "mag2", "add2", "fft_rows", "fft_cols",
	"window_rows", "fir_rows", "fir_decimate_rows", "transpose_block"}

// addOp inserts one random operator consuming one or two existing values.
func (g *generator) addOp() {
	order := g.rng.Perm(len(opKinds))
	for _, oi := range order {
		kind := opKinds[oi]
		v := g.pick()
		t := v.port.Type
		name := fmt.Sprintf("f%d_%s", g.nfn, kind)
		var f *model.Function
		switch kind {
		case "identity", "scale", "mag2":
			s := g.anyStripe()
			f = g.app.AddFunction(&model.Function{Name: name, Kind: kind, Threads: g.threadsFor(s, t)})
			if kind == "scale" {
				f.Params = map[string]any{"factor": []float64{0.5, 1.5, 2, -1}[g.rng.Intn(4)]}
			}
			f.AddInput("in", t, s)
			f.AddOutput("out", t, s)
			g.connect(v, f, "in")
		case "add2":
			// Second operand must share the shape; the same value twice is
			// legal (two arcs from one output port into one function).
			var cands []*genValue
			for _, c := range g.vals {
				if c.port.Type.Rows == t.Rows && c.port.Type.Cols == t.Cols {
					cands = append(cands, c)
				}
			}
			b := cands[g.rng.Intn(len(cands))]
			s := g.anyStripe()
			f = g.app.AddFunction(&model.Function{Name: name, Kind: kind, Threads: g.threadsFor(s, t)})
			f.AddInput("a", t, s)
			f.AddInput("b", t, s)
			f.AddOutput("out", t, s)
			g.connect(v, f, "a")
			g.connect(b, f, "b")
		case "fft_rows":
			if !isspl.IsPow2(t.Cols) {
				continue
			}
			s := g.rowStripe()
			f = g.app.AddFunction(&model.Function{Name: name, Kind: kind, Threads: g.threadsFor(s, t)})
			f.AddInput("in", t, s)
			f.AddOutput("out", t, s)
			g.connect(v, f, "in")
		case "fft_cols":
			if !isspl.IsPow2(t.Rows) {
				continue
			}
			s := g.colStripe()
			f = g.app.AddFunction(&model.Function{Name: name, Kind: kind, Threads: g.threadsFor(s, t)})
			f.AddInput("in", t, s)
			f.AddOutput("out", t, s)
			g.connect(v, f, "in")
		case "window_rows":
			s := g.rowStripe()
			f = g.app.AddFunction(&model.Function{Name: name, Kind: kind, Threads: g.threadsFor(s, t),
				Params: map[string]any{"window": []string{"rect", "hann", "hamming", "blackman"}[g.rng.Intn(4)]}})
			f.AddInput("in", t, s)
			f.AddOutput("out", t, s)
			g.connect(v, f, "in")
		case "fir_rows":
			s := g.rowStripe()
			f = g.app.AddFunction(&model.Function{Name: name, Kind: kind, Threads: g.threadsFor(s, t),
				Params: map[string]any{"ntaps": 1 + g.rng.Intn(8)}})
			f.AddInput("in", t, s)
			f.AddOutput("out", t, s)
			g.connect(v, f, "in")
		case "fir_decimate_rows":
			var factors []int
			for _, fac := range []int{2, 4} {
				if t.Cols%fac == 0 && t.Cols/fac >= 1 {
					factors = append(factors, fac)
				}
			}
			if len(factors) == 0 {
				continue
			}
			fac := factors[g.rng.Intn(len(factors))]
			ot := g.typeFor(t.Rows, t.Cols/fac)
			s := g.rowStripe()
			f = g.app.AddFunction(&model.Function{Name: name, Kind: kind, Threads: g.threadsFor(s, t),
				Params: map[string]any{"ntaps": 1 + g.rng.Intn(8), "factor": fac}})
			f.AddInput("in", t, s)
			f.AddOutput("out", ot, s)
			g.connect(v, f, "in")
		case "transpose_block":
			if t.Rows != t.Cols {
				continue
			}
			f = g.app.AddFunction(&model.Function{Name: name, Kind: kind,
				Threads: g.threadsFor(model.ByCols, t)})
			f.AddInput("in", t, model.ByCols)
			f.AddOutput("out", t, model.ByRows)
			g.connect(v, f, "in")
		}
		g.nfn++
		g.vals = append(g.vals, &genValue{port: f.Outputs[0]})
		return
	}
}

// addSink terminates a value with a sink_matrix.
func (g *generator) addSink(v *genValue) {
	t := v.port.Type
	s := g.anyStripe()
	f := g.app.AddFunction(&model.Function{
		Name: fmt.Sprintf("sink%d", g.nfn), Kind: "sink_matrix",
		Threads: g.threadsFor(s, t),
	})
	g.nfn++
	f.AddInput("in", t, s)
	g.connect(v, f, "in")
}

// Generate builds the conformance case for a seed: a random layered DAG of
// library ops (1-2 sources, a chain of operators drawing inputs from any
// earlier value — re-use of a value is fan-out, add2 is fan-in — and a sink
// for every loose end), a random mapping onto a random vendor platform, a
// fault plan and a node permutation for the metamorphic variants. The same
// seed always yields the identical case.
func Generate(seed int64, cfg GenConfig) (*Case, error) {
	rng := rand.New(rand.NewSource(seed))
	g := &generator{rng: rng, cfg: cfg, app: model.NewApp(fmt.Sprintf("conform_%d", seed))}

	nSources := 1 + rng.Intn(2)
	for i := 0; i < nSources; i++ {
		g.addSource()
	}
	nOps := 1 + rng.Intn(8)
	if cfg.Quick {
		nOps = 1 + rng.Intn(5)
	}
	for i := 0; i < nOps; i++ {
		g.addOp()
	}
	// Every unconsumed value must terminate in a sink (model validation
	// demands every output be consumed)...
	for _, v := range g.vals {
		if !v.consumed {
			g.addSink(v)
		}
	}
	// ...and occasionally an extra sink taps an already-consumed value, so
	// fan-out to sinks is exercised too.
	if rng.Intn(4) == 0 {
		g.addSink(g.pick())
	}

	g.app.AssignIDs()
	if err := g.app.Validate(); err != nil {
		return nil, fmt.Errorf("conformance: seed %d generated an invalid model: %w", seed, err)
	}
	if err := funclib.ValidateApp(g.app); err != nil {
		return nil, fmt.Errorf("conformance: seed %d generated an invalid app: %w", seed, err)
	}

	maxNodes := 8
	if cfg.Quick {
		maxNodes = 4
	}
	nodes := 1 + rng.Intn(maxNodes)
	mapping := model.NewMapping()
	for _, f := range g.app.Functions {
		ns := make([]int, f.Threads)
		for i := range ns {
			ns[i] = rng.Intn(nodes)
		}
		mapping.Set(f.Name, ns...)
	}

	names := platforms.Names()
	c := &Case{
		Seed:       seed,
		Platform:   names[rng.Intn(len(names))],
		Nodes:      nodes,
		Iterations: 1 + rng.Intn(3),
		App:        g.app,
		Mapping:    mapping,
		Perm:       rng.Perm(nodes),
	}

	plan := &fault.Plan{
		Seed: int64(1 + rng.Intn(1<<20)),
		Drops: []fault.DropRule{{
			Link: fault.LinkSel{Src: fault.AllLinks, Dst: fault.AllLinks},
			Rate: []float64{0.1, 0.3}[rng.Intn(2)],
			Win:  fault.Window{From: 0, To: fault.Forever},
		}},
	}
	if nodes > 1 && rng.Intn(2) == 0 {
		from := sim.Time(0).Add(time.Duration(1+rng.Intn(5)) * 20 * time.Microsecond)
		plan.Stalls = []fault.StallRule{{
			Node: rng.Intn(nodes),
			Win:  fault.Window{From: from, To: from.Add(200 * time.Microsecond)},
		}}
	}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("conformance: seed %d generated an invalid fault plan: %w", seed, err)
	}
	c.Faults = plan
	return c, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

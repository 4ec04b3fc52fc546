// Package shelf implements the SAGE Designer's reuse shelves (§1.1: "All
// primitive and hierarchical blocks are stored on software and hardware
// shelves for later reuse"). A shelf catalogues parameterised builders of
// hierarchical (composite) blocks; instantiating an entry produces a
// model.Function with a Body subgraph that App.Flatten later expands into
// leaf functions. The built-in shelf carries the reusable stages the
// benchmark and example applications are assembled from.
package shelf

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/model"
)

// Params are the instantiation arguments of a shelf entry.
type Params map[string]any

// Int fetches an integer parameter with a default.
func (p Params) Int(key string, def int) int {
	if v, ok := p[key].(int); ok {
		return v
	}
	return def
}

// String fetches a string parameter with a default.
func (p Params) String(key, def string) string {
	if v, ok := p[key].(string); ok {
		return v
	}
	return def
}

// Builder constructs a composite block instance. name is the instance name;
// the builder registers any data types it needs on app.
type Builder func(app *model.App, name string, p Params) (*model.Function, error)

// Entry is a catalogued shelf item.
type Entry struct {
	Name    string
	Doc     string
	Builder Builder
}

// Shelf is a catalogue of reusable hierarchical blocks.
type Shelf struct {
	entries map[string]Entry
}

// New creates an empty shelf.
func New() *Shelf { return &Shelf{entries: map[string]Entry{}} }

// Register adds an entry, failing on duplicates.
func (s *Shelf) Register(e Entry) error {
	if e.Name == "" || e.Builder == nil {
		return fmt.Errorf("shelf: entry needs a name and a builder")
	}
	if _, dup := s.entries[e.Name]; dup {
		return fmt.Errorf("shelf: duplicate entry %q", e.Name)
	}
	s.entries[e.Name] = e
	return nil
}

// Names lists the catalogued entries in sorted order.
func (s *Shelf) Names() []string {
	return slices.Sorted(maps.Keys(s.entries))
}

// Doc returns an entry's documentation string.
func (s *Shelf) Doc(name string) (string, error) {
	e, ok := s.entries[name]
	if !ok {
		return "", fmt.Errorf("shelf: unknown entry %q", name)
	}
	return e.Doc, nil
}

// Instantiate builds entry name as a composite function called instanceName
// and adds it to app.
func (s *Shelf) Instantiate(app *model.App, name, instanceName string, p Params) (*model.Function, error) {
	e, ok := s.entries[name]
	if !ok {
		return nil, fmt.Errorf("shelf: unknown entry %q (have %v)", name, s.Names())
	}
	f, err := e.Builder(app, instanceName, p)
	if err != nil {
		return nil, fmt.Errorf("shelf: instantiating %q: %w", name, err)
	}
	app.AddFunction(f)
	return f, nil
}

// ensureType registers a square complex matrix type named for its edge,
// reusing an existing registration.
func ensureType(app *model.App, n int) (*model.DataType, error) {
	name := fmt.Sprintf("cpx%dx%d", n, n)
	if t, ok := app.Types[name]; ok {
		return t, nil
	}
	return app.AddType(&model.DataType{Name: name, Rows: n, Cols: n, Elem: model.ElemComplex})
}

// Builtin returns the stock shelf: the reusable stages of the paper's
// domain.
func Builtin() *Shelf {
	s := New()
	must := func(e Entry) {
		if err := s.Register(e); err != nil {
			panic(err)
		}
	}

	must(Entry{
		Name: "fft2d-stage",
		Doc:  "Composite 2D FFT: row FFTs followed by column FFTs (the inner arc is the corner turn). Params: n, threads.",
		Builder: func(app *model.App, name string, p Params) (*model.Function, error) {
			n := p.Int("n", 256)
			threads := p.Int("threads", 4)
			mt, err := ensureType(app, n)
			if err != nil {
				return nil, err
			}
			rows := &model.Function{Name: "rows", Kind: "fft_rows", Threads: threads}
			rin := rows.AddInput("in", mt, model.ByRows)
			rout := rows.AddOutput("out", mt, model.ByRows)
			cols := &model.Function{Name: "cols", Kind: "fft_cols", Threads: threads}
			cin := cols.AddInput("in", mt, model.ByCols)
			cout := cols.AddOutput("out", mt, model.ByCols)

			comp := &model.Function{Name: name, Threads: 1}
			bin := comp.AddInput("in", mt, model.ByRows)
			bout := comp.AddOutput("out", mt, model.ByCols)
			comp.Body = &model.Subgraph{
				Functions: []*model.Function{rows, cols},
				Arcs:      []*model.Arc{{From: rout, To: cin}},
				Bind:      map[*model.Port]*model.Port{bin: rin, bout: cout},
			}
			return comp, nil
		},
	})

	must(Entry{
		Name: "detect-chain",
		Doc:  "Composite detection chain: window rows, row FFT, power detect. Params: n, threads, window.",
		Builder: func(app *model.App, name string, p Params) (*model.Function, error) {
			n := p.Int("n", 256)
			threads := p.Int("threads", 4)
			window := p.String("window", "hann")
			mt, err := ensureType(app, n)
			if err != nil {
				return nil, err
			}
			win := &model.Function{Name: "win", Kind: "window_rows", Threads: threads,
				Params: map[string]any{"window": window}}
			win.AddInput("in", mt, model.ByRows)
			winOut := win.AddOutput("out", mt, model.ByRows)
			fft := &model.Function{Name: "fft", Kind: "fft_rows", Threads: threads}
			fftIn := fft.AddInput("in", mt, model.ByRows)
			fftOut := fft.AddOutput("out", mt, model.ByRows)
			det := &model.Function{Name: "det", Kind: "mag2", Threads: threads}
			detIn := det.AddInput("in", mt, model.ByRows)
			detOut := det.AddOutput("out", mt, model.ByRows)

			comp := &model.Function{Name: name, Threads: 1}
			bin := comp.AddInput("in", mt, model.ByRows)
			bout := comp.AddOutput("out", mt, model.ByRows)
			comp.Body = &model.Subgraph{
				Functions: []*model.Function{win, fft, det},
				Arcs: []*model.Arc{
					{From: winOut, To: fftIn},
					{From: fftOut, To: detIn},
				},
				Bind: map[*model.Port]*model.Port{bin: win.Inputs[0], bout: detOut},
			}
			return comp, nil
		},
	})

	must(Entry{
		Name: "corner-turn-stage",
		Doc:  "Composite distributed corner turn: identity ingest, redistribution arc, local transpose. Params: n, threads.",
		Builder: func(app *model.App, name string, p Params) (*model.Function, error) {
			n := p.Int("n", 256)
			threads := p.Int("threads", 4)
			mt, err := ensureType(app, n)
			if err != nil {
				return nil, err
			}
			ing := &model.Function{Name: "ingest", Kind: "identity", Threads: threads}
			iin := ing.AddInput("in", mt, model.ByRows)
			iout := ing.AddOutput("out", mt, model.ByRows)
			turn := &model.Function{Name: "turn", Kind: "transpose_block", Threads: threads}
			tin := turn.AddInput("in", mt, model.ByCols)
			tout := turn.AddOutput("out", mt, model.ByRows)

			comp := &model.Function{Name: name, Threads: 1}
			bin := comp.AddInput("in", mt, model.ByRows)
			bout := comp.AddOutput("out", mt, model.ByRows)
			comp.Body = &model.Subgraph{
				Functions: []*model.Function{ing, turn},
				Arcs:      []*model.Arc{{From: iout, To: tin}},
				Bind:      map[*model.Port]*model.Port{bin: iin, bout: tout},
			}
			return comp, nil
		},
	})

	return s
}

package gluegen

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/alter"
	"repro/internal/model"
)

// binding is one generator run's state — the model it reads and the two
// texts it writes — which the standard calls read from the Interp's Host.
type binding struct {
	input       Input
	table, glue strings.Builder
}

// NewInterp returns an interpreter over the standard calls, bound to input,
// and the two texts a run writes. Emitted table lines accumulate in table —
// (emit-format tpl args...) formats a line straight into it, as (emit
// (format tpl args...)) would write it; emitted glue listing lines in glue,
// where (emit-src-format tpl args...) does the same.
func NewInterp(input Input) (in *alter.Interp, table, glue *strings.Builder) {
	b := &binding{input: input}
	in = standardCalls.New()
	in.Host = b
	return in, &b.table, &b.glue
}

// standardCalls is Alter's base library plus the SAGE model-access
// "standard calls" (§2: "The language also includes a set of standard calls
// to access certain features in SAGE, such as setting or retrieving a
// property value from an object"). It is built once per process and shared
// by every generator run: a call reads the run it serves from the calling
// Interp's Host.
var standardCalls = alter.Stdlib().With(slices.Concat(modelCalls(), regionCalls(), emitCalls())...)

// call makes a standard call that reads its run's binding.
func call(name string, fn func(b *binding, args alter.List) (alter.Value, error)) *alter.Builtin {
	return &alter.Builtin{Name: name, Fn: func(in *alter.Interp, args alter.List) (alter.Value, error) {
		return fn(in.Host.(*binding), args)
	}}
}

// modelCalls traverse the model and read and set its properties.
func modelCalls() []*alter.Builtin {
	asFunction := func(v alter.Value) (*model.Function, error) {
		f, ok := v.(*model.Function)
		if !ok {
			return nil, fmt.Errorf("expected function object, got %s", alter.TypeName(v))
		}
		return f, nil
	}
	asPort := func(v alter.Value) (*model.Port, error) {
		p, ok := v.(*model.Port)
		if !ok {
			return nil, fmt.Errorf("expected port object, got %s", alter.TypeName(v))
		}
		return p, nil
	}
	asArc := func(v alter.Value) (*model.Arc, error) {
		a, ok := v.(*model.Arc)
		if !ok {
			return nil, fmt.Errorf("expected arc object, got %s", alter.TypeName(v))
		}
		return a, nil
	}
	fnAccessor := func(name string, get func(f *model.Function) (alter.Value, error)) *alter.Builtin {
		return &alter.Builtin{Name: name, Fn: func(_ *alter.Interp, args alter.List) (alter.Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("wants 1 argument")
			}
			f, err := asFunction(args[0])
			if err != nil {
				return nil, err
			}
			return get(f)
		}}
	}
	portAccessor := func(name string, get func(p *model.Port) (alter.Value, error)) *alter.Builtin {
		return &alter.Builtin{Name: name, Fn: func(_ *alter.Interp, args alter.List) (alter.Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("wants 1 argument")
			}
			p, err := asPort(args[0])
			if err != nil {
				return nil, err
			}
			return get(p)
		}}
	}
	arcAccessor := func(name string, get func(a *model.Arc) *model.Port) *alter.Builtin {
		return &alter.Builtin{Name: name, Fn: func(_ *alter.Interp, args alter.List) (alter.Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("wants 1 argument")
			}
			a, err := asArc(args[0])
			if err != nil {
				return nil, err
			}
			return get(a), nil
		}}
	}
	return []*alter.Builtin{
		// --- model roots ---------------------------------------------------
		call("app-name", func(b *binding, args alter.List) (alter.Value, error) {
			return b.input.App.Name, nil
		}),
		call("platform-name", func(b *binding, args alter.List) (alter.Value, error) {
			return b.input.Platform.Name, nil
		}),
		call("num-nodes", func(b *binding, args alter.List) (alter.Value, error) {
			return int64(b.input.NumNodes), nil
		}),
		call("functions", func(b *binding, args alter.List) (alter.Value, error) {
			out := make(alter.List, len(b.input.App.Functions))
			for i, f := range b.input.App.Functions {
				out[i] = f
			}
			return out, nil
		}),
		call("arcs", func(b *binding, args alter.List) (alter.Value, error) {
			out := make(alter.List, len(b.input.App.Arcs))
			for i, a := range b.input.App.Arcs {
				out[i] = a
			}
			return out, nil
		}),
		call("topo-order", func(b *binding, args alter.List) (alter.Value, error) {
			order, err := b.input.App.TopoOrder()
			if err != nil {
				return nil, err
			}
			out := make(alter.List, len(order))
			for i, f := range order {
				out[i] = int64(f.ID)
			}
			return out, nil
		}),

		// --- object accessors ----------------------------------------------
		fnAccessor("function-name", func(f *model.Function) (alter.Value, error) { return f.Name, nil }),
		fnAccessor("function-kind", func(f *model.Function) (alter.Value, error) { return f.Kind, nil }),
		fnAccessor("function-id", func(f *model.Function) (alter.Value, error) { return int64(f.ID), nil }),
		fnAccessor("function-threads", func(f *model.Function) (alter.Value, error) { return int64(f.Threads), nil }),
		fnAccessor("function-params", func(f *model.Function) (alter.Value, error) {
			return paramsToAlist(f.Params), nil
		}),
		fnAccessor("inputs", func(f *model.Function) (alter.Value, error) {
			out := make(alter.List, len(f.Inputs))
			for i, p := range f.Inputs {
				out[i] = p
			}
			return out, nil
		}),
		fnAccessor("outputs", func(f *model.Function) (alter.Value, error) {
			out := make(alter.List, len(f.Outputs))
			for i, p := range f.Outputs {
				out[i] = p
			}
			return out, nil
		}),
		portAccessor("port-name", func(p *model.Port) (alter.Value, error) { return p.Name, nil }),
		portAccessor("port-striping", func(p *model.Port) (alter.Value, error) { return string(p.Striping), nil }),
		portAccessor("port-rows", func(p *model.Port) (alter.Value, error) { return int64(p.Type.Rows), nil }),
		portAccessor("port-cols", func(p *model.Port) (alter.Value, error) { return int64(p.Type.Cols), nil }),
		portAccessor("port-elem-bytes", func(p *model.Port) (alter.Value, error) {
			b, err := p.Type.Elem.WireBytes()
			return int64(b), err
		}),
		portAccessor("port-fn", func(p *model.Port) (alter.Value, error) { return p.Fn, nil }),
		arcAccessor("arc-from", func(a *model.Arc) *model.Port { return a.From }),
		arcAccessor("arc-to", func(a *model.Arc) *model.Port { return a.To }),

		// --- properties (the paper's canonical standard calls) --------------
		{Name: "get-property", Fn: func(_ *alter.Interp, args alter.List) (alter.Value, error) {
			if len(args) != 3 {
				return nil, fmt.Errorf("wants (get-property obj key default)")
			}
			f, err := asFunction(args[0])
			if err != nil {
				return nil, err
			}
			key, err := alter.AsString(args[1])
			if err != nil {
				return nil, err
			}
			return goToAlter(f.Prop(key, alterToGo(args[2]))), nil
		}},
		{Name: "set-property", Fn: func(_ *alter.Interp, args alter.List) (alter.Value, error) {
			if len(args) != 3 {
				return nil, fmt.Errorf("wants (set-property obj key value)")
			}
			f, err := asFunction(args[0])
			if err != nil {
				return nil, err
			}
			key, err := alter.AsString(args[1])
			if err != nil {
				return nil, err
			}
			f.SetProp(key, alterToGo(args[2]))
			return args[2], nil
		}},

		// --- mapping ---------------------------------------------------------
		call("node-of", func(b *binding, args alter.List) (alter.Value, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("wants (node-of function thread)")
			}
			f, err := asFunction(args[0])
			if err != nil {
				return nil, err
			}
			i, err := alter.AsInt(args[1])
			if err != nil {
				return nil, err
			}
			n, err := b.input.Mapping.NodeOf(f.Name, int(i))
			if err != nil {
				return nil, err
			}
			return int64(n), nil
		}),
	}
}

// regionCalls are the striping math. A region is one alter.Region datum,
// which prints as (r0 c0 rows cols); the calls that take one also take that
// four-element list. alter.Region has model.Region's fields, so each
// converts to the other.
func regionCalls() []*alter.Builtin {
	return []*alter.Builtin{
		{Name: "partition", Fn: func(_ *alter.Interp, args alter.List) (alter.Value, error) {
			if len(args) != 5 {
				return nil, fmt.Errorf("wants (partition striping rows cols threads i)")
			}
			s, err := alter.AsString(args[0])
			if err != nil {
				return nil, err
			}
			var nums [4]int64
			for i := range nums {
				nums[i], err = alter.AsInt(args[i+1])
				if err != nil {
					return nil, err
				}
			}
			r, err := model.Partition(model.StripeKind(s), int(nums[0]), int(nums[1]), int(nums[2]), int(nums[3]))
			if err != nil {
				return nil, err
			}
			return alter.Region(r), nil
		}},
		{Name: "intersect", Fn: func(_ *alter.Interp, args alter.List) (alter.Value, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("wants (intersect r1 r2)")
			}
			r1, err := asRegion(args[0])
			if err != nil {
				return nil, err
			}
			r2, err := asRegion(args[1])
			if err != nil {
				return nil, err
			}
			out := r1.Intersect(r2)
			if out.Empty() {
				return nil, nil
			}
			return alter.Region(out), nil
		}},
		{Name: "region-elems", Fn: func(_ *alter.Interp, args alter.List) (alter.Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("wants (region-elems r)")
			}
			r, err := asRegion(args[0])
			if err != nil {
				return nil, err
			}
			return int64(r.Elems()), nil
		}},
	}
}

// emitCalls write the run's two output texts: (emit args...) and
// (emit-format template args...) a line of the table source, (emit-src
// args...) and (emit-src-format template args...) a line of the glue
// listing. The -format calls write (format template args...) straight into
// the text, with no string of its own.
func emitCalls() []*alter.Builtin {
	table := func(b *binding) *strings.Builder { return &b.table }
	glue := func(b *binding) *strings.Builder { return &b.glue }
	display := func(name string, text func(*binding) *strings.Builder) *alter.Builtin {
		return call(name, func(b *binding, args alter.List) (alter.Value, error) {
			w := text(b)
			for _, a := range args {
				alter.WriteDisplay(w, a)
			}
			w.WriteByte('\n')
			return nil, nil
		})
	}
	format := func(name string, text func(*binding) *strings.Builder) *alter.Builtin {
		return call(name, func(b *binding, args alter.List) (alter.Value, error) {
			w := text(b)
			if err := alter.FormatTo(w, args); err != nil {
				return nil, err
			}
			w.WriteByte('\n')
			return nil, nil
		})
	}
	return []*alter.Builtin{
		display("emit", table), format("emit-format", table),
		display("emit-src", glue), format("emit-src-format", glue),
	}
}

// asRegion reads a region: the datum, or the list (r0 c0 rows cols).
func asRegion(v alter.Value) (model.Region, error) {
	if r, ok := v.(alter.Region); ok {
		return model.Region(r), nil
	}
	l, err := alter.AsList(v)
	if err != nil || len(l) != 4 {
		return model.Region{}, fmt.Errorf("expected region (r0 c0 rows cols), got %s", alter.Format(v))
	}
	var nums [4]int
	for i, e := range l {
		n, err := alter.AsInt(e)
		if err != nil {
			return model.Region{}, err
		}
		nums[i] = int(n)
	}
	return model.Region{R0: nums[0], C0: nums[1], Rows: nums[2], Cols: nums[3]}, nil
}

// paramsToAlist renders a params map as a sorted association list.
func paramsToAlist(params map[string]any) alter.List {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make(alter.List, 0, len(keys))
	for _, k := range keys {
		out = append(out, alter.List{k, goToAlter(params[k])})
	}
	return out
}

// goToAlter converts a Go scalar to an Alter value.
func goToAlter(v any) alter.Value {
	switch x := v.(type) {
	case nil:
		return nil
	case int:
		return int64(x)
	case int64:
		return x
	case float64:
		return x
	case bool:
		return x
	case string:
		return x
	default:
		return fmt.Sprintf("%v", x)
	}
}

// alterToGo converts an Alter scalar to the Go form stored in model maps.
func alterToGo(v alter.Value) any {
	switch x := v.(type) {
	case int64:
		return int(x)
	case alter.Symbol:
		return string(x)
	default:
		return x
	}
}

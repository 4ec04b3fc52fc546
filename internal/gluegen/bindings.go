package gluegen

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/alter"
	"repro/internal/model"
)

// BindModel installs the SAGE model-access "standard calls" into an Alter
// interpreter (§2: "The language also includes a set of standard calls to
// access certain features in SAGE, such as setting or retrieving a property
// value from an object"). Emitted table lines accumulate in tableOut —
// (emit-format tpl args...) formats a line straight into it, as (emit
// (format tpl args...)) would write it; emitted glue listing lines in
// glueOut.
func BindModel(in *alter.Interp, input Input, tableOut, glueOut *strings.Builder) {
	env := in.Global
	app := input.App

	// --- model roots -----------------------------------------------------

	env.Register("app-name", func(args alter.List) (alter.Value, error) {
		return app.Name, nil
	})
	env.Register("platform-name", func(args alter.List) (alter.Value, error) {
		return input.Platform.Name, nil
	})
	env.Register("num-nodes", func(args alter.List) (alter.Value, error) {
		return int64(input.NumNodes), nil
	})
	env.Register("functions", func(args alter.List) (alter.Value, error) {
		out := make(alter.List, len(app.Functions))
		for i, f := range app.Functions {
			out[i] = f
		}
		return out, nil
	})
	env.Register("arcs", func(args alter.List) (alter.Value, error) {
		out := make(alter.List, len(app.Arcs))
		for i, a := range app.Arcs {
			out[i] = a
		}
		return out, nil
	})
	env.Register("topo-order", func(args alter.List) (alter.Value, error) {
		order, err := app.TopoOrder()
		if err != nil {
			return nil, err
		}
		out := make(alter.List, len(order))
		for i, f := range order {
			out[i] = int64(f.ID)
		}
		return out, nil
	})

	// --- object accessors ------------------------------------------------

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
	fnAccessor := func(name string, get func(f *model.Function) (alter.Value, error)) {
		env.Register(name, func(args alter.List) (alter.Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("wants 1 argument")
			}
			f, err := asFunction(args[0])
			if err != nil {
				return nil, err
			}
			return get(f)
		})
	}
	fnAccessor("function-name", func(f *model.Function) (alter.Value, error) { return f.Name, nil })
	fnAccessor("function-kind", func(f *model.Function) (alter.Value, error) { return f.Kind, nil })
	fnAccessor("function-id", func(f *model.Function) (alter.Value, error) { return int64(f.ID), nil })
	fnAccessor("function-threads", func(f *model.Function) (alter.Value, error) { return int64(f.Threads), nil })
	fnAccessor("function-params", func(f *model.Function) (alter.Value, error) {
		return paramsToAlist(f.Params), nil
	})
	fnAccessor("inputs", func(f *model.Function) (alter.Value, error) {
		out := make(alter.List, len(f.Inputs))
		for i, p := range f.Inputs {
			out[i] = p
		}
		return out, nil
	})
	fnAccessor("outputs", func(f *model.Function) (alter.Value, error) {
		out := make(alter.List, len(f.Outputs))
		for i, p := range f.Outputs {
			out[i] = p
		}
		return out, nil
	})

	portAccessor := func(name string, get func(p *model.Port) (alter.Value, error)) {
		env.Register(name, func(args alter.List) (alter.Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("wants 1 argument")
			}
			p, err := asPort(args[0])
			if err != nil {
				return nil, err
			}
			return get(p)
		})
	}
	portAccessor("port-name", func(p *model.Port) (alter.Value, error) { return p.Name, nil })
	portAccessor("port-striping", func(p *model.Port) (alter.Value, error) { return string(p.Striping), nil })
	portAccessor("port-rows", func(p *model.Port) (alter.Value, error) { return int64(p.Type.Rows), nil })
	portAccessor("port-cols", func(p *model.Port) (alter.Value, error) { return int64(p.Type.Cols), nil })
	portAccessor("port-elem-bytes", func(p *model.Port) (alter.Value, error) {
		b, err := p.Type.Elem.WireBytes()
		return int64(b), err
	})
	portAccessor("port-fn", func(p *model.Port) (alter.Value, error) { return p.Fn, nil })

	env.Register("arc-from", func(args alter.List) (alter.Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("wants 1 argument")
		}
		a, err := asArc(args[0])
		if err != nil {
			return nil, err
		}
		return a.From, nil
	})
	env.Register("arc-to", func(args alter.List) (alter.Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("wants 1 argument")
		}
		a, err := asArc(args[0])
		if err != nil {
			return nil, err
		}
		return a.To, nil
	})

	// --- properties (the paper's canonical standard calls) ----------------

	env.Register("get-property", func(args alter.List) (alter.Value, error) {
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
	})
	env.Register("set-property", func(args alter.List) (alter.Value, error) {
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
	})

	// --- mapping -----------------------------------------------------------

	env.Register("node-of", func(args alter.List) (alter.Value, error) {
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
		n, err := input.Mapping.NodeOf(f.Name, int(i))
		if err != nil {
			return nil, err
		}
		return int64(n), nil
	})

	// --- striping math -----------------------------------------------------

	env.Register("partition", func(args alter.List) (alter.Value, error) {
		if len(args) != 5 {
			return nil, fmt.Errorf("wants (partition striping rows cols threads i)")
		}
		s, err := alter.AsString(args[0])
		if err != nil {
			return nil, err
		}
		nums := make([]int64, 4)
		for i := 0; i < 4; i++ {
			nums[i], err = alter.AsInt(args[i+1])
			if err != nil {
				return nil, err
			}
		}
		r, err := model.Partition(model.StripeKind(s), int(nums[0]), int(nums[1]), int(nums[2]), int(nums[3]))
		if err != nil {
			return nil, err
		}
		return regionToList(r), nil
	})
	env.Register("intersect", func(args alter.List) (alter.Value, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("wants (intersect r1 r2)")
		}
		r1, err := listToRegion(args[0])
		if err != nil {
			return nil, err
		}
		r2, err := listToRegion(args[1])
		if err != nil {
			return nil, err
		}
		out := r1.Intersect(r2)
		if out.Empty() {
			return nil, nil
		}
		return regionToList(out), nil
	})
	env.Register("region-elems", func(args alter.List) (alter.Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("wants (region-elems r)")
		}
		r, err := listToRegion(args[0])
		if err != nil {
			return nil, err
		}
		return int64(r.Elems()), nil
	})

	// --- output streams -----------------------------------------------------

	env.Register("emit", func(args alter.List) (alter.Value, error) {
		for _, a := range args {
			alter.WriteDisplay(tableOut, a)
		}
		tableOut.WriteByte('\n')
		return nil, nil
	})
	env.Register("emit-format", func(args alter.List) (alter.Value, error) {
		if err := alter.FormatTo(tableOut, args); err != nil {
			return nil, err
		}
		tableOut.WriteByte('\n')
		return nil, nil
	})
	env.Register("emit-src", func(args alter.List) (alter.Value, error) {
		for _, a := range args {
			alter.WriteDisplay(glueOut, a)
		}
		glueOut.WriteByte('\n')
		return nil, nil
	})
}

// regionToList renders a region as (r0 c0 rows cols).
func regionToList(r model.Region) alter.List {
	return alter.List{int64(r.R0), int64(r.C0), int64(r.Rows), int64(r.Cols)}
}

// listToRegion parses (r0 c0 rows cols).
func listToRegion(v alter.Value) (model.Region, error) {
	l, err := alter.AsList(v)
	if err != nil || len(l) != 4 {
		return model.Region{}, fmt.Errorf("expected region (r0 c0 rows cols), got %s", alter.Format(v))
	}
	nums := make([]int, 4)
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

package alter

import (
	"fmt"
	"sort"
	"strings"
)

// newStdlib builds the base procedure library. Model-traversal standard
// calls are added by the embedding tool (Library.With).
func newStdlib() *Library {
	lib := &Library{vals: map[Symbol]Value{}}
	installArith(lib)
	installCompare(lib)
	installLists(lib)
	installStrings(lib)
	installPredicates(lib)
	for name, proc := range applicative {
		lib.add(name, func(in *Interp, args List) (Value, error) { return proc(in, args) })
	}
	return lib
}

// add binds a builtin while the library is being built, before any Interp
// shares it.
func (l *Library) add(name string, fn func(in *Interp, args List) (Value, error)) {
	l.vals[Symbol(name)] = &Builtin{Name: name, Fn: fn}
}

func wantArgs(args List, n int) error {
	if len(args) != n {
		return fmt.Errorf("wants %d arguments, got %d", n, len(args))
	}
	return nil
}

func wantAtLeast(args List, n int) error {
	if len(args) < n {
		return fmt.Errorf("wants at least %d arguments, got %d", n, len(args))
	}
	return nil
}

// numFold reduces numeric arguments, preserving int64 unless any float is
// involved.
func numFold(args List, intFn func(a, b int64) (int64, error), floatFn func(a, b float64) float64, unit int64, unary bool) (Value, error) {
	if len(args) == 0 {
		return unit, nil
	}
	allInt := true
	for _, a := range args {
		switch a.(type) {
		case int64:
		case float64:
			allInt = false
		default:
			return nil, fmt.Errorf("expected number, got %s", TypeName(a))
		}
	}
	if allInt {
		acc := args[0].(int64)
		if len(args) == 1 && unary {
			return intFn(unit, acc)
		}
		for _, a := range args[1:] {
			var err error
			acc, err = intFn(acc, a.(int64))
			if err != nil {
				return nil, err
			}
		}
		return acc, nil
	}
	acc, _ := AsFloat(args[0])
	if len(args) == 1 && unary {
		return floatFn(float64(unit), acc), nil
	}
	for _, a := range args[1:] {
		f, _ := AsFloat(a)
		acc = floatFn(acc, f)
	}
	return acc, nil
}

func installArith(lib *Library) {
	lib.add("+", func(_ *Interp, args List) (Value, error) {
		return numFold(args,
			func(a, b int64) (int64, error) { return a + b, nil },
			func(a, b float64) float64 { return a + b }, 0, false)
	})
	lib.add("-", func(_ *Interp, args List) (Value, error) {
		if err := wantAtLeast(args, 1); err != nil {
			return nil, err
		}
		return numFold(args,
			func(a, b int64) (int64, error) { return a - b, nil },
			func(a, b float64) float64 { return a - b }, 0, true)
	})
	lib.add("*", func(_ *Interp, args List) (Value, error) {
		return numFold(args,
			func(a, b int64) (int64, error) { return a * b, nil },
			func(a, b float64) float64 { return a * b }, 1, false)
	})
	lib.add("/", func(_ *Interp, args List) (Value, error) {
		if err := wantAtLeast(args, 2); err != nil {
			return nil, err
		}
		return numFold(args,
			func(a, b int64) (int64, error) {
				if b == 0 {
					return 0, fmt.Errorf("division by zero")
				}
				return a / b, nil
			},
			func(a, b float64) float64 { return a / b }, 1, false)
	})
	lib.add("mod", func(_ *Interp, args List) (Value, error) {
		if err := wantArgs(args, 2); err != nil {
			return nil, err
		}
		a, err := AsInt(args[0])
		if err != nil {
			return nil, err
		}
		b, err := AsInt(args[1])
		if err != nil {
			return nil, err
		}
		if b == 0 {
			return nil, fmt.Errorf("division by zero")
		}
		return a % b, nil
	})
	lib.add("abs", func(_ *Interp, args List) (Value, error) {
		if err := wantArgs(args, 1); err != nil {
			return nil, err
		}
		switch x := args[0].(type) {
		case int64:
			if x < 0 {
				return -x, nil
			}
			return x, nil
		case float64:
			if x < 0 {
				return -x, nil
			}
			return x, nil
		default:
			return nil, fmt.Errorf("expected number, got %s", TypeName(args[0]))
		}
	})
	lib.add("even?", func(_ *Interp, args List) (Value, error) {
		if err := wantArgs(args, 1); err != nil {
			return nil, err
		}
		n, err := AsInt(args[0])
		if err != nil {
			return nil, err
		}
		return n%2 == 0, nil
	})
	lib.add("odd?", func(_ *Interp, args List) (Value, error) {
		if err := wantArgs(args, 1); err != nil {
			return nil, err
		}
		n, err := AsInt(args[0])
		if err != nil {
			return nil, err
		}
		return n%2 != 0, nil
	})
	lib.add("min", func(_ *Interp, args List) (Value, error) {
		if err := wantAtLeast(args, 1); err != nil {
			return nil, err
		}
		return numFold(args,
			func(a, b int64) (int64, error) {
				if b < a {
					return b, nil
				}
				return a, nil
			},
			func(a, b float64) float64 {
				if b < a {
					return b
				}
				return a
			}, 0, false)
	})
	lib.add("max", func(_ *Interp, args List) (Value, error) {
		if err := wantAtLeast(args, 1); err != nil {
			return nil, err
		}
		return numFold(args,
			func(a, b int64) (int64, error) {
				if b > a {
					return b, nil
				}
				return a, nil
			},
			func(a, b float64) float64 {
				if b > a {
					return b
				}
				return a
			}, 0, false)
	})
}

func installCompare(lib *Library) {
	cmp := func(name string, ok func(c int) bool) {
		lib.add(name, func(_ *Interp, args List) (Value, error) {
			if err := wantAtLeast(args, 2); err != nil {
				return nil, err
			}
			for i := 0; i+1 < len(args); i++ {
				a, err := AsFloat(args[i])
				if err != nil {
					return nil, err
				}
				b, err := AsFloat(args[i+1])
				if err != nil {
					return nil, err
				}
				c := 0
				if a < b {
					c = -1
				} else if a > b {
					c = 1
				}
				if !ok(c) {
					return false, nil
				}
			}
			return true, nil
		})
	}
	cmp("<", func(c int) bool { return c < 0 })
	cmp(">", func(c int) bool { return c > 0 })
	cmp("<=", func(c int) bool { return c <= 0 })
	cmp(">=", func(c int) bool { return c >= 0 })
	cmp("=", func(c int) bool { return c == 0 })
	lib.add("equal?", func(_ *Interp, args List) (Value, error) {
		if err := wantArgs(args, 2); err != nil {
			return nil, err
		}
		return Equal(args[0], args[1]), nil
	})
	lib.add("not", func(_ *Interp, args List) (Value, error) {
		if err := wantArgs(args, 1); err != nil {
			return nil, err
		}
		return !Truthy(args[0]), nil
	})
}

func installLists(lib *Library) {
	lib.add("list", func(_ *Interp, args List) (Value, error) {
		out := make(List, len(args))
		copy(out, args)
		return out, nil
	})
	lib.add("cons", func(_ *Interp, args List) (Value, error) {
		if err := wantArgs(args, 2); err != nil {
			return nil, err
		}
		tail, err := AsList(args[1])
		if err != nil {
			return nil, err
		}
		out := make(List, 0, len(tail)+1)
		out = append(out, args[0])
		return append(out, tail...), nil
	})
	lib.add("first", func(_ *Interp, args List) (Value, error) {
		if err := wantArgs(args, 1); err != nil {
			return nil, err
		}
		l, err := AsList(args[0])
		if err != nil {
			return nil, err
		}
		if len(l) == 0 {
			return nil, nil
		}
		return l[0], nil
	})
	lib.add("rest", func(_ *Interp, args List) (Value, error) {
		if err := wantArgs(args, 1); err != nil {
			return nil, err
		}
		l, err := AsList(args[0])
		if err != nil {
			return nil, err
		}
		if len(l) == 0 {
			return List{}, nil
		}
		out := make(List, len(l)-1)
		copy(out, l[1:])
		return out, nil
	})
	lib.add("nth", func(_ *Interp, args List) (Value, error) {
		if err := wantArgs(args, 2); err != nil {
			return nil, err
		}
		l, err := AsList(args[0])
		if err != nil {
			return nil, err
		}
		i, err := AsInt(args[1])
		if err != nil {
			return nil, err
		}
		if i < 0 || int(i) >= len(l) {
			return nil, fmt.Errorf("index %d out of range for list of %d", i, len(l))
		}
		return l[i], nil
	})
	lib.add("length", func(_ *Interp, args List) (Value, error) {
		if err := wantArgs(args, 1); err != nil {
			return nil, err
		}
		switch x := args[0].(type) {
		case nil:
			return int64(0), nil
		case List:
			return int64(len(x)), nil
		case string:
			return int64(len(x)), nil
		default:
			return nil, fmt.Errorf("expected list or string, got %s", TypeName(args[0]))
		}
	})
	lib.add("append", func(_ *Interp, args List) (Value, error) {
		var out List
		for _, a := range args {
			l, err := AsList(a)
			if err != nil {
				return nil, err
			}
			out = append(out, l...)
		}
		return out, nil
	})
	lib.add("reverse", func(_ *Interp, args List) (Value, error) {
		if err := wantArgs(args, 1); err != nil {
			return nil, err
		}
		l, err := AsList(args[0])
		if err != nil {
			return nil, err
		}
		out := make(List, len(l))
		for i, v := range l {
			out[len(l)-1-i] = v
		}
		return out, nil
	})
	lib.add("range", func(_ *Interp, args List) (Value, error) {
		// (range n) -> (0 .. n-1); (range a b) -> (a .. b-1).
		if len(args) != 1 && len(args) != 2 {
			return nil, fmt.Errorf("wants 1 or 2 arguments, got %d", len(args))
		}
		var lo, hi int64
		var err error
		if len(args) == 1 {
			hi, err = AsInt(args[0])
		} else {
			lo, err = AsInt(args[0])
			if err == nil {
				hi, err = AsInt(args[1])
			}
		}
		if err != nil {
			return nil, err
		}
		if hi < lo {
			return List{}, nil
		}
		out := make(List, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
		return out, nil
	})
	lib.add("assoc", func(_ *Interp, args List) (Value, error) {
		// (assoc key alist) -> matching (key value) pair or nil.
		if err := wantArgs(args, 2); err != nil {
			return nil, err
		}
		alist, err := AsList(args[1])
		if err != nil {
			return nil, err
		}
		for _, entry := range alist {
			pair, ok := entry.(List)
			if !ok || len(pair) < 1 {
				continue
			}
			if Equal(pair[0], args[0]) {
				return pair, nil
			}
		}
		return nil, nil
	})
}

func installStrings(lib *Library) {
	lib.add("string-append", func(_ *Interp, args List) (Value, error) {
		var b strings.Builder
		for _, a := range args {
			writeValue(&b, a, false)
		}
		return b.String(), nil
	})
	lib.add("format", func(_ *Interp, args List) (Value, error) {
		var b strings.Builder
		if err := FormatTo(&b, args); err != nil {
			return nil, err
		}
		return b.String(), nil
	})
	lib.add("symbol->string", func(_ *Interp, args List) (Value, error) {
		if err := wantArgs(args, 1); err != nil {
			return nil, err
		}
		s, err := AsSymbol(args[0])
		if err != nil {
			return nil, err
		}
		return string(s), nil
	})
	lib.add("string->symbol", func(_ *Interp, args List) (Value, error) {
		if err := wantArgs(args, 1); err != nil {
			return nil, err
		}
		s, err := AsString(args[0])
		if err != nil {
			return nil, err
		}
		return Symbol(s), nil
	})
	lib.add("string-upcase", func(_ *Interp, args List) (Value, error) {
		if err := wantArgs(args, 1); err != nil {
			return nil, err
		}
		s, err := AsString(args[0])
		if err != nil {
			return nil, err
		}
		return strings.ToUpper(s), nil
	})
	lib.add("string-split", func(_ *Interp, args List) (Value, error) {
		if err := wantArgs(args, 2); err != nil {
			return nil, err
		}
		s, err := AsString(args[0])
		if err != nil {
			return nil, err
		}
		sep, err := AsString(args[1])
		if err != nil {
			return nil, err
		}
		parts := strings.Split(s, sep)
		out := make(List, len(parts))
		for i, p := range parts {
			out[i] = p
		}
		return out, nil
	})
	lib.add("string-contains?", func(_ *Interp, args List) (Value, error) {
		if err := wantArgs(args, 2); err != nil {
			return nil, err
		}
		s, err := AsString(args[0])
		if err != nil {
			return nil, err
		}
		sub, err := AsString(args[1])
		if err != nil {
			return nil, err
		}
		return strings.Contains(s, sub), nil
	})
	lib.add("number->string", func(_ *Interp, args List) (Value, error) {
		if err := wantArgs(args, 1); err != nil {
			return nil, err
		}
		if _, ok := numeric(args[0]); !ok {
			return nil, fmt.Errorf("expected number, got %s", TypeName(args[0]))
		}
		return Display(args[0]), nil
	})
	lib.add("string->number", func(_ *Interp, args List) (Value, error) {
		if err := wantArgs(args, 1); err != nil {
			return nil, err
		}
		s, err := AsString(args[0])
		if err != nil {
			return nil, err
		}
		v, err := ReadOne(s)
		if err != nil {
			return nil, err
		}
		if _, ok := numeric(v); !ok {
			return nil, fmt.Errorf("%q is not a number", s)
		}
		return v, nil
	})
	lib.add("string-join", func(_ *Interp, args List) (Value, error) {
		if err := wantArgs(args, 2); err != nil {
			return nil, err
		}
		l, err := AsList(args[0])
		if err != nil {
			return nil, err
		}
		sep, err := AsString(args[1])
		if err != nil {
			return nil, err
		}
		parts := make([]string, len(l))
		for i, v := range l {
			parts[i] = Display(v)
		}
		return strings.Join(parts, sep), nil
	})
}

func installPredicates(lib *Library) {
	pred := func(name string, f func(v Value) bool) {
		lib.add(name, func(_ *Interp, args List) (Value, error) {
			if err := wantArgs(args, 1); err != nil {
				return nil, err
			}
			return f(args[0]), nil
		})
	}
	pred("null?", func(v Value) bool {
		if v == nil {
			return true
		}
		l, ok := v.(List)
		return ok && len(l) == 0
	})
	pred("list?", func(v Value) bool {
		_, ok := v.(List)
		return ok || v == nil
	})
	pred("number?", func(v Value) bool {
		_, ok := numeric(v)
		return ok
	})
	pred("string?", func(v Value) bool { _, ok := v.(string); return ok })
	pred("symbol?", func(v Value) bool { _, ok := v.(Symbol); return ok })
	pred("procedure?", func(v Value) bool {
		switch v.(type) {
		case *Lambda, *Builtin:
			return true
		}
		return false
	})
}

// applier applies procedures: the Interp calling a procedure-applying
// builtin, or the reference evaluator the tests hold the Interp to.
type applier interface {
	Apply(callee Value, args List) (Value, error)
	// argList returns a list of n nil slots to pass arguments in. An
	// Interp's are on its stack, above the builtin's own arguments, and go
	// when the builtin returns.
	argList(n int) List
}

// applicative holds the procedures that apply procedures — apply, map,
// filter, for-each, fold, sort-by — over whatever applier calls them. Each
// call reuses one argument list from the applier for every element it
// applies the procedure to: Apply's callee may not keep it (see Builtin).
// None of them keeps the procedure once it returns, which is what lets a
// lambda written as its argument be lent (see lendingCall).
var applicative = map[string]func(ap applier, args List) (Value, error){
	"apply": func(ap applier, args List) (Value, error) {
		if err := wantArgs(args, 2); err != nil {
			return nil, err
		}
		l, err := AsList(args[1])
		if err != nil {
			return nil, err
		}
		return ap.Apply(args[0], l)
	},
	"map": func(ap applier, args List) (Value, error) {
		if err := wantArgs(args, 2); err != nil {
			return nil, err
		}
		l, err := AsList(args[1])
		if err != nil {
			return nil, err
		}
		fn, arg := args[0], ap.argList(1)
		out := make(List, len(l))
		for i, v := range l {
			arg[0] = v
			out[i], err = ap.Apply(fn, arg)
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	},
	"filter": func(ap applier, args List) (Value, error) {
		if err := wantArgs(args, 2); err != nil {
			return nil, err
		}
		l, err := AsList(args[1])
		if err != nil {
			return nil, err
		}
		fn, arg := args[0], ap.argList(1)
		var out List
		for _, v := range l {
			arg[0] = v
			keep, err := ap.Apply(fn, arg)
			if err != nil {
				return nil, err
			}
			if Truthy(keep) {
				out = append(out, v)
			}
		}
		return out, nil
	},
	"for-each": func(ap applier, args List) (Value, error) {
		if err := wantArgs(args, 2); err != nil {
			return nil, err
		}
		l, err := AsList(args[1])
		if err != nil {
			return nil, err
		}
		fn, arg := args[0], ap.argList(1)
		for _, v := range l {
			arg[0] = v
			if _, err := ap.Apply(fn, arg); err != nil {
				return nil, err
			}
		}
		return nil, nil
	},
	"fold": func(ap applier, args List) (Value, error) {
		// (fold fn init list)
		if err := wantArgs(args, 3); err != nil {
			return nil, err
		}
		l, err := AsList(args[2])
		if err != nil {
			return nil, err
		}
		fn, arg := args[0], ap.argList(2)
		acc := args[1]
		for _, v := range l {
			arg[0], arg[1] = acc, v
			acc, err = ap.Apply(fn, arg)
			if err != nil {
				return nil, err
			}
		}
		return acc, nil
	},
	"sort-by": func(ap applier, args List) (Value, error) {
		// (sort-by key-fn list): stable sort by numeric or string key.
		if err := wantArgs(args, 2); err != nil {
			return nil, err
		}
		l, err := AsList(args[1])
		if err != nil {
			return nil, err
		}
		fn, arg := args[0], ap.argList(1)
		keys := make([]Value, len(l))
		for i, v := range l {
			arg[0] = v
			keys[i], err = ap.Apply(fn, arg)
			if err != nil {
				return nil, err
			}
		}
		idx := make([]int, len(l))
		for i := range idx {
			idx[i] = i
		}
		var sortErr error
		sort.SliceStable(idx, func(a, b int) bool {
			ka, kb := keys[idx[a]], keys[idx[b]]
			if fa, ok := numeric(ka); ok {
				fb, ok := numeric(kb)
				if !ok {
					sortErr = fmt.Errorf("mixed sort keys")
					return false
				}
				return fa < fb
			}
			sa, aok := ka.(string)
			sb, bok := kb.(string)
			if !aok || !bok {
				sortErr = fmt.Errorf("sort keys must be numbers or strings")
				return false
			}
			return sa < sb
		})
		if sortErr != nil {
			return nil, sortErr
		}
		out := make(List, len(l))
		for i, j := range idx {
			out[i] = l[j]
		}
		return out, nil
	},
}

// FormatTo is (format "template" args...) writing into b instead of
// returning a string — ~a inserts display form, ~s write form, ~~ a literal
// tilde, ~% a newline — so an output stream formats straight into its text.
// It is the one directive loop: the format builtin is FormatTo into a fresh
// builder. When the template does not fit in b's spare capacity, b grows by
// doubling, with room for the line; a b sized for its whole text is not
// grown for a reservation its last lines do not need. An error can leave the
// text partly written.
func FormatTo(b *strings.Builder, args List) error {
	if err := wantAtLeast(args, 1); err != nil {
		return err
	}
	tpl, err := AsString(args[0])
	if err != nil {
		return err
	}
	if b.Cap()-b.Len() < len(tpl) {
		b.Grow(len(tpl) + 8*len(args))
	}
	argi := 1
	for i := 0; i < len(tpl); i++ {
		c := tpl[i]
		if c != '~' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(tpl) {
			return fmt.Errorf("dangling ~ in format template")
		}
		switch tpl[i] {
		case 'a', 'A', 's', 'S':
			if argi >= len(args) {
				return fmt.Errorf("not enough arguments for format template %q", tpl)
			}
			writeValue(b, args[argi], tpl[i] == 's' || tpl[i] == 'S')
			argi++
		case '~':
			b.WriteByte('~')
		case '%':
			b.WriteByte('\n')
		default:
			return fmt.Errorf("unknown format directive ~%c", tpl[i])
		}
	}
	return nil
}

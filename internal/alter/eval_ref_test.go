package alter

import "fmt"

// The reference semantics of Alter: the tree-walking evaluator the compiler
// in compile.go replaced, kept as it was — Eval dispatching on the form each
// time it is reached, environments as chains of name-keyed maps — so the
// compiled evaluator can be held to it (eval_match_test.go). It shares the
// reader, the value types and every builtin with the real interpreter; only
// evaluation, application and the special forms are its own.

// RefInterp is a reference interpreter.
type RefInterp struct {
	// base is the Interp the reference was made from: its builtins are
	// called with it, so a host's builtins find their Host.
	base     *Interp
	global   *refEnv
	MaxDepth int
	MaxSteps int
	depth    int
	steps    int
	// closures holds what the reference knows about each Lambda it made.
	// The values are ordinary *Lambda, so builtins, Format and TypeName
	// treat them as they treat compiled ones.
	closures map[*Lambda]*refClosure
}

type refClosure struct {
	params []Symbol
	rest   Symbol // variadic tail parameter, "" if none
	body   List
	env    *refEnv
}

// NewReference creates a reference interpreter whose globals are everything
// bound in base — its library and whatever the host defined — with the
// procedure-applying builtins rebound to the reference's Apply.
func NewReference(base *Interp) *RefInterp {
	in := &RefInterp{base: base, global: newRefEnv(nil), MaxDepth: base.MaxDepth, MaxSteps: base.MaxSteps,
		closures: map[*Lambda]*refClosure{}}
	for name, v := range base.lib.vals {
		in.global.Define(name, v)
	}
	base.index()
	for name, cell := range base.own {
		if !isUnbound(*cell) {
			in.global.Define(name, *cell)
		}
	}
	for name, proc := range applicative {
		in.global.Define(Symbol(name), &Builtin{Name: name, Fn: func(_ *Interp, args List) (Value, error) {
			return proc(in, args)
		}})
	}
	return in
}

// refEnv is a lexical environment frame.
type refEnv struct {
	vars   map[Symbol]Value
	parent *refEnv
}

// newRefEnv creates a child of parent (parent may be nil for a root frame).
func newRefEnv(parent *refEnv) *refEnv {
	return &refEnv{vars: map[Symbol]Value{}, parent: parent}
}

// Lookup resolves a symbol through the frame chain.
func (e *refEnv) Lookup(s Symbol) (Value, bool) {
	for f := e; f != nil; f = f.parent {
		if v, ok := f.vars[s]; ok {
			return v, true
		}
	}
	return nil, false
}

// Define binds a symbol in this frame.
func (e *refEnv) Define(s Symbol, v Value) { e.vars[s] = v }

// Set assigns the nearest existing binding, failing if none exists.
func (e *refEnv) Set(s Symbol, v Value) error {
	for f := e; f != nil; f = f.parent {
		if _, ok := f.vars[s]; ok {
			f.vars[s] = v
			return nil
		}
	}
	return fmt.Errorf("alter: set! of undefined variable %s", s)
}

// RunString reads and evaluates every form in src, returning the last value.
func (in *RefInterp) RunString(src string) (Value, error) {
	forms, err := ReadAll(src)
	if err != nil {
		return nil, err
	}
	var last Value
	for _, f := range forms {
		last, err = in.Eval(f, in.global)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

// Eval evaluates one expression in env.
func (in *RefInterp) Eval(expr Value, env *refEnv) (Value, error) {
	in.steps++
	if in.MaxSteps > 0 && in.steps > in.MaxSteps {
		return nil, fmt.Errorf("alter: step limit %d exceeded", in.MaxSteps)
	}
	switch x := expr.(type) {
	case Symbol:
		v, ok := env.Lookup(x)
		if !ok {
			return nil, fmt.Errorf("alter: undefined variable %s", x)
		}
		return v, nil
	case List:
		if len(x) == 0 {
			return List{}, nil
		}
		if head, ok := x[0].(Symbol); ok {
			if fn, special := refSpecialForms[head]; special {
				return fn(in, x, env)
			}
		}
		return in.evalCall(x, env)
	default:
		// Self-evaluating: numbers, strings, booleans, nil, procedures,
		// host objects.
		return expr, nil
	}
}

func (in *RefInterp) evalCall(form List, env *refEnv) (Value, error) {
	callee, err := in.Eval(form[0], env)
	if err != nil {
		return nil, err
	}
	args := make(List, len(form)-1)
	for i, a := range form[1:] {
		args[i], err = in.Eval(a, env)
		if err != nil {
			return nil, err
		}
	}
	return in.Apply(callee, args)
}

// argList is a fresh list: the reference keeps no argument stack.
func (in *RefInterp) argList(n int) List { return make(List, n) }

// Apply invokes a procedure value on already-evaluated arguments.
func (in *RefInterp) Apply(callee Value, args List) (Value, error) {
	in.depth++
	defer func() { in.depth-- }()
	if in.depth > in.MaxDepth {
		return nil, errTooDeep
	}
	switch f := callee.(type) {
	case *Builtin:
		v, err := f.Fn(in.base, args)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.Name, err)
		}
		return v, nil
	case *Lambda:
		c := in.closures[f]
		if c.rest == "" && len(args) != len(c.params) {
			return nil, fmt.Errorf("alter: %s wants %d arguments, got %d", lambdaName(f), len(c.params), len(args))
		}
		if c.rest != "" && len(args) < len(c.params) {
			return nil, fmt.Errorf("alter: %s wants at least %d arguments, got %d", lambdaName(f), len(c.params), len(args))
		}
		frame := newRefEnv(c.env)
		for i, p := range c.params {
			frame.Define(p, args[i])
		}
		if c.rest != "" {
			rest := make(List, len(args)-len(c.params))
			copy(rest, args[len(c.params):])
			frame.Define(c.rest, rest)
		}
		var out Value
		for _, b := range c.body {
			var err error
			out, err = in.Eval(b, frame)
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("alter: cannot call %s", TypeName(callee))
	}
}

// refSpecialForms dispatches syntax that controls evaluation. It is populated
// in init to break the initialisation cycle between the table and Eval.
var refSpecialForms map[Symbol]func(in *RefInterp, form List, env *refEnv) (Value, error)

func init() {
	refSpecialForms = map[Symbol]func(in *RefInterp, form List, env *refEnv) (Value, error){
		"quote":  sfQuote,
		"if":     sfIf,
		"cond":   sfCond,
		"define": sfDefine,
		"set!":   sfSet,
		"lambda": sfLambda,
		"let":    sfLet,
		"let*":   sfLetStar,
		"begin":  sfBegin,
		"while":  sfWhile,
		"and":    sfAnd,
		"or":     sfOr,
		"when":   sfWhen,
		"unless": sfUnless,
	}
}

func sfQuote(in *RefInterp, form List, env *refEnv) (Value, error) {
	if len(form) != 2 {
		return nil, fmt.Errorf("alter: quote wants 1 argument")
	}
	return form[1], nil
}

func sfIf(in *RefInterp, form List, env *refEnv) (Value, error) {
	if len(form) < 3 || len(form) > 4 {
		return nil, fmt.Errorf("alter: if wants (if test then [else])")
	}
	test, err := in.Eval(form[1], env)
	if err != nil {
		return nil, err
	}
	if Truthy(test) {
		return in.Eval(form[2], env)
	}
	if len(form) == 4 {
		return in.Eval(form[3], env)
	}
	return nil, nil
}

func sfCond(in *RefInterp, form List, env *refEnv) (Value, error) {
	for _, clause := range form[1:] {
		cl, ok := clause.(List)
		if !ok || len(cl) < 1 {
			return nil, fmt.Errorf("alter: cond clause must be a non-empty list")
		}
		if sym, ok := cl[0].(Symbol); ok && sym == "else" {
			return in.evalSeq(cl[1:], env)
		}
		test, err := in.Eval(cl[0], env)
		if err != nil {
			return nil, err
		}
		if Truthy(test) {
			if len(cl) == 1 {
				return test, nil
			}
			return in.evalSeq(cl[1:], env)
		}
	}
	return nil, nil
}

func (in *RefInterp) evalSeq(forms List, env *refEnv) (Value, error) {
	var out Value
	for _, f := range forms {
		var err error
		out, err = in.Eval(f, env)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func sfDefine(in *RefInterp, form List, env *refEnv) (Value, error) {
	if len(form) < 3 {
		return nil, fmt.Errorf("alter: define wants a name and a value")
	}
	switch target := form[1].(type) {
	case Symbol:
		if len(form) != 3 {
			return nil, fmt.Errorf("alter: (define name value) wants exactly one value")
		}
		v, err := in.Eval(form[2], env)
		if err != nil {
			return nil, err
		}
		if lam, ok := v.(*Lambda); ok && lam.Name == "" {
			lam.Name = string(target)
		}
		env.Define(target, v)
		return nil, nil
	case List:
		// (define (name params...) body...) procedure shorthand.
		if len(target) == 0 {
			return nil, fmt.Errorf("alter: define procedure wants a name")
		}
		name, err := AsSymbol(target[0])
		if err != nil {
			return nil, err
		}
		lam, err := in.makeLambda(target[1:], form[2:], env)
		if err != nil {
			return nil, err
		}
		lam.Name = string(name)
		env.Define(name, lam)
		return nil, nil
	default:
		return nil, fmt.Errorf("alter: cannot define %s", TypeName(form[1]))
	}
}

func sfSet(in *RefInterp, form List, env *refEnv) (Value, error) {
	if len(form) != 3 {
		return nil, fmt.Errorf("alter: set! wants a name and a value")
	}
	name, err := AsSymbol(form[1])
	if err != nil {
		return nil, err
	}
	v, err := in.Eval(form[2], env)
	if err != nil {
		return nil, err
	}
	return v, env.Set(name, v)
}

func (in *RefInterp) makeLambda(params List, body List, env *refEnv) (*Lambda, error) {
	lam := &refClosure{env: env, body: body}
	rest := false
	for _, p := range params {
		s, err := AsSymbol(p)
		if err != nil {
			return nil, fmt.Errorf("alter: lambda parameter: %w", err)
		}
		if s == "&rest" {
			rest = true
			continue
		}
		if rest {
			if lam.rest != "" {
				return nil, fmt.Errorf("alter: multiple &rest parameters")
			}
			lam.rest = s
			continue
		}
		lam.params = append(lam.params, s)
	}
	if rest && lam.rest == "" {
		return nil, fmt.Errorf("alter: &rest without a parameter name")
	}
	if len(body) == 0 {
		return nil, fmt.Errorf("alter: lambda with empty body")
	}
	f := &Lambda{}
	in.closures[f] = lam
	return f, nil
}

func sfLambda(in *RefInterp, form List, env *refEnv) (Value, error) {
	if len(form) < 3 {
		return nil, fmt.Errorf("alter: lambda wants parameters and a body")
	}
	params, err := AsList(form[1])
	if err != nil {
		return nil, err
	}
	return in.makeLambda(params, form[2:], env)
}

func sfLet(in *RefInterp, form List, env *refEnv) (Value, error) {
	return letCommon(in, form, env, false)
}

func sfLetStar(in *RefInterp, form List, env *refEnv) (Value, error) {
	return letCommon(in, form, env, true)
}

func letCommon(in *RefInterp, form List, env *refEnv, sequential bool) (Value, error) {
	if len(form) < 3 {
		return nil, fmt.Errorf("alter: let wants bindings and a body")
	}
	bindings, err := AsList(form[1])
	if err != nil {
		return nil, err
	}
	frame := newRefEnv(env)
	evalEnv := env
	if sequential {
		evalEnv = frame
	}
	for _, b := range bindings {
		pair, ok := b.(List)
		if !ok || len(pair) != 2 {
			return nil, fmt.Errorf("alter: let binding must be (name value)")
		}
		name, err := AsSymbol(pair[0])
		if err != nil {
			return nil, err
		}
		v, err := in.Eval(pair[1], evalEnv)
		if err != nil {
			return nil, err
		}
		frame.Define(name, v)
	}
	return in.evalSeq(form[2:], frame)
}

func sfBegin(in *RefInterp, form List, env *refEnv) (Value, error) {
	return in.evalSeq(form[1:], env)
}

func sfWhile(in *RefInterp, form List, env *refEnv) (Value, error) {
	if len(form) < 2 {
		return nil, fmt.Errorf("alter: while wants a test")
	}
	var out Value
	for {
		test, err := in.Eval(form[1], env)
		if err != nil {
			return nil, err
		}
		if !Truthy(test) {
			return out, nil
		}
		out, err = in.evalSeq(form[2:], env)
		if err != nil {
			return nil, err
		}
	}
}

func sfAnd(in *RefInterp, form List, env *refEnv) (Value, error) {
	var out Value = true
	for _, f := range form[1:] {
		var err error
		out, err = in.Eval(f, env)
		if err != nil {
			return nil, err
		}
		if !Truthy(out) {
			return out, nil
		}
	}
	return out, nil
}

func sfOr(in *RefInterp, form List, env *refEnv) (Value, error) {
	for _, f := range form[1:] {
		out, err := in.Eval(f, env)
		if err != nil {
			return nil, err
		}
		if Truthy(out) {
			return out, nil
		}
	}
	return nil, nil
}

func sfWhen(in *RefInterp, form List, env *refEnv) (Value, error) {
	if len(form) < 2 {
		return nil, fmt.Errorf("alter: when wants a test")
	}
	test, err := in.Eval(form[1], env)
	if err != nil {
		return nil, err
	}
	if Truthy(test) {
		return in.evalSeq(form[2:], env)
	}
	return nil, nil
}

func sfUnless(in *RefInterp, form List, env *refEnv) (Value, error) {
	if len(form) < 2 {
		return nil, fmt.Errorf("alter: unless wants a test")
	}
	test, err := in.Eval(form[1], env)
	if err != nil {
		return nil, err
	}
	if !Truthy(test) {
		return in.evalSeq(form[2:], env)
	}
	return nil, nil
}

package alter

import (
	"fmt"
	"sync/atomic"
)

// Program is a compiled script. It is immutable once Compile returns — the
// closures capture slot numbers, global indices and other closures, never
// run state — so one Program may be run by any number of Interps at once.
// Only stack, a capacity hint, changes after, and atomically.
type Program struct {
	forms []node
	// globals names every global the code mentions; a node holds an index
	// into it, and Interp.Run turns the names into cells.
	globals []Symbol
	// stack is the deepest argument stack (Interp.stack) a run of the
	// program has needed, which a run that starts with none allocates at
	// once instead of growing it by doubling.
	stack atomic.Int64
}

// node is one compiled expression. fr is the innermost frame (nil at top
// level); a node that reads a variable d scopes out follows fr.up d times.
type node func(in *Interp, fr *frame) (Value, error)

// Compile reads src and compiles every top-level form. Only a read error
// fails here: a malformed special form compiles to code that reports the
// error if it is ever evaluated, which is when the tree walker noticed.
func Compile(src string) (*Program, error) {
	forms, err := ReadAll(src)
	if err != nil {
		return nil, err
	}
	c := &compiler{index: map[Symbol]int{}}
	p := &Program{forms: make([]node, len(forms))}
	for i, f := range forms {
		p.forms[i] = c.compile(f, nil)
	}
	p.globals = c.globals
	return p, nil
}

// noteStack records that a run needed an argument stack depth deep.
func (p *Program) noteStack(depth int) {
	for seen := p.stack.Load(); int64(depth) > seen; seen = p.stack.Load() {
		if p.stack.CompareAndSwap(seen, int64(depth)) {
			return
		}
	}
}

// MustCompile is Compile for scripts that are part of the program text.
func MustCompile(src string) *Program {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

type compiler struct {
	globals []Symbol
	index   map[Symbol]int
}

func (c *compiler) global(s Symbol) int {
	g, ok := c.index[s]
	if !ok {
		g = len(c.globals)
		c.globals = append(c.globals, s)
		c.index[s] = g
	}
	return g
}

// scope is the compile-time image of a frame: the names a lambda or let
// declares, in slot order. sure[i] says slot i is bound whenever the code
// being compiled can run (parameters, let names, a let* name once its
// initialiser is behind us); late[i] says it was declared before that was
// so — by a define or as a let* name — and must start out unbound.
// captured says a closure that may outlive the scope is compiled in it or in
// one inside it: any lambda but one lent to a builtin (see lendingCall).
type scope struct {
	up       *scope
	names    []Symbol
	sure     []bool
	late     []bool
	captured bool
}

func (sc *scope) slot(name Symbol) int {
	for i, n := range sc.names {
		if n == name {
			return i
		}
	}
	return -1
}

// declare gives name a slot, reusing the one it has (a repeated parameter
// or let name rebinds, as it overwrote the map entry).
func (sc *scope) declare(name Symbol, sure bool) int {
	i := sc.slot(name)
	if i < 0 {
		i = len(sc.names)
		sc.names = append(sc.names, name)
		sc.sure = append(sc.sure, false)
		sc.late = append(sc.late, !sure)
	}
	sc.sure[i] = sc.sure[i] || sure
	return i
}

// capture marks sc and every scope around it: a closure made in sc's frame
// holds that frame, and through its up links each enclosing one.
func (sc *scope) capture() {
	for ; sc != nil && !sc.captured; sc = sc.up {
		sc.captured = true
	}
}

func (sc *scope) shape() shape {
	s := shape{nslots: len(sc.names), captured: sc.captured}
	for i, late := range sc.late {
		if late {
			s.late = append(s.late, i)
		}
	}
	return s
}

// declareDefines gives a slot to every name a define evaluated directly in
// this scope's frame would bind: defines anywhere in forms except inside a
// lambda, a let body or a let*, which have frames of their own. (A let's
// initialisers run in the enclosing frame, so they are searched.) The slots
// must exist before the body is compiled because code that precedes the
// define — or a closure that runs after it — refers to the same variable.
// Declaring a name no define ever binds is harmless: the slot stays unbound
// and every reference looks past it.
func (sc *scope) declareDefines(forms List) {
	for _, f := range forms {
		l, ok := f.(List)
		if !ok || len(l) == 0 {
			continue
		}
		head, _ := l[0].(Symbol)
		switch head {
		case "quote", "lambda", "let*":
		case "let":
			if len(l) > 1 {
				if bindings, ok := l[1].(List); ok {
					for _, b := range bindings {
						if pair, ok := b.(List); ok && len(pair) == 2 {
							sc.declareDefines(pair[1:])
						}
					}
				}
			}
		case "define":
			if len(l) < 2 {
				continue
			}
			switch target := l[1].(type) {
			case Symbol:
				sc.declare(target, false)
				sc.declareDefines(l[2:])
			case List:
				if len(target) > 0 {
					if name, ok := target[0].(Symbol); ok {
						sc.declare(name, false)
					}
				}
			}
		case "cond":
			for _, clause := range l[1:] {
				if cl, ok := clause.(List); ok {
					sc.declareDefines(cl)
				}
			}
		default:
			sc.declareDefines(l)
		}
	}
}

// fail compiles to the error a malformed form raises when evaluated.
func fail(err error) node {
	return func(in *Interp, fr *frame) (Value, error) {
		if in.tick() {
			return nil, in.stepErr()
		}
		return nil, err
	}
}

func failf(format string, args ...any) node { return fail(fmt.Errorf(format, args...)) }

func constant(v Value) node {
	return func(in *Interp, fr *frame) (Value, error) {
		if in.tick() {
			return nil, in.stepErr()
		}
		return v, nil
	}
}

func (c *compiler) compile(x Value, sc *scope) node {
	switch x := x.(type) {
	case Symbol:
		return c.variable(x, sc).read()
	case List:
		if len(x) == 0 {
			return constant(List{})
		}
		// A special-form name in head position is always the special form,
		// whatever a variable of that name holds.
		if head, ok := x[0].(Symbol); ok {
			switch head {
			case "quote":
				return c.quote(x)
			case "if":
				return c.ifForm(x, sc)
			case "cond":
				return c.cond(x, sc)
			case "define":
				return c.define(x, sc)
			case "set!":
				return c.set(x, sc)
			case "lambda":
				return c.lambdaForm(x, sc)
			case "let":
				return c.let(x, sc, false)
			case "let*":
				return c.let(x, sc, true)
			case "begin":
				return c.begin(x, sc)
			case "while":
				return c.while(x, sc)
			case "and":
				return c.and(x, sc)
			case "or":
				return c.or(x, sc)
			case "when":
				return c.when(x, sc, true)
			case "unless":
				return c.when(x, sc, false)
			}
		}
		return c.call(x, sc)
	default:
		// Self-evaluating: numbers, strings, booleans, nil.
		return constant(x)
	}
}

func (c *compiler) seq(forms List, sc *scope) []node {
	out := make([]node, len(forms))
	for i, f := range forms {
		out[i] = c.compile(f, sc)
	}
	return out
}

// --- variables ---------------------------------------------------------------

// place is a frame slot seen from the referring code.
type place struct{ depth, slot int }

func (p place) in(fr *frame) *Value {
	for d := p.depth; d > 0; d-- {
		fr = fr.up
	}
	return &fr.slots[p.slot]
}

// variable is a resolved name: the slots that may hold it, innermost first,
// then — unless the last slot is sure to be bound — the global cell.
type variable struct {
	name   Symbol
	places []place
	global int // index into Program.globals, -1 if the last place is sure
}

func (c *compiler) variable(name Symbol, sc *scope) *variable {
	v := &variable{name: name, global: -1}
	depth := 0
	for s := sc; s != nil; s = s.up {
		if i := s.slot(name); i >= 0 {
			v.places = append(v.places, place{depth, i})
			if s.sure[i] {
				return v
			}
		}
		depth++
	}
	v.global = c.global(name)
	return v
}

// find returns the innermost bound home of the variable, nil if it has none.
func (v *variable) find(in *Interp, fr *frame) *Value {
	for _, p := range v.places {
		if at := p.in(fr); !isUnbound(*at) {
			return at
		}
	}
	if v.global >= 0 {
		if at := in.cells[v.global]; !isUnbound(*at) {
			return at
		}
	}
	return nil
}

func (v *variable) read() node {
	name := v.name
	undefined := func() error { return fmt.Errorf("alter: undefined variable %s", name) }
	switch {
	case len(v.places) == 0:
		g := v.global
		return func(in *Interp, fr *frame) (Value, error) {
			if in.tick() {
				return nil, in.stepErr()
			}
			val := *in.cells[g]
			if isUnbound(val) {
				return nil, undefined()
			}
			return val, nil
		}
	case len(v.places) == 1 && v.global < 0:
		p := v.places[0]
		slot := p.slot
		switch p.depth {
		case 0:
			return func(in *Interp, fr *frame) (Value, error) {
				if in.tick() {
					return nil, in.stepErr()
				}
				return fr.slots[slot], nil
			}
		case 1:
			return func(in *Interp, fr *frame) (Value, error) {
				if in.tick() {
					return nil, in.stepErr()
				}
				return fr.up.slots[slot], nil
			}
		default:
			return func(in *Interp, fr *frame) (Value, error) {
				if in.tick() {
					return nil, in.stepErr()
				}
				return *p.in(fr), nil
			}
		}
	default:
		return func(in *Interp, fr *frame) (Value, error) {
			if in.tick() {
				return nil, in.stepErr()
			}
			at := v.find(in, fr)
			if at == nil {
				return nil, undefined()
			}
			return *at, nil
		}
	}
}

// --- special forms -------------------------------------------------------------

func (c *compiler) quote(form List) node {
	if len(form) != 2 {
		return failf("alter: quote wants 1 argument")
	}
	return constant(form[1])
}

func (c *compiler) ifForm(form List, sc *scope) node {
	if len(form) < 3 || len(form) > 4 {
		return failf("alter: if wants (if test then [else])")
	}
	test, then := c.compile(form[1], sc), c.compile(form[2], sc)
	var otherwise node
	if len(form) == 4 {
		otherwise = c.compile(form[3], sc)
	}
	return func(in *Interp, fr *frame) (Value, error) {
		if in.tick() {
			return nil, in.stepErr()
		}
		t, err := test(in, fr)
		if err != nil {
			return nil, err
		}
		if Truthy(t) {
			return then(in, fr)
		}
		if otherwise != nil {
			return otherwise(in, fr)
		}
		return nil, nil
	}
}

func (c *compiler) cond(form List, sc *scope) node {
	// A clause is a test with a body; test == nil is the else clause, and
	// bad, when set, is what reaching a malformed clause reports.
	type clause struct {
		test node
		body []node
		bad  error
	}
	var clauses []clause
	for _, f := range form[1:] {
		cl, ok := f.(List)
		if !ok || len(cl) < 1 {
			clauses = append(clauses, clause{bad: fmt.Errorf("alter: cond clause must be a non-empty list")})
			break
		}
		if sym, ok := cl[0].(Symbol); ok && sym == "else" {
			clauses = append(clauses, clause{body: c.seq(cl[1:], sc)})
			break
		}
		clauses = append(clauses, clause{test: c.compile(cl[0], sc), body: c.seq(cl[1:], sc)})
	}
	return func(in *Interp, fr *frame) (Value, error) {
		if in.tick() {
			return nil, in.stepErr()
		}
		for i := range clauses {
			cl := &clauses[i]
			if cl.bad != nil {
				return nil, cl.bad
			}
			if cl.test == nil {
				return evalSeq(cl.body, in, fr)
			}
			t, err := cl.test(in, fr)
			if err != nil {
				return nil, err
			}
			if Truthy(t) {
				if len(cl.body) == 0 {
					return t, nil
				}
				return evalSeq(cl.body, in, fr)
			}
		}
		return nil, nil
	}
}

func (c *compiler) define(form List, sc *scope) node {
	if len(form) < 3 {
		return failf("alter: define wants a name and a value")
	}
	var name Symbol
	var value node
	switch target := form[1].(type) {
	case Symbol:
		if len(form) != 3 {
			return failf("alter: (define name value) wants exactly one value")
		}
		name = target
		val := c.compile(form[2], sc)
		value = func(in *Interp, fr *frame) (Value, error) {
			v, err := val(in, fr)
			if lam, ok := v.(*Lambda); ok && lam.Name == "" {
				lam.Name = string(name)
			}
			return v, err
		}
	case List:
		// (define (name params...) body...) procedure shorthand.
		if len(target) == 0 {
			return failf("alter: define procedure wants a name")
		}
		var err error
		if name, err = AsSymbol(target[0]); err != nil {
			return fail(err)
		}
		sc.capture()
		code, err := c.lambda(target[1:], form[2:], sc)
		if err != nil {
			return fail(err)
		}
		value = func(in *Interp, fr *frame) (Value, error) {
			return &Lambda{Name: string(name), code: code, env: fr, cells: in.cells}, nil
		}
	default:
		return failf("alter: cannot define %s", TypeName(form[1]))
	}
	if sc == nil {
		g := c.global(name)
		return func(in *Interp, fr *frame) (Value, error) {
			if in.tick() {
				return nil, in.stepErr()
			}
			v, err := value(in, fr)
			if err != nil {
				return nil, err
			}
			*in.cells[g] = v
			return nil, nil
		}
	}
	// declareDefines gave the name its slot before any of the scope's code
	// was compiled; declaring again only finds it.
	slot := sc.declare(name, false)
	return func(in *Interp, fr *frame) (Value, error) {
		if in.tick() {
			return nil, in.stepErr()
		}
		v, err := value(in, fr)
		if err != nil {
			return nil, err
		}
		fr.slots[slot] = v
		return nil, nil
	}
}

func (c *compiler) set(form List, sc *scope) node {
	if len(form) != 3 {
		return failf("alter: set! wants a name and a value")
	}
	name, err := AsSymbol(form[1])
	if err != nil {
		return fail(err)
	}
	val := c.compile(form[2], sc)
	target := c.variable(name, sc)
	return func(in *Interp, fr *frame) (Value, error) {
		if in.tick() {
			return nil, in.stepErr()
		}
		v, err := val(in, fr)
		if err != nil {
			return nil, err
		}
		at := target.find(in, fr)
		if at == nil {
			return nil, fmt.Errorf("alter: set! of undefined variable %s", name)
		}
		*at = v
		return v, nil
	}
}

// lambdaCode is the compiled form of a lambda expression; a Lambda value is
// this plus the frame it closed over. Compiling one does not mark sc
// captured: the caller does, unless the closure is lent (see lendingCall).
type lambdaCode struct {
	params []int // slot of each positional parameter
	rest   int   // slot of the &rest parameter, -1 if none
	shape  shape
	body   []node
	// direct: no &rest and parameter i lives in slot i, so a call site may
	// evaluate its arguments straight into the new frame.
	direct bool
}

func (c *compiler) lambda(params, body List, sc *scope) (*lambdaCode, error) {
	code := &lambdaCode{rest: -1, direct: true}
	fs := &scope{up: sc}
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
			if code.rest >= 0 {
				return nil, fmt.Errorf("alter: multiple &rest parameters")
			}
			code.rest = fs.declare(s, true)
			continue
		}
		slot := fs.declare(s, true)
		code.direct = code.direct && slot == len(code.params)
		code.params = append(code.params, slot)
	}
	if rest && code.rest < 0 {
		return nil, fmt.Errorf("alter: &rest without a parameter name")
	}
	if len(body) == 0 {
		return nil, fmt.Errorf("alter: lambda with empty body")
	}
	code.direct = code.direct && !rest
	fs.declareDefines(body)
	code.body = c.seq(body, fs)
	code.shape = fs.shape()
	return code, nil
}

func (c *compiler) lambdaForm(form List, sc *scope) node {
	if len(form) < 3 {
		return failf("alter: lambda wants parameters and a body")
	}
	params, err := AsList(form[1])
	if err != nil {
		return fail(err)
	}
	sc.capture()
	code, err := c.lambda(params, form[2:], sc)
	if err != nil {
		return fail(err)
	}
	return func(in *Interp, fr *frame) (Value, error) {
		if in.tick() {
			return nil, in.stepErr()
		}
		return &Lambda{code: code, env: fr, cells: in.cells}, nil
	}
}

// let compiles let and let*. A let evaluates its initialisers in the
// enclosing frame, a let* in the new one, each seeing the names before it.
func (c *compiler) let(form List, sc *scope, sequential bool) node {
	if len(form) < 3 {
		return failf("alter: let wants bindings and a body")
	}
	bindings, err := AsList(form[1])
	if err != nil {
		return fail(err)
	}
	// Every name has its slot before anything is compiled: a closure made
	// by a let* initialiser may run after a later name, or a define in the
	// body, is bound. A let* name is only sure to be bound once its own
	// initialiser is behind us; a let's initialisers never see the scope.
	ls := &scope{up: sc}
	for _, b := range bindings {
		if pair, ok := b.(List); ok && len(pair) == 2 {
			if name, ok := pair[0].(Symbol); ok {
				ls.declare(name, !sequential)
			}
		}
	}
	ls.declareDefines(form[2:])
	initScope := sc
	if sequential {
		initScope = ls
	}
	inits := make([]node, 0, len(bindings))
	slots := make([]int, 0, len(bindings))
	for _, b := range bindings {
		var bad error
		pair, ok := b.(List)
		var name Symbol
		if !ok || len(pair) != 2 {
			bad = fmt.Errorf("alter: let binding must be (name value)")
		} else {
			name, bad = AsSymbol(pair[0])
		}
		if bad != nil {
			// Reported when evaluation reaches this binding, after the
			// ones before it have run; the body is never reached.
			inits = append(inits, func(*Interp, *frame) (Value, error) { return nil, bad })
			slots = append(slots, 0)
			break
		}
		inits = append(inits, c.compile(pair[1], initScope))
		slots = append(slots, ls.declare(name, true))
	}
	body := c.seq(form[2:], ls)
	sh := ls.shape()
	return func(in *Interp, fr *frame) (Value, error) {
		if in.tick() {
			return nil, in.stepErr()
		}
		nf := in.newFrame(fr, &sh)
		initFrame := fr
		if sequential {
			initFrame = nf
		}
		for i, init := range inits {
			v, err := init(in, initFrame)
			if err != nil {
				return nil, err
			}
			nf.slots[slots[i]] = v
		}
		out, err := evalSeq(body, in, nf)
		if err == nil {
			in.release(nf, &sh)
		}
		return out, err
	}
}

func (c *compiler) begin(form List, sc *scope) node {
	body := c.seq(form[1:], sc)
	return func(in *Interp, fr *frame) (Value, error) {
		if in.tick() {
			return nil, in.stepErr()
		}
		return evalSeq(body, in, fr)
	}
}

func (c *compiler) while(form List, sc *scope) node {
	if len(form) < 2 {
		return failf("alter: while wants a test")
	}
	test, body := c.compile(form[1], sc), c.seq(form[2:], sc)
	return func(in *Interp, fr *frame) (Value, error) {
		if in.tick() {
			return nil, in.stepErr()
		}
		var out Value
		for {
			t, err := test(in, fr)
			if err != nil {
				return nil, err
			}
			if !Truthy(t) {
				return out, nil
			}
			if out, err = evalSeq(body, in, fr); err != nil {
				return nil, err
			}
		}
	}
}

func (c *compiler) and(form List, sc *scope) node {
	terms := c.seq(form[1:], sc)
	return func(in *Interp, fr *frame) (Value, error) {
		if in.tick() {
			return nil, in.stepErr()
		}
		var out Value = true
		for _, term := range terms {
			var err error
			if out, err = term(in, fr); err != nil {
				return nil, err
			}
			if !Truthy(out) {
				return out, nil
			}
		}
		return out, nil
	}
}

func (c *compiler) or(form List, sc *scope) node {
	terms := c.seq(form[1:], sc)
	return func(in *Interp, fr *frame) (Value, error) {
		if in.tick() {
			return nil, in.stepErr()
		}
		for _, term := range terms {
			out, err := term(in, fr)
			if err != nil {
				return nil, err
			}
			if Truthy(out) {
				return out, nil
			}
		}
		return nil, nil
	}
}

// when compiles (when test body...) and, with want false, unless.
func (c *compiler) when(form List, sc *scope, want bool) node {
	if len(form) < 2 {
		return failf("alter: %s wants a test", form[0])
	}
	test, body := c.compile(form[1], sc), c.seq(form[2:], sc)
	return func(in *Interp, fr *frame) (Value, error) {
		if in.tick() {
			return nil, in.stepErr()
		}
		t, err := test(in, fr)
		if err != nil {
			return nil, err
		}
		if Truthy(t) == want {
			return evalSeq(body, in, fr)
		}
		return nil, nil
	}
}

// --- calls -------------------------------------------------------------------

func (c *compiler) call(form List, sc *scope) node {
	fn := c.compile(form[0], sc)
	if code, lender := c.lentLambda(form, sc); code != nil {
		return lendingCall(fn, code, lender, c.seq(form[2:], sc))
	}
	args := c.seq(form[1:], sc)
	return func(in *Interp, fr *frame) (Value, error) {
		if in.tick() {
			return nil, in.stepErr()
		}
		callee, err := fn(in, fr)
		if err != nil {
			return nil, err
		}
		if f, ok := callee.(*Lambda); ok && f.code.direct && len(args) == len(f.code.params) {
			// The common call: the arguments are evaluated into the frame
			// the body will run in. Depth is charged after them, as Apply
			// charges it after its caller evaluated them.
			nf := in.newFrame(f.env, &f.code.shape)
			for i, arg := range args {
				if nf.slots[i], err = arg(in, fr); err != nil {
					return nil, err
				}
			}
			in.depth++
			if in.depth > in.MaxDepth {
				in.depth--
				return nil, errTooDeep
			}
			out, err := in.run(f, nf)
			in.depth--
			if err == nil {
				in.release(nf, &f.code.shape)
			}
			return out, err
		}
		// Any other call takes its arguments on the interpreter's stack.
		return in.applyStacked(fr, callee, len(in.stack), args)
	}
}

// applyStacked evaluates args onto the stack and applies callee to the
// stack from base up: the arguments, after any the call pushed already. The
// list is capped, so that a callee appending to it cannot write over a
// later call's.
func (in *Interp) applyStacked(fr *frame, callee Value, base int, args []node) (Value, error) {
	for _, arg := range args {
		v, err := arg(in, fr)
		if err != nil {
			in.stack = in.stack[:base]
			return nil, err
		}
		in.stack = append(in.stack, v)
	}
	top := len(in.stack)
	in.peak = max(in.peak, top)
	out, err := in.Apply(callee, in.stack[base:top:top])
	in.stack = in.stack[:base]
	return out, err
}

// lenders are the builtins that apply their procedure argument and keep no
// hold on it once they return (see applicative), by name.
var lenders = func() map[Symbol]*Builtin {
	out := make(map[Symbol]*Builtin, len(applicative))
	for name := range applicative {
		out[Symbol(name)] = stdlib.vals[Symbol(name)].(*Builtin)
	}
	return out
}()

// lentLambda compiles the lambda of a call (p (lambda params body...)
// args...) whose p names a lender, without marking sc captured, and returns
// it with the lender; it returns nil for any other call. A closure the body
// makes that is not lent marks its own scope and every one around it,
// sc included, captured as usual.
func (c *compiler) lentLambda(form List, sc *scope) (*lambdaCode, *Builtin) {
	if len(form) < 2 {
		return nil, nil
	}
	name, _ := form[0].(Symbol)
	lender := lenders[name]
	lam, ok := form[1].(List)
	if lender == nil || !ok || len(lam) < 3 || lam[0] != Symbol("lambda") {
		return nil, nil
	}
	params, err := AsList(lam[1])
	if err != nil {
		return nil, nil
	}
	code, err := c.lambda(params, lam[2:], sc)
	if err != nil {
		return nil, nil // compiled again by lambdaForm, which reports it
	}
	return code, lender
}

// lendingCall is the call (p (lambda ...) rest...) of a lender p. While p is
// still that lender when the call runs, the closure is lent to it: it cannot
// outlive the call, so its scope need not be captured, and it is taken from
// the Interp's spares and handed back once p returns. If the name has been
// rebound the closure may be kept: it is made afresh and pins its frame and
// every frame around it, which are then never released.
func lendingCall(fn node, code *lambdaCode, lender *Builtin, rest []node) node {
	return func(in *Interp, fr *frame) (Value, error) {
		if in.tick() {
			return nil, in.stepErr()
		}
		callee, err := fn(in, fr)
		if err != nil {
			return nil, err
		}
		if in.tick() { // the lambda form's own step
			return nil, in.stepErr()
		}
		lent := callee == Value(lender)
		var f *Lambda
		if n := len(in.spare); lent && n > 0 {
			f, in.spare = in.spare[n-1], in.spare[:n-1]
		} else {
			f = new(Lambda)
		}
		if !lent {
			fr.pin()
		}
		*f = Lambda{code: code, env: fr, cells: in.cells}
		base := len(in.stack)
		in.stack = append(in.stack, f)
		out, err := in.applyStacked(fr, callee, base, rest)
		if lent && err == nil {
			*f = Lambda{}
			in.spare = append(in.spare, f)
		}
		return out, err
	}
}

package alter

import (
	"errors"
	"fmt"
)

// Library is a global environment that is built once and then only read:
// the standard procedures, plus whatever standard calls an embedder adds with
// With. Every Interp over a library shares it, across goroutines; what a run
// binds with define or set! goes to the Interp's own cells, never here.
type Library struct {
	vals map[Symbol]Value
}

// stdlib is the base library, built once per process.
var stdlib = newStdlib()

// Stdlib returns the base library: the arithmetic, comparison, list, string,
// predicate and procedure-applying builtins.
func Stdlib() *Library { return stdlib }

// With returns a new library holding l's bindings and bs, a builtin of l's
// name replaced. l is unchanged.
func (l *Library) With(bs ...*Builtin) *Library {
	out := &Library{vals: make(map[Symbol]Value, len(l.vals)+len(bs))}
	for s, v := range l.vals {
		out.vals[s] = v
	}
	for _, b := range bs {
		out.vals[Symbol(b.Name)] = b
	}
	return out
}

// New creates an interpreter over l.
func (l *Library) New() *Interp { return &Interp{lib: l, MaxDepth: 4096} }

// Interp is an Alter interpreter instance: the library it runs on, its own
// global cells, execution limits, and the state of the run in progress. A
// Program and a Library hold none of that, so an Interp is what must not be
// shared between goroutines.
type Interp struct {
	lib *Library
	// The interpreter's own global cells: one for every name a program run
	// here mentions or the host Defines, holding the library's value until
	// a define or set! replaces it. Run links a program to these cells, so
	// a later program sees what an earlier one defined. The first program's
	// cells are kept as Run linked them, in first and firstCells; own
	// indexes every cell by name once a second program or the host needs
	// one by name, which an interpreter that runs one program never does.
	first      *Program
	firstCells []*Value
	own        map[Symbol]*Value
	// Host is the embedder's state for the run, for builtins of its library
	// to read from the Interp that calls them.
	Host any
	// MaxDepth bounds recursion (the glue generators recurse over models,
	// not unboundedly; a runaway script is a bug to report, not a hang).
	MaxDepth int
	// MaxSteps bounds total evaluation steps (0 = unlimited). A step is one
	// evaluation of one expression: a constant, a variable reference, a
	// special form or a call each count one, plus their sub-expressions'.
	MaxSteps int
	depth    int
	steps    int
	// cells are the running code's globals: cells[i] is the cell of the
	// i'th name of the Program it was compiled in. Run sets them for
	// top-level forms; a Lambda carries its own and run swaps them in.
	cells []*Value
	// stack holds the arguments of every builtin call in progress, so a
	// call does not allocate an argument list; peak is the deepest it has
	// been, which Run records in the Program.
	stack List
	peak  int
	// free is a stack of frames whose scope returned and that no closure
	// can reach; entering a scope pops one. Run drops it when it returns.
	free []*frame
	// spare holds closures that were lent to a builtin and handed back (see
	// lendingCall). Run drops it when it returns.
	spare []*Lambda
}

// New creates an interpreter over the base library.
func New() *Interp { return stdlib.New() }

// Define binds s in this interpreter, shadowing the library's s if it has
// one.
func (in *Interp) Define(s Symbol, v Value) {
	in.index()
	*in.link([]Symbol{s})[0] = v
}

// link returns the interpreter's cell of each name, making the ones it lacks
// — in one allocation, holding the library's value or unbound — and adding
// them to own if it has been built.
func (in *Interp) link(names []Symbol) []*Value {
	cells := make([]*Value, len(names))
	fresh := make([]Value, len(names))
	for i, s := range names {
		c := in.own[s]
		if c == nil {
			c = &fresh[i]
			*c = unbound
			if v, ok := in.lib.vals[s]; ok {
				*c = v
			}
			if in.own != nil {
				in.own[s] = c
			}
		}
		cells[i] = c
	}
	return cells
}

// index builds own — from the first program's cells, if one has been
// linked — unless it is built already.
func (in *Interp) index() {
	if in.own != nil {
		return
	}
	in.own = make(map[Symbol]*Value, len(in.firstCells))
	if in.first != nil {
		for i, s := range in.first.globals {
			in.own[s] = in.firstCells[i]
		}
		in.first, in.firstCells = nil, nil
	}
}

// RunString reads and evaluates every form in src, returning the last value.
func (in *Interp) RunString(src string) (Value, error) {
	p, err := Compile(src)
	if err != nil {
		return nil, err
	}
	return in.Run(p)
}

// Run evaluates every top-level form of p in order, returning the last
// value. It first links p to this interpreter: each global name p mentions
// is looked up once, here, in the interpreter's own cells and then the
// library, and the compiled code reaches its cell by index from then on.
func (in *Interp) Run(p *Program) (Value, error) {
	if in.first != nil {
		in.index() // a second program: the first one's cells are needed by name
	}
	cells := in.link(p.globals)
	if in.own == nil {
		in.first, in.firstCells = p, cells
	}
	saved := in.cells
	in.cells = cells
	if in.stack == nil {
		in.stack = make(List, 0, p.stack.Load())
	}
	defer func() {
		in.cells, in.free, in.spare = saved, nil, nil
		p.noteStack(in.peak)
	}()
	var last Value
	for _, form := range p.forms {
		var err error
		if last, err = form(in, nil); err != nil {
			return nil, err
		}
	}
	return last, nil
}

// errTooDeep distinguishes resource exhaustion from script errors.
var errTooDeep = errors.New("alter: recursion depth limit exceeded")

// tick charges one evaluation step and reports whether the budget is spent.
func (in *Interp) tick() bool {
	in.steps++
	return in.MaxSteps > 0 && in.steps > in.MaxSteps
}

func (in *Interp) stepErr() error {
	return fmt.Errorf("alter: step limit %d exceeded", in.MaxSteps)
}

// Apply invokes a procedure value on already-evaluated arguments.
func (in *Interp) Apply(callee Value, args List) (Value, error) {
	in.depth++
	defer func() { in.depth-- }()
	if in.depth > in.MaxDepth {
		return nil, errTooDeep
	}
	switch f := callee.(type) {
	case *Builtin:
		base := len(in.stack)
		v, err := f.Fn(in, args)
		in.stack = in.stack[:base]
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.Name, err)
		}
		return v, nil
	case *Lambda:
		c := f.code
		if c.rest < 0 && len(args) != len(c.params) {
			return nil, fmt.Errorf("alter: %s wants %d arguments, got %d", lambdaName(f), len(c.params), len(args))
		}
		if c.rest >= 0 && len(args) < len(c.params) {
			return nil, fmt.Errorf("alter: %s wants at least %d arguments, got %d", lambdaName(f), len(c.params), len(args))
		}
		fr := in.newFrame(f.env, &c.shape)
		for i, slot := range c.params {
			fr.slots[slot] = args[i]
		}
		if c.rest >= 0 {
			rest := make(List, len(args)-len(c.params))
			copy(rest, args[len(c.params):])
			fr.slots[c.rest] = rest
		}
		out, err := in.run(f, fr)
		if err == nil {
			in.release(fr, &c.shape)
		}
		return out, err
	default:
		return nil, fmt.Errorf("alter: cannot call %s", TypeName(callee))
	}
}

// argList returns n nil slots on top of the stack; Apply drops them when
// the builtin that asked for them returns.
func (in *Interp) argList(n int) List {
	base := len(in.stack)
	in.stack = append(in.stack, make(List, n)...)
	in.peak = max(in.peak, base+n)
	return in.stack[base : base+n : base+n]
}

// run evaluates f's body in fr, f's frame with the arguments in place.
func (in *Interp) run(f *Lambda, fr *frame) (Value, error) {
	saved := in.cells
	in.cells = f.cells
	out, err := evalSeq(f.code.body, in, fr)
	in.cells = saved
	return out, err
}

func evalSeq(body []node, in *Interp, fr *frame) (Value, error) {
	var out Value
	for _, n := range body {
		var err error
		if out, err = n(in, fr); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func lambdaName(f *Lambda) string {
	if f.Name == "" {
		return "lambda"
	}
	return f.Name
}

// frame holds the local variables of one procedure call or let: slot i is
// the i'th name its scope declares. Frames that fit use the inline array,
// so making one is one allocation, and a frame no closure can reach is
// reused once its scope returns (see Interp.release).
type frame struct {
	up    *frame
	slots []Value
	small [4]Value
	// pinned: a closure that may be kept holds this frame or one below it,
	// though the scope's shape says none can (see lendingCall).
	pinned bool
}

// shape is what the compiler knows about a scope's frame.
type shape struct {
	nslots int
	// late lists the slots that are not bound on entry — internal defines,
	// and let* names while their initialisers run. They start unbound, and
	// a reference that finds one unbound looks further out, which is what
	// a chain of name-keyed frames did for a name not defined yet.
	late []int
	// captured: a lambda is compiled in this scope or in one inside it, so
	// a closure may hold the frame (or a frame below it) after the scope
	// returns.
	captured bool
}

// newFrame makes a frame of shape s below up, reusing a released one when
// there is one. A released frame's slots are all nil, to its capacity.
func (in *Interp) newFrame(up *frame, s *shape) *frame {
	var fr *frame
	if n := len(in.free); n > 0 {
		fr = in.free[n-1]
		in.free = in.free[:n-1]
		fr.up = up
	} else {
		fr = &frame{up: up}
	}
	switch {
	case s.nslots <= cap(fr.slots):
		fr.slots = fr.slots[:s.nslots]
	case s.nslots <= len(fr.small):
		fr.slots = fr.small[:s.nslots]
	default:
		fr.slots = make([]Value, s.nslots)
	}
	for _, slot := range s.late {
		fr.slots[slot] = unbound
	}
	return fr
}

// release hands back fr, the frame of a scope of shape s that has just
// returned, unless a closure may hold it. Nothing else can: a frame below
// it is either released already or captured or pinned, which makes this one
// so too. A scope that returns an error keeps its frame.
func (in *Interp) release(fr *frame, s *shape) {
	if s.captured || fr.pinned {
		return
	}
	clear(fr.slots)
	fr.up = nil
	in.free = append(in.free, fr)
}

// pin keeps fr and every frame around it from being released.
func (fr *frame) pin() {
	for ; fr != nil && !fr.pinned; fr = fr.up {
		fr.pinned = true
	}
}

// unbound marks a cell or slot that has no value yet.
var unbound Value = &unboundMark{}

type unboundMark struct{ _ byte }

func isUnbound(v Value) bool {
	_, ok := v.(*unboundMark)
	return ok
}

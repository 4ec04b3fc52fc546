package archtest

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// root is the module root, seen from this package's directory (where go
// test runs it).
const root = "../.."

// parseDir parses the non-test Go files of the module package at dir (a
// path below the module root) that the host's build constraints select.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	full := filepath.Join(root, dir)
	entries, err := os.ReadDir(full)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(full, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(full, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// methods returns the bodies of the methods declared in files, by name.
func methods(files []*ast.File) map[string]*ast.FuncDecl {
	out := map[string]*ast.FuncDecl{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil && fn.Body != nil {
				out[fn.Name.Name] = fn
			}
		}
	}
	return out
}

// TestBusyHoldsNoLoop is the gate for "replace, not fork": the node's
// time-slicing lives in internal/sim, so the halves of a CPU burst
// (machine.Node's busyBegin and BusyEnd) and its blocking form contain no
// loop — the quantum loop cannot quietly come back next to the sliced hold.
func TestBusyHoldsNoLoop(t *testing.T) {
	files, err := parseDir(token.NewFileSet(), "internal/machine")
	if err != nil {
		t.Fatal(err)
	}
	decls := methods(files)
	for _, name := range []string{"busyBegin", "BusyEnd", "burst"} {
		fn := decls[name]
		if fn == nil {
			t.Fatalf("internal/machine declares no method %s; update this gate with the rename", name)
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				t.Errorf("machine.Node.%s contains a loop; the CPU is driven by sim.Proc.Hold only", name)
			}
			return true
		})
	}
}

// TestMessageSidesAreOneHold is the gate for "replace, not fork": both
// sides of a message — transfer and RecvOverhead, their halves and their
// blocking forms — charge as sim holds only: no acquire, release, sleep or
// burst of their own beside the chain.
func TestMessageSidesAreOneHold(t *testing.T) {
	files, err := parseDir(token.NewFileSet(), "internal/machine")
	if err != nil {
		t.Fatal(err)
	}
	decls := methods(files)
	for _, name := range []string{
		"transfer", "transferBegin", "TransferEnd", "transferDone",
		"RecvOverhead", "RecvOverheadBegin", "RecvOverheadEnd", "recvCharged",
	} {
		fn := decls[name]
		if fn == nil {
			t.Fatalf("internal/machine declares no method %s; update this gate with the rename", name)
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Acquire", "Release", "Use", "Sleep", "SleepUntil", "SleepBegin", "HoldSliced",
					"busyBegin", "burst", "Memcpy", "MemcpyBegin", "ComputeTime", "ComputeTimeBegin":
					t.Errorf("machine.Node.%s calls %s; a message side is one sim hold (Proc.Hold, or behind a Gate)", name, sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// TestSimHandsOffByCoroutine: a process switch in internal/sim is a
// coroutine switch (Proc.next) or no switch at all (a stackless process's
// step), never a hand-off over a channel — no resume or park channel, and
// no parkOrDie.
func TestSimHandsOffByCoroutine(t *testing.T) {
	fset := token.NewFileSet()
	files, err := parseDir(fset, "internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if name := n.Sel.Name; name == "resume" || name == "park" {
					t.Errorf("%s: .%s: internal/sim hands off between processes over a channel again; resume the coroutine (Proc.next)", fset.Position(n.Pos()), name)
				}
			case *ast.Ident:
				if n.Name == "parkOrDie" {
					t.Errorf("%s: parkOrDie: internal/sim hands off between processes over a channel again", fset.Position(n.Pos()))
				}
			}
			return true
		})
	}
}

// A loader type-checks the module's packages from source, and imports the
// standard library from export data.
type loader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*pkg
}

type pkg struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

func newLoader() *loader {
	fset := token.NewFileSet()
	return &loader{fset: fset, std: importer.ForCompiler(fset, "gc", nil), pkgs: map[string]*pkg{}}
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// load type-checks the module package at import path path.
func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := "." // the module's root package, repro
	if path != "repro" {
		dir = strings.TrimPrefix(path, "repro/")
	}
	files, err := parseDir(l.fset, dir)
	if err != nil {
		return nil, err
	}
	p := &pkg{files: files, info: &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// callee is the function or method a call statically names, declared form
// (generic instantiations folded onto their origin); nil for a call through
// a func value or an interface.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	for {
		switch x := fun.(type) {
		case *ast.IndexExpr:
			fun = x.X
			continue
		case *ast.IndexListExpr:
			fun = x.X
			continue
		}
		break
	}
	var id *ast.Ident
	switch x := fun.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if _, iface := sig.Recv().Type().Underlying().(*types.Interface); iface {
			return nil
		}
	}
	return fn.Origin()
}

// staticCalls is the static call graph of the functions declared in pkgs:
// each function's callees, a call in a function literal counting for the
// function that contains it.
func staticCalls(pkgs []*pkg) map[*types.Func][]*types.Func {
	calls := map[*types.Func][]*types.Func{}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if c, ok := n.(*ast.CallExpr); ok {
						if to := callee(p.info, c); to != nil {
							calls[fn] = append(calls[fn], to)
						}
					}
					return true
				})
			}
		}
	}
	return calls
}

// parking is every function of pkgs that can park its process: that
// reaches sim.Proc.Suspend, the one park, through static calls.
func parking(pkgs []*pkg, suspend *types.Func) map[*types.Func]bool {
	calls := staticCalls(pkgs)
	parks := map[*types.Func]bool{suspend: true}
	for changed := true; changed; {
		changed = false
		for fn, to := range calls {
			if parks[fn] {
				continue
			}
			for _, c := range to {
				if parks[c] {
					parks[fn], changed = true, true
					break
				}
			}
		}
	}
	return parks
}

// qualified names a function as pkg.(*Recv).Name or pkg.Name.
func qualified(fn *types.Func) string {
	name := fn.Name()
	if sig := fn.Type().(*types.Signature); sig.Recv() != nil {
		recv := sig.Recv().Type()
		ptr := ""
		if p, ok := recv.(*types.Pointer); ok {
			recv, ptr = p.Elem(), "*"
		}
		name = "(" + ptr + recv.(*types.Named).Obj().Name() + ")." + name
	}
	return fn.Pkg().Name() + "." + name
}

// TestSageThreadsCallOnlyHalves: a SAGE function thread is a stackless
// process, so no non-test file of internal/sagert calls a parking form —
// any function of sim, machine or mpi that can reach sim.Proc.Suspend —
// only the Begin/Resume halves. The gate first checks that it recognises
// the forms it guards, and that no half parks.
func TestSageThreadsCallOnlyHalves(t *testing.T) {
	l := newLoader()
	var layers []*pkg
	for _, path := range []string{"repro/internal/sim", "repro/internal/machine", "repro/internal/mpi"} {
		p, err := l.load(path)
		if err != nil {
			t.Fatal(err)
		}
		layers = append(layers, p)
	}
	sage, err := l.load("repro/internal/sagert")
	if err != nil {
		t.Fatal(err)
	}
	proc, ok := layers[0].types.Scope().Lookup("Proc").(*types.TypeName)
	if !ok {
		t.Fatal("internal/sim declares no Proc; update this gate with the rename")
	}
	suspend, _, _ := types.LookupFieldOrMethod(types.NewPointer(proc.Type()), false, proc.Pkg(), "Suspend")
	if suspend == nil {
		t.Fatal("sim.Proc has no Suspend method; update this gate with the rename")
	}
	parks := parking(layers, suspend.(*types.Func))
	names := map[string]bool{}
	for fn := range parks {
		names[qualified(fn)] = true
		if n := fn.Name(); strings.HasSuffix(n, "Begin") || strings.HasSuffix(n, "Resume") || strings.HasSuffix(n, "End") {
			t.Errorf("%s can park its process; a half never parks", qualified(fn))
		}
	}
	for _, form := range []string{
		"sim.(*Proc).Hold", "sim.(*Proc).Sleep", "sim.(*Proc).SleepUntil",
		"sim.(*Chan).Recv", "sim.(*Chan).RecvHold", "sim.(*Barrier).Wait", "sim.(*Resource).Acquire",
		"mpi.(*Rank).Send", "mpi.(*Rank).SendPacked", "mpi.(*Rank).Recv", "mpi.(*Rank).RecvUnpacked",
		"mpi.(*Rank).RecvTimeout", "mpi.(*Rank).RecvTimeoutUnpacked", "mpi.(*Rank).Barrier",
		"machine.(*Node).ComputeFlops", "machine.(*Node).ComputeTime", "machine.(*Node).Memcpy",
		"machine.(*Node).Transfer", "machine.(*Node).TryTransfer", "machine.(*Node).RecvOverhead",
	} {
		if !names[form] {
			t.Errorf("the gate does not see %s as a parking form", form)
		}
	}
	halves := map[string]bool{}
	for _, f := range sage.files {
		ast.Inspect(f, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := callee(sage.info, c)
			switch {
			case fn == nil:
			case parks[fn]:
				t.Errorf("%s: calls %s, a parking form; a SAGE thread is a step that calls only Begin/Resume halves",
					l.fset.Position(c.Pos()), qualified(fn))
			case strings.HasSuffix(fn.Name(), "Begin"):
				halves[qualified(fn)] = true
			}
			return true
		})
	}
	var seen []string
	for h := range halves {
		seen = append(seen, h)
	}
	sort.Strings(seen)
	t.Logf("internal/sagert begins %d kinds of wait: %s", len(seen), strings.Join(seen, ", "))
	if len(seen) == 0 {
		t.Fatal("internal/sagert calls no Begin half; update this gate with the rename")
	}
}

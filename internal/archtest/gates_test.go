package archtest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// mustLoad type-checks the module package at import path path.
func mustLoad(t *testing.T, l *loader, path string) *pkg {
	t.Helper()
	p, err := l.load(path)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// lookup returns the package-level object name of p, failing the gate —
// which no longer guards anything — when it is gone.
func lookup(t *testing.T, p *pkg, name string) types.Object {
	t.Helper()
	obj := p.types.Scope().Lookup(name)
	if obj == nil {
		t.Fatalf("%s declares no %s; update this gate with the rename", p.types.Path(), name)
	}
	return obj
}

// member returns the field or method name of p's type typeName.
func member(t *testing.T, p *pkg, typeName, name string) types.Object {
	t.Helper()
	typ := lookup(t, p, typeName).Type()
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(typ), false, p.types, name)
	if obj == nil {
		t.Fatalf("%s.%s has no %s; update this gate with the rename", p.types.Path(), typeName, name)
	}
	return obj
}

// objOf is what an identifier declares or refers to.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// isBuiltin reports whether call calls the builtin name.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// packagesBelow lists the import paths of the packages with non-test Go
// files at or below the given directories (testdata excluded).
func packagesBelow(t *testing.T, dirs ...string) []string {
	t.Helper()
	var out []string
	for _, dir := range dirs {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			matches, _ := filepath.Glob(filepath.Join(path, "*.go"))
			for _, m := range matches {
				if !strings.HasSuffix(m, "_test.go") {
					rel, _ := filepath.Rel(root, path)
					out = append(out, "repro/"+filepath.ToSlash(rel))
					break
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestSingleLowering: the tables are lowered once, in internal/plan. No
// non-test file of a table consumer — sagert, stream, twin, codegen and the
// packages below them, rtl among them — refers to model.Partition or
// declares a data or credit tag function of its own; the tags are
// plan.Edge's. Nor does one refer to funclib.ResultBacked or
// funclib.OwnsAdopted: the plan makes every storage decision, and the
// runtimes carry it out (DESIGN.md §14).
func TestSingleLowering(t *testing.T) {
	l := newLoader()
	partition := lookup(t, mustLoad(t, l, "repro/internal/model"), "Partition")
	fl := mustLoad(t, l, "repro/internal/funclib")
	decides := map[types.Object]bool{lookup(t, fl, "ResultBacked"): true, lookup(t, fl, "OwnsAdopted"): true}
	plan := mustLoad(t, l, "repro/internal/plan")
	member(t, plan, "Edge", "DataTag")
	member(t, plan, "Edge", "CreditTag")
	isTag := regexp.MustCompile(`(?i)(data|credit)_?tag`)
	paths := packagesBelow(t, "internal/sagert", "internal/stream", "internal/twin", "internal/codegen")
	for _, path := range paths {
		p := mustLoad(t, l, path)
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if p.info.Uses[n] == partition {
						t.Errorf("%s: %s lowers tables itself (model.Partition); use internal/plan", l.fset.Position(n.Pos()), path)
					}
					if obj := p.info.Uses[n]; decides[obj] {
						t.Errorf("%s: %s makes a storage decision itself (funclib.%s); read plan.Thread or plan.Layout", l.fset.Position(n.Pos()), path, obj.Name())
					}
				case *ast.FuncDecl:
					if isTag.MatchString(n.Name.Name) {
						t.Errorf("%s: %s declares %s; the tags are plan.Edge's DataTag and CreditTag", l.fset.Position(n.Pos()), path, n.Name.Name)
					}
				}
				return true
			})
		}
	}
	t.Logf("%d table consumers checked: %s", len(paths), strings.Join(paths, ", "))
}

// TestSendNeverPacks: a send hands over the producer's block and an owned
// input is not copied (DESIGN.md §14). funclib.ExtractRegion allocates no
// sample storage (no NewBlock, no make), and no non-test file outside
// internal/funclib calls it: a send allocates not even a view's header, and
// the one view a receive builds is funclib.Adopt's. fft_cols transforms its
// block with isspl.FFTCols, the row sweep; and every copy of one block's
// Data into another's in a non-test funclib file sits in the body of an if
// that the two blocks differ — an in-place kind handed its input as its
// output copies nothing.
func TestSendNeverPacks(t *testing.T) {
	l := newLoader()
	fl := mustLoad(t, l, "repro/internal/funclib")
	newBlock := lookup(t, fl, "NewBlock")
	block := lookup(t, fl, "Block").Type()
	impl := lookup(t, fl, "Impl").Type()
	fftCols := lookup(t, mustLoad(t, l, "repro/internal/isspl"), "FFTCols")

	var extract *ast.FuncDecl
	for _, f := range fl.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "ExtractRegion" {
				extract = fd
			}
		}
	}
	if extract == nil {
		t.Fatal("internal/funclib declares no ExtractRegion; update this gate with the rename")
	}
	ast.Inspect(extract.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && (callee(fl.info, c) == newBlock || isBuiltin(fl.info, c, "make")) {
			t.Errorf("%s: funclib.ExtractRegion allocates sample storage; a view shares the block's", l.fset.Position(c.Pos()))
		}
		return true
	})

	// blockVar is the *Block variable e names, if it is one.
	blockVar := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := objOf(fl.info, id); obj != nil && types.Identical(obj.Type(), types.NewPointer(block)) {
			return obj
		}
		return nil
	}
	// dataOf is the *Block variable whose Data e selects, if it does.
	dataOf := func(e ast.Expr) types.Object {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok && sel.Sel.Name == "Data" {
			return blockVar(sel.X)
		}
		return nil
	}
	// differ reports whether cond is a != b or b != a.
	differ := func(cond ast.Expr, a, b types.Object) bool {
		be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
		if !ok || be.Op != token.NEQ {
			return false
		}
		x, y := blockVar(be.X), blockVar(be.Y)
		return x == a && y == b || x == b && y == a
	}
	fftColsCalled, guarded := false, 0
	for _, f := range fl.files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.CompositeLit:
				if tv, ok := fl.info.Types[n]; !ok || !types.Identical(tv.Type, impl) || !hasKind(n, "fft_cols") {
					break
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok && isKey(kv, "Compute") {
						ast.Inspect(kv.Value, func(m ast.Node) bool {
							if c, ok := m.(*ast.CallExpr); ok && callee(fl.info, c) == fftCols {
								fftColsCalled = true
							}
							return true
						})
					}
				}
			case *ast.CallExpr:
				if !isBuiltin(fl.info, n, "copy") || len(n.Args) != 2 {
					break
				}
				dst, src := dataOf(n.Args[0]), dataOf(n.Args[1])
				if dst == nil || src == nil {
					break
				}
				ok := false
				for i := len(stack) - 2; i > 0 && !ok; i-- {
					if ifs, isIf := stack[i-1].(*ast.IfStmt); isIf && stack[i] == ifs.Body && differ(ifs.Cond, dst, src) {
						ok = true
					}
				}
				if !ok {
					t.Errorf("%s: copies %s.Data into %s.Data unconditionally; copy only when out is not in (DESIGN.md §14)",
						l.fset.Position(n.Pos()), src.Name(), dst.Name())
				}
				guarded++
			}
			return true
		})
	}
	if !fftColsCalled {
		t.Error("fft_cols does not call isspl.FFTCols; columns are transformed as row sweeps, never one at a time")
	}
	extractFn := fl.info.Defs[extract.Name]
	for _, path := range append(packagesBelow(t, "internal", "cmd", "benchmark", "examples"), "repro") {
		if path == "repro/internal/funclib" {
			continue
		}
		p := mustLoad(t, l, path)
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok && callee(p.info, c) == extractFn {
					t.Errorf("%s: calls funclib.ExtractRegion; a send hands over the block, the lane names the region", l.fset.Position(c.Pos()))
				}
				return true
			})
		}
	}
	t.Logf("%d block-to-block copies checked", guarded)
	if guarded == 0 {
		t.Fatal("internal/funclib copies no block's Data into another's; update this gate with the rename")
	}
}

// TestKindsTakePositions: a kind's ports are positions. funclib.Impl's
// Compute and Cost take their blocks as two []*Block in the kind's declared
// port order, and each runtime resolves a port's position once, when it
// builds its plan (plan.Port.Pos) or program — the paper's runtime
// "executes functions based on this ID". So no non-test file of the module
// names a map from a string to a *funclib.Block: the per-thread name map
// the runtimes once built for every Compute and Cost call.
func TestKindsTakePositions(t *testing.T) {
	l := newLoader()
	fl := mustLoad(t, l, "repro/internal/funclib")
	block := types.NewPointer(lookup(t, fl, "Block").Type())
	blocks := types.NewSlice(block)
	for _, name := range []string{"Compute", "Cost"} {
		sig, ok := member(t, fl, "Impl", name).Type().(*types.Signature)
		if !ok || sig.Params().Len() != 3 || !types.Identical(sig.Params().At(1).Type(), blocks) || !types.Identical(sig.Params().At(2).Type(), blocks) {
			t.Errorf("funclib.Impl.%s is %v; want its blocks as two []*Block in the kind's port order", name, member(t, fl, "Impl", name).Type())
		}
	}
	nameMap := func(typ types.Type) bool {
		m, ok := typ.Underlying().(*types.Map)
		if !ok {
			return false
		}
		key, ok := m.Key().Underlying().(*types.Basic)
		return ok && key.Info()&types.IsString != 0 && types.Identical(m.Elem(), block)
	}
	checked := 0
	for _, path := range append(packagesBelow(t, "internal", "cmd", "benchmark", "examples"), "repro") {
		p := mustLoad(t, l, path)
		for e, tv := range p.info.Types {
			if tv.Type != nil && nameMap(tv.Type) {
				t.Errorf("%s: a map from a name to a *funclib.Block; index the kind's blocks by port position (plan.Port.Pos)", l.fset.Position(e.Pos()))
			}
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("checked %d packages; the walk lost the tree", checked)
	}
}

// innermost returns the body of the innermost function of f around pos.
func innermost(f *ast.File, pos token.Pos) (body *ast.BlockStmt) {
	ast.Inspect(f, func(n ast.Node) bool {
		var b *ast.BlockStmt
		switch n := n.(type) {
		case *ast.FuncDecl:
			b = n.Body
		case *ast.FuncLit:
			b = n.Body
		}
		if b != nil && b.Pos() <= pos && pos < b.End() {
			body = b // pre-order: the last match is the innermost
		}
		return true
	})
	return body
}

// isKey reports whether kv's key is the field name.
func isKey(kv *ast.KeyValueExpr, name string) bool {
	id, ok := kv.Key.(*ast.Ident)
	return ok && id.Name == name
}

// hasKind reports whether an Impl literal registers the kind name.
func hasKind(lit *ast.CompositeLit, name string) bool {
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok && isKey(kv, "Kind") {
			if bl, ok := kv.Value.(*ast.BasicLit); ok && bl.Value == `"`+name+`"` {
				return true
			}
		}
	}
	return false
}

// TestDaemonMovesNoSamples: sage serve carries no samples (DESIGN.md §9). No
// non-test file of internal/serve selects an Output or Outputs, it refers to
// sagert.Run exactly once, and that call's options set ComputeIterations to
// sagert.NoSamples — wherever the options are built, nothing else sets it.
func TestDaemonMovesNoSamples(t *testing.T) {
	l := newLoader()
	sagert := mustLoad(t, l, "repro/internal/sagert")
	serve := mustLoad(t, l, "repro/internal/serve")
	run := lookup(t, sagert, "Run")
	noSamples := lookup(t, sagert, "NoSamples")
	member(t, sagert, "Result", "Output")
	member(t, sagert, "Result", "Outputs")
	member(t, sagert, "Options", "ComputeIterations")

	var calls []*ast.CallExpr
	var bodies []*ast.BlockStmt // the innermost function around each call
	uses := 0
	for _, f := range serve.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sel := serve.info.Selections[n]; sel != nil {
					if name := sel.Obj().Name(); name == "Output" || name == "Outputs" {
						t.Errorf("%s: internal/serve reads samples (.%s); no response field derives from one", l.fset.Position(n.Pos()), name)
					}
				}
			case *ast.Ident:
				if serve.info.Uses[n] == run {
					uses++
				}
			case *ast.CallExpr:
				if callee(serve.info, n) == run {
					calls = append(calls, n)
					bodies = append(bodies, innermost(f, n.Pos()))
				}
			}
			return true
		})
	}
	if len(calls) != 1 || uses != 1 {
		t.Fatalf("internal/serve refers to sagert.Run %d times and calls it %d times, want one call", uses, len(calls))
	}
	call, body := calls[0], bodies[0]
	if len(call.Args) != 3 {
		t.Fatalf("%s: sagert.Run with %d arguments; update this gate", l.fset.Position(call.Pos()), len(call.Args))
	}
	// The options literals that reach the call, and no other write.
	var lits []*ast.CompositeLit
	switch arg := ast.Unparen(call.Args[2]).(type) {
	case *ast.CompositeLit:
		lits = append(lits, arg)
	case *ast.Ident:
		opts := objOf(serve.info, arg)
		assign := func(lhs ast.Expr, rhs ast.Expr) {
			switch lhs := ast.Unparen(lhs).(type) {
			case *ast.Ident:
				if objOf(serve.info, lhs) != opts {
					return
				}
				if lit, ok := ast.Unparen(rhs).(*ast.CompositeLit); ok {
					lits = append(lits, lit)
				} else {
					t.Errorf("%s: the options sagert.Run gets are not a literal here", l.fset.Position(lhs.Pos()))
				}
			case *ast.SelectorExpr:
				if id, ok := ast.Unparen(lhs.X).(*ast.Ident); ok && objOf(serve.info, id) == opts && lhs.Sel.Name == "ComputeIterations" {
					t.Errorf("%s: the options' ComputeIterations is set apart from their literal", l.fset.Position(lhs.Pos()))
				}
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if len(n.Rhs) == len(n.Lhs) {
						assign(lhs, n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						assign(name, n.Values[i])
					}
				}
			case *ast.UnaryExpr:
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok && n.Op == token.AND && objOf(serve.info, id) == opts {
					t.Errorf("%s: the options' address is taken; they are built in one literal", l.fset.Position(n.Pos()))
				}
			}
			return true
		})
	default:
		t.Fatalf("%s: sagert.Run's options are neither a literal nor a local; update this gate", l.fset.Position(call.Pos()))
	}
	if len(lits) == 0 {
		t.Fatalf("%s: no options literal reaches sagert.Run", l.fset.Position(call.Pos()))
	}
	for _, lit := range lits {
		ok := false
		for _, el := range lit.Elts {
			kv, isKV := el.(*ast.KeyValueExpr)
			if !isKV || !isKey(kv, "ComputeIterations") {
				continue
			}
			switch v := ast.Unparen(kv.Value).(type) {
			case *ast.SelectorExpr:
				ok = serve.info.Uses[v.Sel] == noSamples
			case *ast.Ident:
				ok = serve.info.Uses[v] == noSamples
			}
		}
		if !ok {
			t.Errorf("%s: the daemon's sagert.Run options do not say ComputeIterations: sagert.NoSamples", l.fset.Position(lit.Pos()))
		}
	}
}

// TestAlterRunsOnSlots: Alter's locals are frame slots (DESIGN.md §16). The
// two global tables — the shared library's Library.vals and an
// interpreter's own cells, Interp.own — are the only storage of
// internal/alter whose type holds a name-keyed value map — map[Symbol]Value
// or map[Symbol]*Value — in any variable, field, parameter, result or named
// type.
func TestAlterRunsOnSlots(t *testing.T) {
	l := newLoader()
	alter := mustLoad(t, l, "repro/internal/alter")
	symbol := lookup(t, alter, "Symbol").Type()
	value := lookup(t, alter, "Value").Type()
	tables := []types.Object{member(t, alter, "Library", "vals"), member(t, alter, "Interp", "own")}
	nameKeyed := func(m *types.Map) bool {
		if !types.Identical(m.Key(), symbol) {
			return false
		}
		e := m.Elem()
		if p, ok := e.(*types.Pointer); ok {
			e = p.Elem()
		}
		return types.Identical(e, value)
	}
	// holds reports whether typ contains a name-keyed value map, without
	// entering named types or struct fields (each is checked where it is
	// declared).
	var holds func(typ types.Type) bool
	holds = func(typ types.Type) bool {
		switch t := typ.(type) {
		case *types.Map:
			return nameKeyed(t) || holds(t.Key()) || holds(t.Elem())
		case *types.Pointer:
			return holds(t.Elem())
		case *types.Slice:
			return holds(t.Elem())
		case *types.Array:
			return holds(t.Elem())
		case *types.Chan:
			return holds(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					if holds(tup.At(i).Type()) {
						return true
					}
				}
			}
		}
		return false
	}
	for _, table := range tables {
		if !holds(table.Type()) {
			t.Fatalf("%s is not a name-keyed value map; update this gate with the change", table.Name())
		}
	}
	for _, f := range alter.files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := alter.info.Defs[id]
			if obj == nil || slices.Contains(tables, obj) {
				return true
			}
			typ := obj.Type()
			if tn, ok := obj.(*types.TypeName); ok {
				typ = tn.Type().Underlying()
			}
			if holds(typ) {
				t.Errorf("%s: %s holds a name-keyed value map; locals are frame slots, and Library.vals and Interp.own are the global tables",
					l.fset.Position(id.Pos()), id.Name)
			}
			return true
		})
	}
}

// TestTableReadBuildsNoValueTree: gluegen reads its table source straight
// into Tables (DESIGN.md §16). Nothing reachable from
// gluegen.ParseTableSource through static calls — across every module
// package gluegen loads, a call in a function literal counting for the
// function that contains it — calls alter.ReadAll or ReadOne or builds an
// alter.List: a composite literal, make, conversion or append of that type.
// The one exception is a parameter's value, which (*gluegen.tableReader).params
// reads whole with (*alter.Scanner).Read; the walk does not follow that call.
// The gate checks that params still calls Read and that Read and ReadAll
// still reach a function that builds a List, so a rename cannot leave it
// guarding nothing.
func TestTableReadBuildsNoValueTree(t *testing.T) {
	l := newLoader()
	gg := mustLoad(t, l, "repro/internal/gluegen")
	al := mustLoad(t, l, "repro/internal/alter")
	list := lookup(t, al, "List").Type()
	readers := map[*types.Func]bool{
		lookup(t, al, "ReadAll").(*types.Func): true,
		lookup(t, al, "ReadOne").(*types.Func): true,
	}
	read := member(t, al, "Scanner", "Read").(*types.Func)
	params := member(t, gg, "tableReader", "params").(*types.Func)
	root := lookup(t, gg, "ParseTableSource").(*types.Func)

	// Where each function builds a List.
	builds := map[*types.Func][]string{}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					var made bool
					switch n := n.(type) {
					case *ast.CompositeLit:
						made = true
					case *ast.CallExpr:
						made = isBuiltin(p.info, n, "make") || isBuiltin(p.info, n, "append") || p.info.Types[n.Fun].IsType()
					}
					if e, ok := n.(ast.Expr); ok && made && types.Identical(p.info.TypeOf(e), list) {
						builds[fn] = append(builds[fn], l.fset.Position(e.Pos()).String())
					}
					return true
				})
			}
		}
	}
	calls := staticCalls(slices.Collect(maps.Values(l.pkgs)))
	buildsList := func(root *types.Func) bool {
		reached, _ := reachable(calls, root)
		return slices.ContainsFunc(reached, func(fn *types.Func) bool { return len(builds[fn]) > 0 })
	}
	for fn := range readers {
		if !buildsList(fn) {
			t.Errorf("%s reaches no function that builds an alter.List; update this gate with the change", qualified(fn))
		}
	}
	if !buildsList(read) {
		t.Errorf("%s reaches no function that builds an alter.List; update this gate with the change", qualified(read))
	}
	if !slices.Contains(calls[params], read) {
		t.Errorf("%s does not call %s; update this gate with the rename", qualified(params), qualified(read))
	}
	calls[params] = slices.DeleteFunc(slices.Clone(calls[params]), func(c *types.Func) bool { return c == read })

	order, via := reachable(calls, root)
	for _, fn := range order {
		for _, c := range calls[fn] {
			if readers[c] {
				t.Errorf("%s calls %s, reached from the table reader (%s); table source is read in one typed pass",
					qualified(fn), qualified(c), callPath(via, fn))
			}
		}
		for _, where := range builds[fn] {
			t.Errorf("%s: %s builds an alter.List, reached from the table reader (%s); only a parameter's value is read as a datum",
				where, qualified(fn), callPath(via, fn))
		}
	}
	t.Logf("%d functions reachable from %s", len(order), qualified(root))
}

// TestKernelStepTouchesNoSamples: the kernel's step machine decides where
// samples go and moves none (DESIGN.md §14, "sample tasks"). No function
// reachable from (*sagert.thread).step through static calls — across every
// module package sagert loads, a call in a function literal counting for the
// function that contains it — calls funclib.CopyRegion, StoreSink or
// FillSource, or a funclib.Impl's Compute field. The sample task's body,
// (*sagert.taskRunner).run, is where they run: the gate checks that it still
// reaches CopyRegion, StoreSink and Compute (FillSource is source_matrix's
// Compute), so a rename cannot leave it guarding nothing.
func TestKernelStepTouchesNoSamples(t *testing.T) {
	l := newLoader()
	sage := mustLoad(t, l, "repro/internal/sagert")
	fl := mustLoad(t, l, "repro/internal/funclib")
	compute := member(t, fl, "Impl", "Compute")
	sampleWork := map[types.Object]string{compute: "a funclib.Impl's Compute"}
	for _, name := range []string{"CopyRegion", "StoreSink", "FillSource"} {
		sampleWork[lookup(t, fl, name)] = "funclib." + name
	}
	step := member(t, sage, "thread", "step").(*types.Func)
	body := member(t, sage, "taskRunner", "run").(*types.Func)

	// The static call graph, and where each function does sample work.
	calls := map[*types.Func][]*types.Func{}
	touches := map[*types.Func][]string{}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					c, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					// A field selection (Impl.Compute) or a static callee.
					var to types.Object
					if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok && p.info.Selections[sel] != nil {
						to = p.info.Selections[sel].Obj()
					}
					if g := callee(p.info, c); g != nil {
						to = g
						calls[fn] = append(calls[fn], g)
					}
					if what, ok := sampleWork[to]; ok {
						touches[fn] = append(touches[fn], l.fset.Position(c.Pos()).String()+": "+what)
					}
					return true
				})
			}
		}
	}
	order, via := reachable(calls, step)
	for _, fn := range order {
		for _, where := range touches[fn] {
			t.Errorf("%s, reached from the kernel's step (%s); sample work runs in the thread's sample task", where, callPath(via, fn))
		}
	}
	t.Logf("%d functions reachable from %s", len(order), qualified(step))

	seen := map[string]bool{}
	bodyOrder, _ := reachable(calls, body)
	for _, fn := range bodyOrder {
		for _, where := range touches[fn] {
			seen[where[strings.LastIndex(where, ": ")+2:]] = true
		}
	}
	for _, what := range []string{"funclib.CopyRegion", "funclib.StoreSink", "a funclib.Impl's Compute"} {
		if !seen[what] {
			t.Errorf("%s does not reach %s; update this gate with the rename", qualified(body), what)
		}
	}
}

// reachable walks a static call graph from root breadth first, recording
// the caller each function is first reached from.
func reachable(calls map[*types.Func][]*types.Func, root *types.Func) (order []*types.Func, via map[*types.Func]*types.Func) {
	via = map[*types.Func]*types.Func{root: nil}
	order = []*types.Func{root}
	for i := 0; i < len(order); i++ {
		for _, c := range calls[order[i]] {
			if _, seen := via[c]; !seen {
				via[c] = order[i]
				order = append(order, c)
			}
		}
	}
	return order, via
}

// callPath renders the chain of calls reachable recorded from its root to fn.
func callPath(via map[*types.Func]*types.Func, fn *types.Func) string {
	path := qualified(fn)
	for p := via[fn]; p != nil; p = via[p] {
		path = qualified(p) + " → " + path
	}
	return path
}

// TestRtlIterationAllocatesNoBlocks: the generated program's iteration loop
// writes only blocks the layout chose (DESIGN.md §14, "physical buffers").
// Nothing reachable from (*rtl.exec).threadMain through static calls —
// across every module package rtl loads, a call in a function literal
// counting for the function that contains it — calls funclib.NewBlock,
// funclib.Landing or Assemble (which reach NewBlock) or isspl.NewMatrix: the
// loop lands payloads with funclib.Land on a storage's block. The one
// exception is (*rtl.exec).resultMatrix, the only caller of NewMatrix the
// loop reaches: an iteration's result matrix is the run's output, not a
// block, and is allocated when its first writer needs it. The gate checks
// that (*rtl.exec).allocate, where a thread's storages get their blocks,
// still reaches NewBlock, and resultMatrix still calls NewMatrix, so a rename
// cannot leave it guarding nothing.
func TestRtlIterationAllocatesNoBlocks(t *testing.T) {
	l := newLoader()
	rtl := mustLoad(t, l, "repro/internal/codegen/rtl")
	fl := mustLoad(t, l, "repro/internal/funclib")
	newBlock := lookup(t, fl, "NewBlock").(*types.Func)
	newMatrix := lookup(t, mustLoad(t, l, "repro/internal/isspl"), "NewMatrix").(*types.Func)
	allocs := map[*types.Func]bool{
		newBlock:                                true,
		lookup(t, fl, "Landing").(*types.Func):  true,
		lookup(t, fl, "Assemble").(*types.Func): true,
		newMatrix:                               true,
	}
	loop := member(t, rtl, "exec", "threadMain").(*types.Func)
	allocate := member(t, rtl, "exec", "allocate").(*types.Func)
	result := member(t, rtl, "exec", "resultMatrix").(*types.Func)

	calls := staticCalls(slices.Collect(maps.Values(l.pkgs)))
	order, via := reachable(calls, loop)
	for _, fn := range order {
		for _, c := range calls[fn] {
			if allocs[c] && !(fn == result && c == newMatrix) {
				t.Errorf("%s calls %s, reached from the iteration loop (%s); a block is the layout's, allocated before the loop",
					qualified(fn), qualified(c), callPath(via, fn))
			}
		}
	}
	t.Logf("%d functions reachable from %s", len(order), qualified(loop))
	if reached, _ := reachable(calls, allocate); !slices.Contains(reached, newBlock) {
		t.Errorf("%s does not reach %s; update this gate with the rename", qualified(allocate), qualified(newBlock))
	}
	if !slices.Contains(calls[result], newMatrix) {
		t.Errorf("%s does not call %s; update this gate with the rename", qualified(result), qualified(newMatrix))
	}
}

// TestOnlyFunclibSetsLayouts: a block's layout — its (RowStride, ColStride)
// pair — comes only from funclib's own views (ExtractRegion, TransposedView,
// ResultView; DESIGN.md §14). No non-test file of a module package outside
// internal/funclib assigns either field, increments it, takes its address or
// names it in a composite literal, so no runtime invents a layout the copy
// kernels and the at-its-place test were not written for.
func TestOnlyFunclibSetsLayouts(t *testing.T) {
	l := newLoader()
	fl := mustLoad(t, l, "repro/internal/funclib")
	strides := map[types.Object]bool{
		member(t, fl, "Block", "RowStride"): true,
		member(t, fl, "Block", "ColStride"): true,
	}
	paths := append(packagesBelow(t, "internal", "cmd", "benchmark", "examples"), "repro")
	for _, path := range paths {
		if path == "repro/internal/funclib" {
			continue
		}
		p := mustLoad(t, l, path)
		// stride reports whether e selects a stride field.
		stride := func(e ast.Expr) bool {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			return ok && strides[p.info.Uses[sel.Sel]]
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				var at ast.Node
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if stride(lhs) {
							at = lhs
						}
					}
				case *ast.IncDecStmt:
					if stride(n.X) {
						at = n
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND && stride(n.X) {
						at = n
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok && strides[p.info.Uses[id]] {
						at = n
					}
				}
				if at != nil {
					t.Errorf("%s: %s sets a block's layout; only funclib's views do (ExtractRegion, TransposedView, ResultView)",
						l.fset.Position(at.Pos()), path)
				}
				return true
			})
		}
	}
	t.Logf("%d packages checked", len(paths))
}

// goAllowance is a module-relative path prefix where a non-test go
// statement may appear, and why.
type goAllowance struct{ prefix, why string }

var goAllowed = []goAllowance{
	{"internal/pool/", "the two fan-out shapes: the ordered worker pool and static striding"},
	{"internal/sagert/samples.go", "sample tasks beside the kernel's step"},
	{"internal/codegen/rtl/", "the generated program's one goroutine per SAGE thread"},
	{"internal/serve/serve.go", "the daemon's long-lived worker fleet"},
	{"cmd/sage/serve.go", "the daemon's listener"},
	{"cmd/sage/load.go", "the load generator's concurrent clients"},
	{"benchmark/", "the repo benchmark's closed-loop clients"},
}

// TestGoStatementsOnlyInPools: concurrency composes through one fan-out
// primitive (ROADMAP 13). A non-test go statement appears only under a
// goAllowed prefix; anywhere else a stage starts goroutines of its own
// beside the pool, which nests badly inside a pool worker. Every prefix
// must still hold one, so the list cannot outlive what it allows.
func TestGoStatementsOnlyInPools(t *testing.T) {
	fset := token.NewFileSet()
	used := make([]bool, len(goAllowed))
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		ast.Inspect(f, func(n ast.Node) bool {
			if _, ok := n.(*ast.GoStmt); !ok {
				return true
			}
			i := slices.IndexFunc(goAllowed, func(a goAllowance) bool { return strings.HasPrefix(rel, a.prefix) })
			if i < 0 {
				t.Errorf("%s: go statement outside the fan-out primitives; run the work on internal/pool", fset.Position(n.Pos()))
			} else {
				used[i] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range goAllowed {
		if !used[i] {
			t.Errorf("%s (%s) holds no go statement any more: drop it from goAllowed", a.prefix, a.why)
		}
	}
}

// TestNoNewShardCallers: sagert.Options.Shards, ShardWeights and ProbeAll
// are ignored fields, kept only for the benchmark's wide1024 shard2
// and design8 ct512t classes until ROADMAP 1(c) drops those lines, and
// twin.ShardWeights, the twin's per-node busy forecast, is what the shard2
// class feeds them. So no Go file outside benchmark/, test files included,
// names a Shards field — as a selector or a composite literal key — or
// anything called ShardWeights or ProbeAll, other than those four
// declarations. The name predates the ProbeAll row; the gate goes with the
// three fields.
func TestNoNewShardCallers(t *testing.T) {
	// The declarations the gate allows: the three fields and the function.
	fields := map[string]bool{"internal/sagert/sagert.go Shards": true, "internal/sagert/sagert.go ShardWeights": true,
		"internal/sagert/sagert.go ProbeAll": true}
	funcs := map[string]bool{"internal/twin/twin.go ShardWeights": true}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "benchmark" || path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		flag := func(id *ast.Ident) {
			t.Errorf("%s: names the ignored %s; only benchmark/ may, until ROADMAP 1(c) drops its last setters", fset.Position(id.Pos()), id.Name)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if key := rel + " " + n.Name.Name; funcs[key] {
					seen[key], declared[n.Name] = true, true
				}
			case *ast.Field:
				for _, id := range n.Names {
					if key := rel + " " + id.Name; fields[key] {
						seen[key], declared[id] = true, true
					}
				}
			case *ast.SelectorExpr:
				if n.Sel.Name == "Shards" {
					flag(n.Sel)
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok && id.Name == "Shards" {
					flag(id)
				}
			case *ast.Ident:
				if (n.Name == "ShardWeights" || n.Name == "ProbeAll") && !declared[n] {
					flag(n)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []map[string]bool{fields, funcs} {
		for d := range m {
			if !seen[d] {
				t.Errorf("%s is no longer declared: drop it from the gate, and the gate once nothing is left", d)
			}
		}
	}
}

package gluegen_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/alter"
	"repro/internal/apps"
	"repro/internal/conformance"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/platforms"
)

// matchReference fails t unless ParseTableSource and the reference parser
// give src the same verdict and, when both accept it, reflect.DeepEqual
// tables — nil against empty slices and the Go types of parameter values
// included — except that a NaN parameter value equals a NaN.
func matchReference(t *testing.T, name, src string) {
	t.Helper()
	got, err := gluegen.ParseTableSource(src)
	want, refErr := gluegen.ReferenceParseTableSource(src)
	switch {
	case (err == nil) != (refErr == nil):
		t.Errorf("%s: ParseTableSource says %v, the reference %v", name, err, refErr)
	case err == nil && !sameTables(got, want):
		t.Errorf("%s: tables differ from the reference's:\n%+v\n--- reference\n%+v", name, got, want)
	}
}

// sameTables is reflect.DeepEqual with NaN parameter values equal.
func sameTables(a, b *gluegen.Tables) bool {
	ac, bc := *a, *b
	ac.Functions, bc.Functions = slices.Clone(a.Functions), slices.Clone(b.Functions)
	for _, fs := range [][]gluegen.FuncEntry{ac.Functions, bc.Functions} {
		for i := range fs {
			fs[i].Params = nil
		}
	}
	if !reflect.DeepEqual(ac, bc) {
		return false
	}
	for i, f := range a.Functions {
		p, q := f.Params, b.Functions[i].Params
		if len(p) != len(q) || (p == nil) != (q == nil) {
			return false
		}
		for k, v := range p {
			if w, ok := q[k]; !ok || !sameParam(v, w) {
				return false
			}
		}
	}
	return true
}

func sameParam(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && (x == y || x != x && y != y)
	case alter.List:
		y, ok := b.(alter.List)
		if !ok || len(x) != len(y) || (x == nil) != (y == nil) {
			return false
		}
		for i := range x {
			if !sameParam(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a, b)
}

// fuzzSeeds is every committed corpus entry of the two table-parser fuzz
// targets, by file name.
func fuzzSeeds(t testing.TB) map[string]string {
	seeds := map[string]string{}
	for _, target := range []string{"FuzzParseTableSource", "FuzzParseTableSourceMatchesReference"} {
		files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no %s corpus (%v)", target, err)
		}
		for _, f := range files {
			seeds[target+"/"+filepath.Base(f)] = gluegen.DecodeFuzzCorpus(t, f)
		}
	}
	return seeds
}

// generatedSources is the table source of every committed conformance corpus
// case, 32 seeded conformance graphs and the two shapes the repo benchmark
// generates, by name.
func generatedSources(t *testing.T) map[string]string {
	srcs := map[string]string{}
	gen := func(name string, in gluegen.Input) {
		out, err := gluegen.Generate(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		srcs[name] = out.TableSource
	}
	fromCase := func(name string, c *conformance.Case) {
		pl, err := platforms.ByName(c.Platform)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gen(name, gluegen.Input{App: c.App, Mapping: c.Mapping, Platform: pl, NumNodes: c.Nodes})
	}
	files, err := filepath.Glob("../conformance/testdata/corpus/*.case")
	if err != nil || len(files) < 6 {
		t.Fatalf("%d corpus cases (%v)", len(files), err)
	}
	for _, f := range files {
		c, err := conformance.ReadCaseFile(f)
		if err != nil {
			t.Fatal(err)
		}
		fromCase(filepath.Base(f), c)
	}
	for seed := int64(0); seed < 32; seed++ {
		c, err := conformance.Generate(seed, conformance.GenConfig{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		fromCase(fmt.Sprintf("seed%d", seed), c)
	}
	for _, shape := range []struct {
		name       string
		n, threads int
		nodes      int
		place      func(*model.App, int) (*model.Mapping, error)
		platform   string
	}{
		{"fft512.cspi8", 512, 8, 8, model.SpreadParallel, "CSPI"},
		{"fft256.mercury1024", 256, 64, 1024, model.StaggerParallel, "Mercury"},
	} {
		app, err := apps.FFT2D(shape.n, shape.threads)
		if err != nil {
			t.Fatal(err)
		}
		m, err := shape.place(app, shape.nodes)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := platforms.ByName(shape.platform)
		if err != nil {
			t.Fatal(err)
		}
		gen(shape.name, gluegen.Input{App: app, Mapping: m, Platform: pl, NumNodes: shape.nodes})
	}
	return srcs
}

// TestParseTableSourceMatchesReference holds the one-pass table reader to
// the ReadAll-walking parser it replaced, on every committed fuzz seed (the
// golden source among them) and hand edge case, every generated source
// above, and — for the sources of up to 64 lines — each of them with one
// line dropped and cut short after every line.
func TestParseTableSourceMatchesReference(t *testing.T) {
	srcs := generatedSources(t)
	for name, src := range fuzzSeeds(t) {
		srcs[name] = src
	}
	cases := 0
	for name, src := range srcs {
		matchReference(t, name, src)
		cases++
		lines := strings.SplitAfter(src, "\n")
		if len(lines) > 64 {
			continue
		}
		for i := range lines {
			dropped := strings.Join(lines[:i], "") + strings.Join(lines[i+1:], "")
			matchReference(t, fmt.Sprintf("%s without line %d", name, i+1), dropped)
			matchReference(t, fmt.Sprintf("%s cut after line %d", name, i+1), strings.Join(lines[:i+1], ""))
			cases += 2
		}
	}
	t.Logf("%d sources", cases)
}

// FuzzParseTableSourceMatchesReference: on any input the one-pass table
// reader and the reference parser agree on the verdict, and on the tables
// when both accept.
func FuzzParseTableSourceMatchesReference(f *testing.F) {
	for _, src := range fuzzSeeds(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		matchReference(t, "input", src)
	})
}

package gluegen_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/conformance"
	"repro/internal/gluegen"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/platforms"
)

// referenceStandardScript is StandardScript as it was before its (range
// num-arcs) and (range st) lists were bound once: the edits undone, each
// found exactly once.
func referenceStandardScript(t *testing.T) string {
	t.Helper()
	src := gluegen.StandardScript
	for _, edit := range [][2]string{
		{"(define arc-ids (range num-arcs))\n", ""},
		{"          arc-ids))\n\n(define (emit-port", "          (range num-arcs)))\n\n(define (emit-port"},
		{"(let* ((sthreads (range st))\n                  (sregs", "(let ((sthreads (range st))\n                 (sregs"},
		{`                             nil
                             (map (lambda (i) (partition ss rows cols st i))
                                  sthreads))))`, `                            nil
                            (map (lambda (i) (partition ss rows cols st i))
                                 (range st)))))`},
		{" arc-ids)\n(emit-src \"\")", " (range num-arcs))\n(emit-src \"\")"},
	} {
		if strings.Count(src, edit[0]) != 1 {
			t.Fatalf("StandardScript holds %q %d times, want once", edit[0], strings.Count(src, edit[0]))
		}
		src = strings.Replace(src, edit[0], edit[1], 1)
	}
	return src
}

// TestStandardScriptMatchesReference: binding the script's range lists once
// changes nothing it writes — TableSource and GlueSource byte for byte and
// Tables deep-equal — over every conformance corpus case, 32 generated
// ones, and the repo benchmark's two shapes: fft2d 256 on 64 threads a
// stage staggered over 1 024 Mercury nodes, and on 4 threads spread over 8
// CSPI nodes.
func TestStandardScriptMatchesReference(t *testing.T) {
	ref := referenceStandardScript(t)
	type input struct {
		name string
		in   gluegen.Input
	}
	var inputs []input
	files, err := filepath.Glob("../conformance/testdata/corpus/*.case")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus cases (%v)", err)
	}
	var cases []*conformance.Case
	for _, f := range files {
		c, err := conformance.ReadCaseFile(f)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, c)
	}
	for seed := int64(0); seed < 32; seed++ {
		c, err := conformance.Generate(seed, conformance.GenConfig{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, c)
	}
	for _, c := range cases {
		pl, err := platforms.ByName(c.Platform)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("%s seed %d", c.App.Name, c.Seed),
			gluegen.Input{App: c.App, Mapping: c.Mapping, Platform: pl, NumNodes: c.Nodes}})
	}
	for _, shape := range []struct {
		name    string
		threads int
		nodes   int
		place   func(*model.App, int) (*model.Mapping, error)
		pl      func() machine.Platform
	}{
		{"wide1024", 64, 1024, model.StaggerParallel, platforms.Mercury},
		{"serve", 4, 8, model.SpreadParallel, platforms.CSPI},
	} {
		app, err := apps.FFT2D(256, shape.threads)
		if err != nil {
			t.Fatal(err)
		}
		m, err := shape.place(app, shape.nodes)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{shape.name, gluegen.Input{App: app, Mapping: m, Platform: shape.pl(), NumNodes: shape.nodes}})
	}
	for _, x := range inputs {
		got, err := gluegen.Generate(x.in)
		if err != nil {
			t.Fatalf("%s: %v", x.name, err)
		}
		want, err := gluegen.GenerateWith(x.in, ref)
		if err != nil {
			t.Fatalf("%s: the reference script: %v", x.name, err)
		}
		if got.TableSource != want.TableSource || got.GlueSource != want.GlueSource {
			t.Fatalf("%s: the generated texts differ from the reference script's", x.name)
		}
		if !reflect.DeepEqual(got.Tables, want.Tables) {
			t.Fatalf("%s: the tables differ from the reference script's", x.name)
		}
	}
}

package alter_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/alter"
	"repro/internal/apps"
	"repro/internal/conformance"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/platforms"
)

// auditScript is a user's generator pass of the kind examples/customgen
// runs ahead of the standard script, written to lean on what a generator
// written by hand would: internal defines, a while loop, let*, cond, &rest
// and closures over model objects.
const auditScript = `
(define (say &rest parts) (emit-src (apply string-append parts)))
(define (threads-of fs)
  (define total 0)
  (define rest-fs fs)
  (while (not (null? rest-fs))
    (set! total (+ total (function-threads (first rest-fs))))
    (set! rest-fs (rest rest-fs)))
  total)
(say ";; audit of " (app-name) " on " (platform-name) ": " (threads-of (functions)) " threads")
(for-each
 (lambda (f)
   (let* ((n (function-threads f))
          (nodes (map (lambda (i) (node-of f i)) (range n)))
          (spread (length (filter (lambda (k) (not (equal? k (first nodes)))) nodes))))
     (say ";;   " (function-name f) " "
          (cond ((= n 1) "serial")
                ((= spread 0) "parallel on one node")
                (else (format "parallel, ~a threads off node ~a" spread (first nodes))))
          " " (function-params f))))
 (functions))
(define (widest best as)
  (cond ((null? as) best)
        ((> (port-rows (arc-from (first as))) (port-rows (arc-from best))) (widest (first as) (rest as)))
        (else (widest best (rest as)))))
(when (> (length (arcs)) 0)
  (say ";; widest arc leaves " (port-name (arc-from (widest (first (arcs)) (arcs))))))
`

// TestStandardScriptMatchesReference runs the stock generator, and a custom
// one, through the compiled evaluator (as gluegen runs them) and through the
// reference tree walker over every committed conformance corpus case, 32
// seeded conformance graphs and the two shapes the repo benchmark generates:
// the table source and the glue listing must agree byte for byte.
func TestStandardScriptMatchesReference(t *testing.T) {
	var inputs []gluegen.Input
	var names []string
	add := func(name string, in gluegen.Input) {
		names, inputs = append(names, name), append(inputs, in)
	}
	files, err := filepath.Glob("../conformance/testdata/corpus/*.case")
	if err != nil || len(files) < 6 {
		t.Fatalf("%d corpus cases (%v)", len(files), err)
	}
	fromCase := func(name string, c *conformance.Case) {
		pl, err := platforms.ByName(c.Platform)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		add(name, gluegen.Input{App: c.App, Mapping: c.Mapping, Platform: pl, NumNodes: c.Nodes})
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
	design, err := apps.FFT2D(512, 8)
	if err != nil {
		t.Fatal(err)
	}
	spread, err := model.SpreadParallel(design, 8)
	if err != nil {
		t.Fatal(err)
	}
	add("fft512.cspi8", gluegen.Input{App: design, Mapping: spread, Platform: platforms.CSPI(), NumNodes: 8})
	wide, err := apps.FFT2D(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	stagger, err := model.StaggerParallel(wide, 1024)
	if err != nil {
		t.Fatal(err)
	}
	add("fft256.mercury1024", gluegen.Input{App: wide, Mapping: stagger, Platform: platforms.Mercury(), NumNodes: 1024})

	for i, in := range inputs {
		for _, script := range []struct{ name, src string }{
			{"standard", gluegen.StandardScript},
			{"custom", auditScript + gluegen.StandardScript},
		} {
			out, err := gluegen.GenerateWith(in, script.src)
			if err != nil {
				t.Fatalf("%s/%s: %v", names[i], script.name, err)
			}
			base, tables, glue := gluegen.NewInterp(in)
			if _, err := alter.NewReference(base).RunString(script.src); err != nil {
				t.Fatalf("%s/%s: reference: %v", names[i], script.name, err)
			}
			if tables.String() != out.TableSource {
				t.Errorf("%s/%s: table source differs from the reference evaluator's", names[i], script.name)
			}
			if glue.String() != out.GlueSource {
				t.Errorf("%s/%s: glue listing differs from the reference evaluator's:\n%s\n--- reference\n%s",
					names[i], script.name, out.GlueSource, glue.String())
			}
			if script.name == "custom" && !strings.Contains(out.GlueSource, ";; audit of ") {
				t.Errorf("%s: the custom script left no trace:\n%s", names[i], out.GlueSource)
			}
		}
	}
}

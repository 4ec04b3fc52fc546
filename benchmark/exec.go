package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"sort"

	"repro/internal/codegen"
	"repro/internal/codegen/rtl"
	"repro/internal/conformance"
	"repro/internal/gluegen"
	"repro/internal/isspl"
	"repro/internal/platforms"
)

// exec8 runs the generated program for real: one goroutine per SAGE thread,
// channels for MPI, the function library on real samples every iteration.
type exec8 struct {
	tables  map[string]*gluegen.Tables // fft512x, ct512x
	want    map[string][]byte          // sha-256 of the oracle rendered as canonical text
	emitRef []byte                     // first emission of the fft program
	iters   int
}

func setupExec8(seed int64) (*instance, error) {
	w := &exec8{tables: map[string]*gluegen.Tables{}, want: map[string][]byte{}, iters: 5}
	pl := platforms.CSPI()
	for name, app := range map[string]string{"fft512x": "fft2d", "ct512x": "cornerturn"} {
		s := desShape{app: app, n: 512, threads: 8, nodes: 8, pl: pl, iters: w.iters, seed: seed}
		gen, err := s.generate(nil)
		if err != nil {
			return nil, fmt.Errorf("exec8 %s tables: %w", name, err)
		}
		w.tables[name] = gen.Tables
		if w.want[name], err = oracleDigest(s); err != nil {
			return nil, fmt.Errorf("exec8 %s oracle: %w", name, err)
		}
	}
	prog, err := codegen.Plan(w.tables["fft512x"], w.iters)
	if err != nil {
		return nil, err
	}
	if w.emitRef, err = codegen.EmitSource(prog); err != nil {
		return nil, err
	}
	inst := &instance{name: "exec8", primary: "fft512x", clients: 1, close: func() {}, report: w.report}
	for _, name := range []string{"fft512x", "ct512x"} {
		name := name
		inst.classes = append(inst.classes, class{
			name: name,
			run:  func(t *opTrace, _ int64) (*output, error) { return w.op(name, t) },
			check: func(out *output) error {
				if !bytes.Equal(out.body, w.want[name]) {
					return fmt.Errorf("output digest %x, oracle %x", out.body, w.want[name])
				}
				return nil
			},
		})
	}
	inst.classes = append(inst.classes, class{
		name: "emit",
		run: func(t *opTrace, _ int64) (*output, error) {
			t.start("codegen.Plan")
			prog, err := codegen.Plan(w.tables["fft512x"], w.iters)
			t.end()
			if err != nil {
				return nil, err
			}
			t.start("codegen.EmitSource")
			src, err := codegen.EmitSource(prog)
			t.end()
			return &output{body: src}, err
		},
		check: func(out *output) error {
			if !bytes.Equal(out.body, w.emitRef) {
				return fmt.Errorf("emitted source (%d bytes) differs from the first emission (%d bytes)", len(out.body), len(w.emitRef))
			}
			return nil
		},
	})
	return inst, warmUp(inst, seed)
}

// op plans, executes and renders one program, and digests the rendering.
func (w *exec8) op(name string, t *opTrace) (*output, error) {
	t.start("codegen.Plan")
	prog, err := codegen.Plan(w.tables[name], w.iters)
	t.end()
	if err != nil {
		return nil, err
	}
	t.start("rtl.Execute")
	res, err := rtl.Execute(prog)
	t.end()
	if err != nil {
		return nil, err
	}
	t.start("rtl.WriteText")
	h := sha256.New()
	err = res.WriteText(h)
	t.end()
	if err != nil {
		return nil, err
	}
	return &output{body: h.Sum(nil)}, nil
}

// oracleDigest evaluates every iteration with the single-threaded oracle and
// digests it in rtl's canonical text form ("sage-exec-output v1"), rendered
// here independently of rtl.WriteText.
func oracleDigest(s desShape) ([]byte, error) {
	app, err := s.buildApp()
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	fmt.Fprintf(h, "sage-exec-output v1\napp %s\niterations %d\n", app.Name, s.iters)
	for it := 0; it < s.iters; it++ {
		sinks, err := conformance.Oracle(app, it)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(h, "iteration %d\n", it)
		names := make([]string, 0, len(sinks))
		for name := range sinks {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			writeSink(h, name, sinks[name])
		}
	}
	fmt.Fprintln(h, "end")
	return h.Sum(nil), nil
}

// writeSink renders one sink: a header line, then one line per sample with
// the IEEE-754 bit patterns of its real and imaginary parts in hex.
func writeSink(h hash.Hash, name string, m *isspl.Matrix) {
	fmt.Fprintf(h, "sink %s %d %d\n", name, m.Rows, m.Cols)
	const digits = "0123456789abcdef"
	var line [34]byte
	line[16], line[33] = ' ', '\n'
	hex16 := func(dst []byte, v uint64) {
		for i := 15; i >= 0; i-- {
			dst[i] = digits[v&0xf]
			v >>= 4
		}
	}
	for _, v := range m.Data {
		hex16(line[:16], math.Float64bits(real(v)))
		hex16(line[17:33], math.Float64bits(imag(v)))
		h.Write(line[:])
	}
}

func (w *exec8) report(m *measurement, put func(string, float64)) {
	rec := m.rec
	put("codegen.plan_us", 1e3*median(rec.field("codegen.Plan", "fft512x", durMS)))
	put("codegen.emit_ms", median(rec.field("codegen.EmitSource", "emit", durMS)))
	put("codegen.emit_bytes", float64(len(w.emitRef)))
	put("rtl.execute_ms.fft512x", median(rec.field("rtl.Execute", "fft512x", durMS)))
	put("rtl.execute_ms.ct512x", median(rec.field("rtl.Execute", "ct512x", durMS)))
	put("rtl.write_text_ms", median(rec.field("rtl.WriteText", "fft512x", durMS)))
	put("rtl.alloc_mb.fft512x", median(rec.field("rtl.Execute", "fft512x", func(s span) float64 { return float64(s.AllocBytes) / 1e6 })))
}

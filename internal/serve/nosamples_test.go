package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/sagert"
	"repro/internal/trace"
)

// TestResponsesEqualSampledRun: the daemon's runs carry no samples, and its
// answers are byte for byte what a run of the same tables that does carry
// them — sagert's default, the daemon's before — encodes to. One request per
// feature that reaches sagert.Options or the response.
func TestResponsesEqualSampledRun(t *testing.T) {
	const faults = `"faults":"seed 9\ndrop link=* rate=0.2\nstall node=1 at=100us for=300us"`
	shapes := map[string]string{
		"plain":      `{"app":"fft2d","n":64,"threads":4,"nodes":4}`,
		"ga":         `{"app":"cornerturn","n":64,"threads":4,"nodes":4,"mapping":"ga","seed":11}`,
		"greedy":     `{"app":"stap","n":32,"threads":2,"nodes":4,"mapping":"greedy","protocol":{"iterations":1}}`,
		"sequential": `{"app":"fft2d","n":32,"threads":2,"nodes":2,"trace_summary":true,"protocol":{"iterations":3,"repetitions":3,"sequential":true}}`,
		"optimized":  `{"app":"cornerturn","n":64,"threads":4,"nodes":2,"mapping":"roundrobin","protocol":{"optimized_buffers":true}}`,
		"faulted":    `{"app":"fft2d","n":64,"threads":4,"nodes":4,"trace_summary":true,` + faults + `}`,
		"source": `{"source":"app s\ntype m 16 8 complex\ntype h 16 4 complex\nfunction a source_matrix threads 2\n  out out m rows\n` +
			`function w window_rows threads 2\n  param window kaiser\n  in in m rows\n  out out m rows\n` +
			`function d fir_decimate_rows threads 4\n  param factor 2.0\n  in in m rows\n  out out h rows\n` +
			`function z sink_matrix threads 1\n  in in h replicated\narc a.out -> w.in\narc w.out -> d.in\narc d.out -> z.in\n","nodes":4}`,
	}
	s := newTestServer(t, Config{Workers: 2})
	for name, body := range shapes {
		t.Run(name, func(t *testing.T) {
			w := do(s, http.MethodPost, "/v1/run", body)
			if w.Code != http.StatusOK {
				t.Fatalf("status %d, body %s", w.Code, w.Body.String())
			}

			var r Request
			if err := json.Unmarshal([]byte(body), &r); err != nil {
				t.Fatal(err)
			}
			if err := r.normalize(); err != nil {
				t.Fatal(err)
			}
			tables, _, pl, want, err := buildCase(&r)
			if err != nil {
				t.Fatal(err)
			}
			opts := sagert.Options{
				Iterations:       r.Protocol.Iterations,
				Sequential:       r.Protocol.Sequential,
				OptimizedBuffers: r.Protocol.OptimizedBuffers,
			}
			var plan *fault.Plan
			if r.Faults != "" {
				if plan, err = fault.ParsePlan(r.Faults); err != nil {
					t.Fatal(err)
				}
				opts.Faults = plan
			}
			if r.TraceSummary {
				opts.Collector = trace.New(want.App + " on " + pl.Name)
			}
			res, err := sagert.Run(tables, pl, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Output == nil {
				t.Fatal("the reference run carried no samples")
			}
			if err := want.setRun(res, opts.Collector, plan); err != nil {
				t.Fatal(err)
			}
			wantBody, err := encodeBody(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.Body.Bytes(), wantBody) {
				t.Fatalf("the daemon answers\n%s\na run that carries samples gives\n%s", w.Body.Bytes(), wantBody)
			}
		})
	}
}

// TestAllocCeilingSimRequest: executing one fft2d 256 request — model,
// mapping, generation, five simulated data sets, response — allocates less
// than a single 256 x 256 matrix of samples would (1.05 MB). Carrying samples
// through the first data set took five of them. Since sagert names a
// thread's process only when a tracer, a deadlock report or a panic asks it
// is 41.9 kB (45.1 kB under -race), against a bar of 44.26 kB; while every
// spawn formatted the name, 42.1 kB (45.8 kB) against 44.5 kB; while every
// thread built a map of its ports' blocks per side, 46.7 kB.
func TestAllocCeilingSimRequest(t *testing.T) {
	r := Request{App: "fft2d", N: 256, Threads: 4, Nodes: 8}
	if err := r.normalize(); err != nil {
		t.Fatal(err)
	}
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := execute(context.Background(), &r, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run() // warm one-time state (the compiled generator script) outside the measurement
	got := min(run(), run(), run())
	const matrix = 256 * 256 * 16
	t.Logf("one sim request allocates %d bytes, %.2f of a 256x256 matrix", got, float64(got)/matrix)
	if got >= matrix {
		t.Fatalf("one sim request allocates %d bytes, a 256x256 matrix is %d: the run carries samples", got, matrix)
	}
	if ceiling := 44_260 * allocSlack; float64(got) > ceiling {
		t.Fatalf("one sim request allocates %d bytes, ceiling %.0f", got, ceiling)
	}
}

// TestAllocCeilingGARequest: a request whose mapping is a GA search runs the
// search at width 1 — it executes inside a worker of a fleet that already
// fills the cores, so it fans out no goroutines of its own. One fft2d 256
// request on 8 nodes (pop 32, 40 generations) measured 1 455 allocations at
// any GOMAXPROCS (up to 1 493 under -race); scoring at GOMAXPROCS width
// measured 1 594 at GOMAXPROCS 2 and 1 924–1 988 at 8. Its one Generate no
// longer installs the Alter library nor makes a list per region: 1 110 at
// any GOMAXPROCS (1 138 under -race), 291 fewer, and the ceiling 291 lower.
func TestAllocCeilingGARequest(t *testing.T) {
	r := Request{App: "fft2d", N: 256, Threads: 4, Nodes: 8, Mapping: "ga"}
	if err := r.normalize(); err != nil {
		t.Fatal(err)
	}
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := execute(context.Background(), &r, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	run() // warm one-time state (the compiled generator script) outside the measurement
	got := min(run(), run(), run())
	const ceiling = 1229
	t.Logf("one ga request makes %d allocations (ceiling %d)", got, ceiling)
	if got > ceiling {
		t.Fatalf("one ga request makes %d allocations, ceiling %d: is the search fanning out inside a fleet worker?", got, ceiling)
	}
}

// TestAllocCeilingFaultedRequest: the daemon always traces a faulted
// request, so what the trace costs shows here. One fft2d 256 request on 8
// nodes under the canonical drop-and-stall plan, with its trace summary,
// allocated 396 488 B in 4 178 allocations while the collector grew one
// span slice by doubling, keyed wait counters by a joined string and
// formatted every span's track and transfer name afresh; with chunked
// event logs, struct wait keys and names built once it measures 182 568 B
// in 1 424 (about 206 kB and 1 665 under -race).
func TestAllocCeilingFaultedRequest(t *testing.T) {
	r := Request{App: "fft2d", N: 256, Threads: 4, Nodes: 8, Mapping: "spread", TraceSummary: true,
		Faults: "seed 9\ndrop link=* rate=0.1\nstall node=1 at=200us for=500us\n"}
	if err := r.normalize(); err != nil {
		t.Fatal(err)
	}
	run := func() (bytes, mallocs uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := execute(context.Background(), &r, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	run() // warm one-time state (the compiled generator script) outside the measurement
	bytes, mallocs := run()
	for range 2 {
		b, m := run()
		bytes, mallocs = min(bytes, b), min(mallocs, m)
	}
	const maxBytes, maxMallocs = 220_000, 1_750
	t.Logf("one faulted request allocates %d B in %d allocations (ceilings %d B, %d)", bytes, mallocs, maxBytes, maxMallocs)
	if bytes > maxBytes || mallocs > maxMallocs {
		t.Fatalf("one faulted request allocates %d B in %d allocations, ceilings %d B and %d: is the trace copying or formatting per record again?",
			bytes, mallocs, maxBytes, maxMallocs)
	}
}

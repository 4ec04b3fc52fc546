package gluegen

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/apps"
	"repro/internal/model"
	"repro/internal/platforms"
)

// wideInput is the bookkeeping-dominated shape the repo benchmark's wide1024
// workload generates: fft2d 256, 64 threads a stage, 1024 Mercury nodes.
func wideInput(t *testing.T) Input {
	t.Helper()
	app, err := apps.FFT2D(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.StaggerParallel(app, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return Input{App: app, Mapping: m, Platform: platforms.Mercury(), NumNodes: 1024}
}

// shadowingScript is the standard generator run with map and intersect
// replaced by the script's own — a define of a base-library name and a set!
// of a standard call, both of which compute what the originals do — and
// both broken once the tables are emitted. The definitions live in the run's
// interpreter: the library every run shares is never written, so this
// script's output is Generate's, and so is every later run's.
const shadowingScript = `
(define (map f l) (if (null? l) '() (cons (f (first l)) (map f (rest l)))))
(set! intersect (let ((real intersect)) (lambda (a b) (real b a))))
` + StandardScript + `
(define map 0)
(set! intersect (lambda (a b) nil))
`

// TestShadowingStaysInTheRun: a run that defines and set!s library names
// writes the tables Generate writes, and the next Generate is unchanged.
func TestShadowingStaysInTheRun(t *testing.T) {
	in := wideInput(t)
	want, err := Generate(in)
	if err != nil {
		t.Fatal(err)
	}
	shadowed, err := GenerateWith(in, shadowingScript)
	if err != nil {
		t.Fatal(err)
	}
	after, err := Generate(in)
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]*Output{"the shadowing run": shadowed, "the Generate after it": after} {
		if out.TableSource != want.TableSource || out.GlueSource != want.GlueSource {
			t.Errorf("%s writes other text than Generate", name)
		}
	}
}

// TestGenerateConcurrent: every Generate shares one compiled StandardScript
// and one library of standard calls. Goroutines generating for two different
// applications at once, half of the calls through shadowingScript, must each
// get what a serial Generate gets.
func TestGenerateConcurrent(t *testing.T) {
	var inputs [2]Input
	var want [2]*Output
	for i, build := range []func(n, threads int) (*model.App, error){apps.FFT2D, apps.CornerTurn} {
		app, err := build(64, 4)
		if err != nil {
			t.Fatal(err)
		}
		m, err := model.SpreadParallel(app, 4)
		if err != nil {
			t.Fatal(err)
		}
		inputs[i] = Input{App: app, Mapping: m, Platform: platforms.CSPI(), NumNodes: 4}
		if want[i], err = Generate(inputs[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				which := (g + k) % 2
				var out *Output
				var err error
				if (g+k/2)%2 == 0 {
					out, err = Generate(inputs[which])
				} else {
					out, err = GenerateWith(inputs[which], shadowingScript)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if out.TableSource != want[which].TableSource || out.GlueSource != want[which].GlueSource ||
					!reflect.DeepEqual(out.Tables, want[which].Tables) {
					t.Errorf("goroutine %d call %d: output differs from the serial run's", g, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// allocs is what fn costs the allocator, best of three after a warm-up run.
func allocs(t *testing.T, fn func() error) (mallocs, bytes uint64) {
	t.Helper()
	measure := func() (mallocs, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	measure() // warm one-time state outside the measurement
	mallocs, bytes = measure()
	for i := 0; i < 2; i++ {
		m, b := measure()
		mallocs, bytes = min(mallocs, m), min(bytes, b)
	}
	return mallocs, bytes
}

// TestAllocCeilingGenerate pins what a cold Generate of the 1024-node shape
// costs the allocator: 263 074 objects and 13.1 MB when Alter was a tree
// walker over map frames and the table source was re-read rune by rune;
// 58 000 and 5.0 MB compiled, on slots, with the reader slicing its source;
// 36 270 and 3.08 MB with the table source read straight into Tables;
// 23 283 and 1.74 MB with Alter reusing the frames no closure captures and
// Verify sizing its scratch once per buffer; 10 553 and 0.98 MB with every
// table line formatted straight into the table text (emit-format), which
// grows by doubling; 5 462 and 0.72 MB with the library of standard calls
// built once per process and a region one datum, not a four-element list;
// 4 771 and 0.58 MB with each text allocated once at its estimated size
// (see TestStandardSizesBound), a lambda written as the argument of
// for-each, map or filter lent to it instead of pinning its scope's frames,
// those builtins passing their arguments on the interpreter's stack, and
// strings quoted in place. The bars are those plus under 11 %, which holds
// the race detector's bookkeeping (4 997 and 0.62 MB).
func TestAllocCeilingGenerate(t *testing.T) {
	in := wideInput(t)
	mallocs, bytes := allocs(t, func() error {
		_, err := Generate(in)
		return err
	})
	t.Logf("%d allocations, %d bytes", mallocs, bytes)
	if mallocs > 5_300 {
		t.Errorf("Generate on the 1024-node shape makes %d allocations, want <= 5300", mallocs)
	}
	if bytes > 640_000 {
		t.Errorf("Generate on the 1024-node shape allocates %d bytes, want <= 640 kB", bytes)
	}
}

// TestAllocCeilingGenerateServeShape pins a cold Generate of the shape the
// daemon generates for most requests — fft2d 256, 4 threads a stage, 8 CSPI
// nodes, spread mapping — where the environment is a larger share than on
// the 1024-node shape: 817 allocations and 42.4 kB when every Generate
// registered the base library and the standard calls afresh and a region
// was a list; 526 and 29.6 kB with one library per process and the region
// datum; 325 and 17.1 kB with glue lines formatted in place
// (emit-src-format), (topo-order) called once, each text allocated once at
// its estimated size, and the lambdas of the script lent to for-each, map
// and filter (each was a fresh closure, and the frame of every scope that
// made one was kept for good); 302 and 15.9 kB with the argument stack
// allocated once at the depth the compiled script records and the script's
// (range num-arcs) and (range st) lists built once. The bars hold the race
// detector's bookkeeping (348 and 17.0 kB).
func TestAllocCeilingGenerateServeShape(t *testing.T) {
	app, err := apps.FFT2D(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.SpreadParallel(app, 8)
	if err != nil {
		t.Fatal(err)
	}
	in := Input{App: app, Mapping: m, Platform: platforms.CSPI(), NumNodes: 8}
	mallocs, bytes := allocs(t, func() error {
		_, err := Generate(in)
		return err
	})
	t.Logf("%d allocations, %d bytes", mallocs, bytes)
	if mallocs > 375 {
		t.Errorf("Generate on the serve shape makes %d allocations, want <= 375", mallocs)
	}
	if bytes > 19_000 {
		t.Errorf("Generate on the serve shape allocates %d bytes, want <= 19 kB", bytes)
	}
}

// TestStandardSizesBound: Generate allocates the table source and the glue
// listing once, at standardSizes' estimate, before the script runs. Over the
// stock applications at every size, thread count and node count below, the
// estimate is never short, so neither text grows, and never more than a
// quarter over, where growing by doubling allocates about twice the text.
func TestStandardSizesBound(t *testing.T) {
	for _, build := range []func(n, threads int) (*model.App, error){apps.FFT2D, apps.CornerTurn, apps.STAP} {
		for _, n := range []int{2, 8, 64, 1024} {
			for _, threads := range []int{1, 2, 3, 5, 8, 64} {
				app, err := build(n, threads)
				if err != nil {
					continue // more threads than rows
				}
				for _, nodes := range []int{1, 7, 16, 1024} {
					in := Input{App: app, Mapping: model.RoundRobin(app, nodes), Platform: platforms.SKY(), NumNodes: nodes}
					out, err := Generate(in)
					if err != nil {
						t.Fatal(err)
					}
					table, glue := standardSizes(in)
					for _, text := range []struct {
						name     string
						got, est int
					}{{"table source", len(out.TableSource), table}, {"glue listing", len(out.GlueSource), glue}} {
						if text.est < text.got || 4*text.est > 5*text.got {
							t.Errorf("%s n=%d threads=%d nodes=%d: %s is %d bytes, estimated %d",
								app.Name, n, threads, nodes, text.name, text.got, text.est)
						}
					}
				}
			}
		}
	}
}

// TestAllocCeilingParseTableSource: reading table source builds no value
// tree and grows no slice per transfer. The 1024-node shape's source, 4 224
// transfers, costs at most a few allocations more than an 8-thread fft2d
// 256's (21 441 and 1.98 MB when ReadAll built a list per form), and at most
// a quarter more bytes than its transfers occupy, plus a constant.
func TestAllocCeilingParseTableSource(t *testing.T) {
	parse := func(in Input) (mallocs, bytes uint64, transfers int) {
		out, err := Generate(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range out.Tables.Buffers {
			transfers += len(b.Transfers)
		}
		mallocs, bytes = allocs(t, func() error {
			_, err := ParseTableSource(out.TableSource)
			return err
		})
		return mallocs, bytes, transfers
	}
	app, err := apps.FFT2D(256, 8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.SpreadParallel(app, 8)
	if err != nil {
		t.Fatal(err)
	}
	smallMallocs, smallBytes, smallN := parse(Input{App: app, Mapping: m, Platform: platforms.CSPI(), NumNodes: 8})
	mallocs, bytes, n := parse(wideInput(t))
	t.Logf("fft2d 256/8: %d transfers, %d allocations, %d bytes; 1024-node shape: %d transfers, %d allocations, %d bytes",
		smallN, smallMallocs, smallBytes, n, mallocs, bytes)
	if n != 4224 {
		t.Fatalf("the 1024-node shape has %d transfers, want 4224; update this test with the shape", n)
	}
	if mallocs > smallMallocs+16 {
		t.Errorf("the 1024-node source makes %d allocations, the 8-thread one %d; want at most 16 more", mallocs, smallMallocs)
	}
	const constant = 16 << 10
	if limit := uint64(n)*uint64(unsafe.Sizeof(Transfer{}))*5/4 + constant; bytes > limit {
		t.Errorf("the 1024-node source allocates %d bytes, want <= %d (1.25 x its transfers + %d)", bytes, limit, constant)
	}
}

// TestWithMappingMatchesColdGenerate: re-mapping generated tables gives what
// generating from scratch with the new mapping gives, for the two benchmark
// applications and three mappings each, and leaves the original untouched.
func TestWithMappingMatchesColdGenerate(t *testing.T) {
	const nodes = 6
	pl := platforms.CSPI()
	for _, build := range []func(n, threads int) (*model.App, error){apps.FFT2D, apps.CornerTurn} {
		app, err := build(64, 4)
		if err != nil {
			t.Fatal(err)
		}
		base, err := Generate(Input{App: app, Mapping: model.RoundRobin(app, nodes), Platform: pl, NumNodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		untouched, err := Generate(Input{App: app, Mapping: model.RoundRobin(app, nodes), Platform: pl, NumNodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		spread, err := model.SpreadParallel(app, nodes)
		if err != nil {
			t.Fatal(err)
		}
		stagger, err := model.StaggerParallel(app, nodes)
		if err != nil {
			t.Fatal(err)
		}
		packed := model.NewMapping()
		for _, f := range app.Functions {
			packed.Set(f.Name, make([]int, f.Threads)...)
		}
		for name, m := range map[string]*model.Mapping{"spread": spread, "stagger": stagger, "all on node 0": packed} {
			cold, err := Generate(Input{App: app, Mapping: m, Platform: pl, NumNodes: nodes})
			if err != nil {
				t.Fatal(err)
			}
			got, err := base.Tables.WithMapping(m)
			if err != nil {
				t.Fatalf("%s/%s: %v", app.Name, name, err)
			}
			if !reflect.DeepEqual(got, cold.Tables) {
				t.Errorf("%s/%s: re-mapped tables differ from a cold Generate's", app.Name, name)
			}
			if err := got.Verify(); err != nil {
				t.Errorf("%s/%s: %v", app.Name, name, err)
			}
			// The copy owns its node lists.
			got.Functions[0].Nodes[0] = -1
			if m.Assign[app.Functions[0].Name][0] == -1 {
				t.Errorf("%s/%s: re-mapped tables alias the mapping", app.Name, name)
			}
		}
		if !reflect.DeepEqual(base.Tables, untouched.Tables) {
			t.Errorf("%s: WithMapping changed the tables it was called on", app.Name)
		}
	}
}

// TestWithMappingRefusesBadMappings: the mapping is checked against the
// tables' own function names, thread counts and node count.
func TestWithMappingRefusesBadMappings(t *testing.T) {
	base := genFor(t, apps.FFT2D, 64, 4, 4).Tables
	good := func() *model.Mapping {
		m := model.NewMapping()
		for _, f := range base.Functions {
			m.Set(f.Name, f.Nodes...)
		}
		return m
	}
	if _, err := base.WithMapping(good()); err != nil {
		t.Fatal(err)
	}
	parallel := base.Functions[1].Name
	cases := map[string]func(m *model.Mapping){
		"has no mapping":       func(m *model.Mapping) { delete(m.Assign, parallel) },
		"4 threads but 3":      func(m *model.Mapping) { m.Set(parallel, 0, 1, 2) },
		"mapped to node 4 of":  func(m *model.Mapping) { m.Set(parallel, 0, 1, 2, 4) },
		"mapped to node -1 of": func(m *model.Mapping) { m.Set(parallel, 0, -1, 2, 3) },
	}
	for want, damage := range cases {
		m := good()
		damage(m)
		if _, err := base.WithMapping(m); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("want an error holding %q, got %v", want, err)
		}
	}
}

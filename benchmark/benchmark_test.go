package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// contractFile is BENCHMARK.json as the driver reads it.
type contractFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) *contractFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contractFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return &c
}

// TestContractMatchesRegistry: BENCHMARK.json lists exactly the workloads and
// metrics the program knows, with the same units, directions and bounds.
func TestContractMatchesRegistry(t *testing.T) {
	c := readContract(t)
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	if len(c.EndToEnd) != contractEndToEnd {
		t.Fatalf("%d end-to-end metrics listed, program reports %d on every workload", len(c.EndToEnd), contractEndToEnd)
	}
	for i, m := range c.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, program has %d", len(c.PerLayer), len(perLayer))
	}
	for i, m := range c.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs all four workloads briefly, untraced and traced: nothing may
// fail, and each run reports every listed metric once and no other.
func TestSmoke(t *testing.T) {
	const d = 300 * time.Millisecond
	res, err := runEndToEnd(workloadNames, 3, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		w := res[name]
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %s", name, w.Failed, w.Attempted, w.Error)
		}
		var want []string
		for _, def := range endToEnd {
			if def.on(name) {
				want = append(want, def.Name)
			}
		}
		sort.Strings(want)
		if got := keys(w.Metrics); !reflect.DeepEqual(got, want) {
			t.Errorf("%s reports %v, want %v", name, got, want)
		}
		if v := w.Metrics["fail_ratio"].Value; v != 0 {
			t.Errorf("%s fail_ratio = %v", name, v)
		}
	}

	traces := map[string]*recorder{}
	lr, err := runTraced(3, d, traces)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Failed != 0 {
		t.Fatalf("traced run failed %d ops: %s", lr.Failed, lr.Error)
	}
	var want []string
	for _, def := range perLayer {
		want = append(want, def.Name)
	}
	sort.Strings(want)
	if got := keys(lr.Metrics); !reflect.DeepEqual(got, want) {
		t.Errorf("traced run reports %v, want %v", got, want)
	}
	if got := lr.Metrics["sagert.dispatches.seq"].Value; got != 119980 {
		t.Errorf("sagert.dispatches.seq = %v, want 119980", got)
	}
	for _, name := range workloadNames {
		if len(traces[name].spans) == 0 {
			t.Errorf("%s recorded no spans", name)
		}
	}

	// The result line carries exactly the listed metrics.
	var buf bytes.Buffer
	printLine(&buf, lr.Attempted, lr.Failed, lr.Metrics, perLayer)
	var line struct {
		Correct bool
		Metrics map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || !reflect.DeepEqual(keys(line.Metrics), want) {
		t.Errorf("result line correct=%v with %d metrics, want true with %d", line.Correct, len(line.Metrics), len(want))
	}
}

// TestMutationCountsAsFailed flips one sink sample of every design8 op and
// one byte of every serve_mix hit response: each such op must be counted as
// failed, none as completed.
func TestMutationCountsAsFailed(t *testing.T) {
	for _, name := range []string{"design8", "serve_mix"} {
		inst, err := setupFuncs[name](5)
		if err != nil {
			t.Fatal(err)
		}
		mutated := 0
		var mu sync.Mutex
		inst.mutate = func(class string, out *output) {
			if name == "serve_mix" && class != "hit" {
				return
			}
			mu.Lock()
			mutated++
			mu.Unlock()
			for _, m := range out.sinks {
				m.Data[len(m.Data)/2] += 1
			}
			if len(out.body) > 0 {
				out.body[len(out.body)/2] ^= 1
			}
		}
		m := runLoop(inst, 5, 200*time.Millisecond, nil)
		inst.close()
		if mutated == 0 || m.failed != mutated {
			t.Errorf("%s: %d ops mutated, %d counted as failed", name, mutated, m.failed)
		}
		if name == "design8" && m.completed() != 0 || len(m.lat["hit"]) != 0 {
			t.Errorf("%s: mutated ops counted as completed: %d", name, m.completed())
		}
	}
}

// TestLoadIsSeeded: the same seed issues the same op sequence; another seed
// changes the serve_mix draw and the fresh seeds but not the class shares.
func TestLoadIsSeeded(t *testing.T) {
	shares := []float64{0.40, 0.25, 0.15, 0.08, 0.07, 0.05}
	var classes []class
	for i, s := range shares {
		classes = append(classes, class{name: "c" + string(rune('0'+i)), share: s,
			run:   func(*opTrace, int64) (*output, error) { return &output{}, nil },
			check: func(*output) error { return nil }})
	}
	// What client 0 of a two-client drawn mix issued, in order.
	run := func(seed int64, d time.Duration) []issued {
		inst := &instance{name: "fake", primary: "c0", clients: 2, classes: classes}
		return runLoop(inst, seed, d, nil).sequence
	}
	a, b, c := run(11, 30*time.Millisecond), run(11, 20*time.Millisecond), run(12, 30*time.Millisecond)
	n := min(len(a), len(b), len(c))
	if n < 100 {
		t.Fatalf("only %d ops issued", n)
	}
	if !reflect.DeepEqual(a[:n], b[:n]) {
		t.Errorf("same seed, different op sequence in the first %d ops", n)
	}
	same := 0
	for i := 0; i < n; i++ {
		if a[i].fresh == c[i].fresh {
			same++
		}
	}
	if reflect.DeepEqual(a[:n], c[:n]) || same > n/100 {
		t.Errorf("different seeds: %d of %d fresh seeds equal", same, n)
	}
	// Whatever the seed, every 100 draws hold exactly the stated mix.
	for _, seed := range []int64{11, 12} {
		rng := rand.New(rand.NewSource(clientSeed(seed, 1)))
		d := newDeck(classes)
		for pass := 0; pass < 3; pass++ {
			count := map[string]int{}
			for i := 0; i < 100; i++ {
				count[d.draw(rng).name]++
			}
			for i, s := range shares {
				if got := count[classes[i].name]; got != int(s*100+0.5) {
					t.Errorf("seed %d pass %d: class %d drawn %d times in 100, want %.0f", seed, pass, i, got, s*100)
				}
			}
		}
	}
}

// TestSelfTime: a span's self time excludes what its children cover.
func TestSelfTime(t *testing.T) {
	rec := &recorder{spans: []span{
		{ID: 1, Name: "op.x", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sagert.Run", Start: 10, End: 70},
		{ID: 3, Parent: 1, Name: "gluegen.Generate", Start: 70, End: 90},
		{ID: 4, Parent: 2, Name: "trace.WriteChrome", Start: 20, End: 30},
	}}
	want := map[string]int64{"op": 20, "sagert": 50, "gluegen": 20, "trace": 10}
	if got := rec.selfByLayer(); !reflect.DeepEqual(got, want) {
		t.Errorf("self time %v, want %v", got, want)
	}
}

func syntheticResult(opsPerS, p50 float64, dispatches float64) *result {
	r := &result{Workloads: map[string]*workloadResult{}, Layers: &layerResult{Metrics: map[string]value{}}}
	for _, name := range workloadNames {
		r.Workloads[name] = &workloadResult{Attempted: 10, Metrics: map[string]value{
			"setup_s": {Value: 1}, "ops_per_s": {Value: opsPerS}, "op_p50_ms": {Value: p50}, "op_p75_ms": {Value: 2 * p50},
			"alloc_mb_per_op": {Value: 100}, "fail_ratio": {Value: 0},
		}}
	}
	for _, d := range perLayer {
		if d.Exact {
			r.Layers.Metrics[d.Name] = value{Value: 7}
		}
	}
	r.Layers.Metrics["sagert.dispatches.seq"] = value{Value: dispatches}
	return r
}

func TestCompare(t *testing.T) {
	base := syntheticResult(20, 50, 119980)
	for _, tc := range []struct {
		name string
		b    *result
		ok   bool
		want string
	}{
		{"inside bound", syntheticResult(18, 58, 119980), true, ""},
		{"better", syntheticResult(30, 30, 119980), true, "better"},
		{"outside bound", syntheticResult(20, 65, 119980), false, "worse"},
		{"inexact count", syntheticResult(20, 50, 119981), false, "inexact"},
	} {
		var buf bytes.Buffer
		if got := compareResults(base, tc.b, &buf); got != tc.ok {
			t.Errorf("%s: compare ok = %v, want %v\n%s", tc.name, got, tc.ok, buf.String())
		}
		if !strings.Contains(buf.String(), tc.want) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.want, buf.String())
		}
	}
	failed := syntheticResult(20, 50, 119980)
	failed.Workloads["exec8"].Metrics["fail_ratio"] = value{Value: 0.1}
	if compareResults(base, failed, &bytes.Buffer{}) {
		t.Error("a result with failed ops compared ok")
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

const streamReq = `{"app":"fft2d","n":32,"threads":2,"nodes":4,"seed":7,"protocol":{"stream":{"classes":[
{"name":"interactive","process":"poisson","rate":400,"frames":20,"slo_ms":20},
{"name":"batch","process":"gamma","rate":100,"shape":4,"frames":5,"weight":2}]}}}`

// TestStreamRunEndpoint: a streaming request executes, carries the SLO
// report, and repeated requests hit the cache byte-identically.
func TestStreamRunEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})

	w := do(s, http.MethodPost, "/v1/run", streamReq)
	if w.Code != http.StatusOK {
		t.Fatalf("stream run: status %d, body %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Sage-Cache"); got != "miss" {
		t.Errorf("fresh stream run: X-Sage-Cache = %q, want miss", got)
	}
	var resp Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stream == nil {
		t.Fatal("streaming response has no stream report")
	}
	if err := resp.Stream.Validate(); err != nil {
		t.Fatalf("stream report invalid: %v", err)
	}
	if resp.Stream.Offered != 25 || resp.Stream.Completed != 25 {
		t.Errorf("offered %d completed %d, want 25/25", resp.Stream.Offered, resp.Stream.Completed)
	}
	if len(resp.Stream.Classes) != 2 {
		t.Errorf("got %d class reports, want 2", len(resp.Stream.Classes))
	}
	if resp.ElapsedNs <= 0 || resp.PeriodNs <= 0 || resp.AvgLatencyNs <= 0 {
		t.Errorf("stream response missing timing: %+v", resp)
	}
	if resp.Iterations != 0 {
		t.Errorf("stream response reports batch iterations %d", resp.Iterations)
	}
	if len(resp.NodeStats) != 4 {
		t.Errorf("got %d node stats, want 4", len(resp.NodeStats))
	}

	w2 := do(s, http.MethodPost, "/v1/run", streamReq)
	if w2.Code != http.StatusOK || w2.Header().Get("X-Sage-Cache") != "hit" {
		t.Fatalf("repeat stream run: status %d, cache %q", w2.Code, w2.Header().Get("X-Sage-Cache"))
	}
	if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Error("cached stream response not byte-identical")
	}
}

// TestStreamStatsCounters: /v1/stats reflects executed streaming work —
// run count, frame totals, and the worker-depth gauge vector.
func TestStreamStatsCounters(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	if w := do(s, http.MethodPost, "/v1/run", streamReq); w.Code != http.StatusOK {
		t.Fatalf("stream run: status %d, body %s", w.Code, w.Body.String())
	}
	st := s.Stats()
	if st.StreamRuns != 1 {
		t.Errorf("stream_runs = %d, want 1", st.StreamRuns)
	}
	if st.StreamAdmitted != 25 {
		t.Errorf("stream_frames_admitted = %d, want 25", st.StreamAdmitted)
	}
	if st.ActiveStreams != 0 {
		t.Errorf("active_streams = %d after completion, want 0", st.ActiveStreams)
	}
	if len(st.WorkerDepths) != 2 {
		t.Fatalf("got %d worker depth gauges, want 2", len(st.WorkerDepths))
	}
	for i, d := range st.WorkerDepths {
		if d != 0 {
			t.Errorf("worker %d depth = %d while idle, want 0", i, d)
		}
	}
	// Cache hits execute nothing, so the counters must not move.
	if w := do(s, http.MethodPost, "/v1/run", streamReq); w.Header().Get("X-Sage-Cache") != "hit" {
		t.Fatalf("expected cache hit, got %q", w.Header().Get("X-Sage-Cache"))
	}
	if st2 := s.Stats(); st2.StreamRuns != 1 || st2.StreamAdmitted != 25 {
		t.Errorf("cache hit moved stream counters: %+v", st2)
	}
}

// TestStreamWithRemapAndFaults: the full streaming feature set through the
// HTTP front end — fault plan plus remap policy — produces remap events.
func TestStreamWithRemapAndFaults(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	req := map[string]any{
		"app": "fft2d", "n": 32, "threads": 2, "nodes": 4, "seed": 11,
		"faults": "seed 3\nstall node=1 at=2ms for=2ms\nstall node=1 at=7ms for=2ms\nstall node=1 at=12ms for=2ms\nstall node=1 at=17ms for=2ms\nstall node=1 at=22ms for=2ms\nstall node=1 at=27ms for=2ms\nstall node=1 at=32ms for=2ms\nstall node=1 at=37ms for=2ms\nstall node=1 at=42ms for=2ms\nstall node=1 at=47ms for=2ms\nstall node=1 at=52ms for=2ms\nstall node=1 at=57ms for=2ms\nstall node=1 at=62ms for=2ms\nstall node=1 at=67ms for=2ms\nstall node=1 at=72ms for=2ms\n",
		"protocol": map[string]any{"stream": map[string]any{
			"classes": []map[string]any{
				{"name": "interactive", "process": "poisson", "rate": 700, "frames": 40, "slo_ms": 5},
				{"name": "batch", "process": "gamma", "rate": 150, "shape": 4, "frames": 10, "weight": 2},
			},
			"remap": map[string]any{"max_remaps": 1},
		}},
	}
	b, _ := json.Marshal(req)
	w := do(s, http.MethodPost, "/v1/run", string(b))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	var resp Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stream == nil || len(resp.Stream.Remaps) == 0 {
		t.Fatal("remap-enabled stream run reported no remap events")
	}
	if resp.Stream.Remaps[0].Trigger != 1 {
		t.Errorf("remap triggered on node %d, want 1", resp.Stream.Remaps[0].Trigger)
	}
	if want := "seed 3: 0 drop / 0 degrade / 15 stall rules applied"; resp.FaultSummary != want {
		t.Errorf("fault summary %q, want %q", resp.FaultSummary, want)
	}
}

// TestStreamRequestValidation covers the stream-specific 400s.
func TestStreamRequestValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, body string
	}{
		{"no classes", `{"app":"fft2d","protocol":{"stream":{"classes":[]}}}`},
		{"bad class", `{"app":"fft2d","protocol":{"stream":{"classes":[{"name":"x","process":"cauchy","rate":1,"frames":1}]}}}`},
		{"iterations", `{"app":"fft2d","protocol":{"iterations":5,"stream":{"classes":[{"name":"x","process":"poisson","rate":1,"frames":1}]}}}`},
		{"repetitions", `{"app":"fft2d","protocol":{"repetitions":2,"stream":{"classes":[{"name":"x","process":"poisson","rate":1,"frames":1}]}}}`},
		{"sequential", `{"app":"fft2d","protocol":{"sequential":true,"stream":{"classes":[{"name":"x","process":"poisson","rate":1,"frames":1}]}}}`},
		{"estimate", `{"app":"fft2d","estimate":true,"protocol":{"stream":{"classes":[{"name":"x","process":"poisson","rate":1,"frames":1}]}}}`},
		{"negative slots", `{"app":"fft2d","protocol":{"stream":{"buffer_slots":-1,"classes":[{"name":"x","process":"poisson","rate":1,"frames":1}]}}}`},
	}
	for _, tc := range cases {
		w := do(s, http.MethodPost, "/v1/run", tc.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, w.Code, w.Body.String())
		}
	}
}

// TestStreamReportValidOnEveryArrivalSeed: the three latency percentiles come
// from independent P² estimators, which on a 30+10-frame mix used to put p95
// above p99 for more than half of all arrival seeds — the daemon then failed
// its own report's validation with a 500. Every seed must answer 200 with
// ordered percentiles.
func TestStreamReportValidOnEveryArrivalSeed(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	const body = `{"app":"fft2d","n":32,"threads":2,"nodes":4,"seed":%d,"protocol":{"stream":{"classes":[` +
		`{"name":"interactive","process":"poisson","rate":400,"frames":30,"slo_ms":50},` +
		`{"name":"batch","process":"gamma","rate":100,"shape":4,"frames":10,"weight":2}]}}}`
	for seed := 1; seed <= 200; seed++ {
		w := do(s, http.MethodPost, "/v1/run", fmt.Sprintf(body, seed))
		if w.Code != http.StatusOK {
			t.Fatalf("seed %d: status %d, body %s", seed, w.Code, w.Body.String())
		}
		var resp Response
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		for _, c := range resp.Stream.Classes {
			if c.P50Ns > c.P95Ns || c.P95Ns > c.P99Ns || c.P99Ns > c.MaxNs {
				t.Fatalf("seed %d class %s: p50 %d, p95 %d, p99 %d, max %d not ordered",
					seed, c.Name, c.P50Ns, c.P95Ns, c.P99Ns, c.MaxNs)
			}
		}
	}
}

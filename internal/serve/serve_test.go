package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/funclib"
)

// newTestServer builds a daemon and guarantees its fleet is torn down.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Shutdown)
	return s
}

// do drives the handler directly — no sockets, so tests are fast and the
// soak can push six-figure request counts.
func do(s *Server, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

const smallReq = `{"app":"fft2d","n":64,"threads":2,"nodes":4,"protocol":{"iterations":2}}`

func TestRunEndpointAndCache(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})

	w := do(s, http.MethodPost, "/v1/run", smallReq)
	if w.Code != http.StatusOK {
		t.Fatalf("fresh run: status %d, body %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Sage-Cache"); got != "miss" {
		t.Errorf("fresh run: X-Sage-Cache = %q, want miss", got)
	}
	var resp Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if resp.App == "" || resp.PeriodNs <= 0 || resp.ElapsedNs <= 0 || len(resp.Assignment) == 0 {
		t.Errorf("response missing results or mapping: %+v", resp)
	}
	if resp.Nodes != 4 || resp.Iterations != 2 {
		t.Errorf("response echoes wrong parameters: %+v", resp)
	}

	w2 := do(s, http.MethodPost, "/v1/run", smallReq)
	if w2.Code != http.StatusOK {
		t.Fatalf("cached run: status %d", w2.Code)
	}
	if got := w2.Header().Get("X-Sage-Cache"); got != "hit" {
		t.Errorf("cached run: X-Sage-Cache = %q, want hit", got)
	}
	if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Error("cached response is not byte-identical to the fresh one")
	}

	// Spelling out the defaults must land on the same cache entry: keys are
	// computed after normalization.
	spelled := `{"app":"fft2d","n":64,"threads":2,"platform":"CSPI","nodes":4,"mapping":"spread","protocol":{"iterations":2,"repetitions":1}}`
	w3 := do(s, http.MethodPost, "/v1/run", spelled)
	if w3.Code != http.StatusOK || w3.Header().Get("X-Sage-Cache") != "hit" {
		t.Errorf("normalized request missed the cache: status %d, X-Sage-Cache %q", w3.Code, w3.Header().Get("X-Sage-Cache"))
	}
	if !bytes.Equal(w.Body.Bytes(), w3.Body.Bytes()) {
		t.Error("normalized request returned different bytes")
	}
}

// TestRepetitionsAndTraceSummary: the simulator is deterministic, so a
// request runs once whatever repetitions it asks for. Old clients that send
// the field still decode, get the bytes of a single run, and share its
// cache entry; a negative count stays a client error.
func TestRepetitionsAndTraceSummary(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	const body = `{"app":"cornerturn","n":64,"threads":2,"nodes":4,"trace_summary":true,"protocol":{"iterations":2%s}}`
	once := do(s, http.MethodPost, "/v1/run", fmt.Sprintf(body, ""))
	if once.Code != http.StatusOK || once.Header().Get("X-Sage-Cache") != "miss" {
		t.Fatalf("status %d, X-Sage-Cache %q, body %s", once.Code, once.Header().Get("X-Sage-Cache"), once.Body.String())
	}
	var resp Response
	if err := json.Unmarshal(once.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Repetitions != 1 {
		t.Errorf("repetitions = %d, want 1", resp.Repetitions)
	}
	if resp.TraceSummary == "" {
		t.Error("trace summary requested but absent")
	}
	for _, reps := range []string{`,"repetitions":3`, `,"repetitions":1`} {
		w := do(s, http.MethodPost, "/v1/run", fmt.Sprintf(body, reps))
		if w.Code != http.StatusOK || w.Header().Get("X-Sage-Cache") != "hit" {
			t.Errorf("%s: status %d, X-Sage-Cache %q, want a cache hit", reps, w.Code, w.Header().Get("X-Sage-Cache"))
		}
		if !bytes.Equal(w.Body.Bytes(), once.Body.Bytes()) {
			t.Errorf("%s: response differs from the single run's", reps)
		}
	}
	if w := do(s, http.MethodPost, "/v1/run", fmt.Sprintf(body, `,"repetitions":-1`)); w.Code != http.StatusBadRequest {
		t.Errorf("negative repetitions: status %d, want 400", w.Code)
	}
}

func TestFaultPlanSummary(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	req := map[string]any{
		"app": "cornerturn", "n": 64, "threads": 2, "nodes": 4,
		"protocol": map[string]any{"iterations": 2},
		"faults":   "seed 3\ndrop link=* rate=0.2\n",
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
	if want := "seed 3: 1 drop / 0 degrade / 0 stall rules applied"; resp.FaultSummary != want {
		t.Errorf("fault summary %q, want %q", resp.FaultSummary, want)
	}
}

func TestErrorTaxonomy(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	type taxonomyCase struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}
	tests := []taxonomyCase{
		{"bad json", http.MethodPost, "/v1/run", "{", http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/v1/run", `{"app":"fft2d","bogus":1}`, http.StatusBadRequest},
		{"no model", http.MethodPost, "/v1/run", `{}`, http.StatusBadRequest},
		{"unknown app", http.MethodPost, "/v1/run", `{"app":"sonar"}`, http.StatusBadRequest},
		{"unknown platform", http.MethodPost, "/v1/run", `{"app":"fft2d","platform":"PDP11"}`, http.StatusBadRequest},
		{"unknown mapping", http.MethodPost, "/v1/run", `{"app":"fft2d","mapping":"anneal"}`, http.StatusBadRequest},
		{"negative n", http.MethodPost, "/v1/run", `{"app":"fft2d","n":-4}`, http.StatusBadRequest},
		{"bad faults", http.MethodPost, "/v1/run", `{"app":"fft2d","faults":"drop nonsense"}`, http.StatusBadRequest},
		{"bad source", http.MethodPost, "/v1/run", `{"source":"not a model"}`, http.StatusBadRequest},
		{"run is POST only", http.MethodGet, "/v1/run", "", http.StatusMethodNotAllowed},
		{"health is GET only", http.MethodPost, "/v1/health", "", http.StatusMethodNotAllowed},
		{"stats is GET only", http.MethodPost, "/v1/stats", "", http.StatusMethodNotAllowed},
		{"unknown path", http.MethodGet, "/v2/run", "", http.StatusNotFound},
	}
	// A model only a kind's Compute would refuse is the client's mistake
	// whichever way it is asked about: run, estimate and stream answer 400,
	// where the run used to fail inside its first data set (500) and the two
	// that carry no samples used to answer 200.
	for _, m := range []struct{ name, typ, fn string }{
		{"fft_rows length 96", "8 96", "fft_rows threads 2\n  in in m rows\n  out out m rows"},
		{"fft_cols length 96", "96 8", "fft_cols threads 2\n  in in m cols\n  out out m cols"},
		{"unknown window", "8 8", "window_rows threads 2\n  param window bogus\n  in in m rows\n  out out m rows"},
	} {
		source, err := json.Marshal("app bad\ntype m " + m.typ + " complex\n" +
			"function source source_matrix threads 1\n  out out m rows\n" +
			"function f " + m.fn + "\n" +
			"function sink sink_matrix threads 1\n  in in m rows\n" +
			"arc source.out -> f.in\narc f.out -> sink.in\n")
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []struct{ name, fields string }{
			{"run", ""},
			{"estimate", `,"estimate":true`},
			{"stream", `,"protocol":{"stream":{"classes":[{"name":"c","process":"poisson","rate":100,"frames":2}]}}`},
		} {
			tests = append(tests, taxonomyCase{m.name + " " + kind.name, http.MethodPost, "/v1/run",
				`{"source":` + string(source) + `,"nodes":2` + kind.fields + `}`, http.StatusBadRequest})
		}
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if w := do(s, tc.method, tc.path, tc.body); w.Code != tc.want {
				t.Errorf("%s %s: status %d, want %d (body %s)", tc.method, tc.path, w.Code, tc.want, w.Body.String())
			}
		})
	}
}

// TestPanickingKernelAnswers500AndDaemonSurvives: a library function that
// panics inside a simulated thread costs that request a 500 naming the
// thread, and nothing else; the same request succeeds once the function
// behaves. The daemon carries no samples, so batch and streaming requests
// alike meet the panic in Cost — Compute is never called.
func TestPanickingKernelAnswers500AndDaemonSurvives(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	im, err := funclib.Lookup("fft_rows")
	if err != nil {
		t.Fatal(err)
	}
	compute, cost := im.Compute, im.Cost
	restore := func() { im.Compute, im.Cost = compute, cost }
	defer restore()
	var computed atomic.Bool
	im.Compute = func(ctx *funclib.Context, in, out map[string]*funclib.Block) error {
		computed.Store(true)
		return compute(ctx, in, out)
	}
	im.Cost = func(*funclib.Context, map[string]*funclib.Block, map[string]*funclib.Block) funclib.Cost {
		panic("kernel bug")
	}
	const streamReq = `{"app":"fft2d","n":32,"threads":1,"nodes":2,"protocol":{"stream":{"classes":[{"name":"c","process":"poisson","rate":100,"frames":2}]}}}`
	for _, body := range []string{smallReq, streamReq} {
		w := do(s, http.MethodPost, "/v1/run", body)
		if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), "sim: process") ||
			!strings.Contains(w.Body.String(), ".fft_rows[") || !strings.Contains(w.Body.String(), "panicked: kernel bug") {
			t.Fatalf("panicking run: status %d, body %s", w.Code, w.Body.String())
		}
	}
	im.Cost = cost // no run is in flight: both replies are in
	for _, body := range []string{smallReq, streamReq} {
		if w := do(s, http.MethodPost, "/v1/run", body); w.Code != http.StatusOK {
			t.Fatalf("run after the panicking runs: status %d, body %s", w.Code, w.Body.String())
		}
	}
	if computed.Load() {
		t.Error("a daemon request ran a kind's Compute: the run carried samples")
	}
}

func TestHealthAndStats(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	if w := do(s, http.MethodGet, "/v1/health", ""); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"ok"`) {
		t.Errorf("health: status %d, body %s", w.Code, w.Body.String())
	}
	do(s, http.MethodPost, "/v1/run", smallReq)
	do(s, http.MethodPost, "/v1/run", smallReq)
	w := do(s, http.MethodGet, "/v1/stats", "")
	if w.Code != http.StatusOK {
		t.Fatalf("stats: status %d", w.Code)
	}
	var st Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if st.Requests != 2 || st.Completed != 1 || st.CacheHits != 1 || st.CacheMisses != 1 || st.Workers != 1 {
		t.Errorf("stats counters off: %+v", st)
	}
}

// TestDeadlineCancelsMidRun pins the tentpole bug fix: a request that blows
// its wall-clock budget is canceled between kernel events (504), the worker
// survives, and the next request runs normally on a fresh kernel.
//
// The budget sits between the two requests with room on both sides. Under
// -race at GOMAXPROCS 8 on the 2-CPU sizing host the small request took 3–6
// ms alone and 10 ms with other packages loading the host — the old 10 ms
// budget's flake — and the long one 108 s for its 50 000 data sets; without
// -race, under 1.5 ms and ~5 s. At 250 ms the small request has a margin of
// 25× and the long one overruns by 20× or more.
func TestDeadlineCancelsMidRun(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Deadline: 250 * time.Millisecond})
	long := `{"app":"fft2d","n":256,"threads":4,"nodes":8,"protocol":{"iterations":50000}}`
	w := do(s, http.MethodPost, "/v1/run", long)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("long run: status %d, want 504 (body %s)", w.Code, w.Body.String())
	}
	if st := s.Stats(); st.Canceled != 1 {
		t.Errorf("canceled counter = %d, want 1", st.Canceled)
	}
	// The fleet's single worker must have released the canceled kernel and
	// be able to serve a fresh request.
	w2 := do(s, http.MethodPost, "/v1/run", smallReq)
	if w2.Code != http.StatusOK {
		t.Errorf("request after cancellation: status %d, body %s", w2.Code, w2.Body.String())
	}
}

// TestTimeoutMsExcludedFromCacheKey: wall-clock patience is not a simulation
// parameter, so a cached result satisfies even an impossibly impatient
// replay of the same request.
func TestTimeoutMsExcludedFromCacheKey(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	w := do(s, http.MethodPost, "/v1/run", smallReq)
	if w.Code != http.StatusOK {
		t.Fatalf("warm request: status %d", w.Code)
	}
	impatient := `{"app":"fft2d","n":64,"threads":2,"nodes":4,"protocol":{"iterations":2},"timeout_ms":1}`
	w2 := do(s, http.MethodPost, "/v1/run", impatient)
	if w2.Code != http.StatusOK || w2.Header().Get("X-Sage-Cache") != "hit" {
		t.Errorf("timeout_ms changed the cache key: status %d, X-Sage-Cache %q", w2.Code, w2.Header().Get("X-Sage-Cache"))
	}
	if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Error("cached bytes differ under timeout_ms")
	}
}

// TestShardsRejected: the shards field went with the sharded kernel, so a
// request that still sets it is refused with a 400 that names the field,
// never run as if the field were not there.
func TestShardsRejected(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	w := do(s, http.MethodPost, "/v1/run", `{"app":"fft2d","n":64,"threads":4,"nodes":8,"platform":"Mercury","shards":4}`)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), `unknown field \"shards\"`) {
		t.Fatalf("status %d, body %s; want 400 naming the shards field", w.Code, w.Body.String())
	}
}

// TestQueueShedding fills the single worker and the one queue slot with
// slow deadline-bounded requests, then asserts the next arrival is shed
// with 429 instead of piling up.
func TestQueueShedding(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	slow := func(seed int) string {
		// Distinct seeds defeat the cache; timeout_ms bounds the test.
		return `{"app":"fft2d","n":256,"threads":4,"nodes":8,"seed":` +
			string(rune('0'+seed)) + `,"protocol":{"iterations":50000},"timeout_ms":400}`
	}
	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = do(s, http.MethodPost, "/v1/run", slow(i)).Code
		}(i)
	}
	// Wait until one request occupies the worker and one sits in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if st.BusyWorkers == 1 && st.QueueDepth == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never saturated: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	w := do(s, http.MethodPost, "/v1/run", slow(2))
	if w.Code != http.StatusTooManyRequests {
		t.Errorf("saturated queue: status %d, want 429", w.Code)
	}
	if st := s.Stats(); st.ShedQueue != 1 {
		t.Errorf("shed_queue = %d, want 1", st.ShedQueue)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusGatewayTimeout && c != http.StatusOK {
			t.Errorf("slow request %d: status %d, want 504 or 200", i, c)
		}
	}
}

// TestRateShedding: with a one-token bucket the second fresh request inside
// the same second is rejected 429. Cache hits bypass admission entirely.
func TestRateShedding(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, RatePerSec: 0.0001, Burst: 1})
	w := do(s, http.MethodPost, "/v1/run", smallReq)
	if w.Code != http.StatusOK {
		t.Fatalf("first request: status %d", w.Code)
	}
	other := `{"app":"cornerturn","n":64,"threads":2,"nodes":4,"protocol":{"iterations":1}}`
	if w := do(s, http.MethodPost, "/v1/run", other); w.Code != http.StatusTooManyRequests {
		t.Errorf("second fresh request: status %d, want 429", w.Code)
	}
	if st := s.Stats(); st.ShedRate != 1 {
		t.Errorf("shed_rate = %d, want 1", st.ShedRate)
	}
	// The cached first request is still served: no token needed.
	if w := do(s, http.MethodPost, "/v1/run", smallReq); w.Code != http.StatusOK || w.Header().Get("X-Sage-Cache") != "hit" {
		t.Errorf("cache hit was rate-limited: status %d", w.Code)
	}
}

func TestShutdownRejectsNewWork(t *testing.T) {
	s := New(Config{Workers: 1})
	if w := do(s, http.MethodPost, "/v1/run", smallReq); w.Code != http.StatusOK {
		t.Fatalf("pre-shutdown request: status %d", w.Code)
	}
	s.Shutdown()
	if w := do(s, http.MethodPost, "/v1/run", smallReq); w.Code != http.StatusOK && w.Code != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown: status %d, want 200 (cache) or 503", w.Code)
	}
	// A fresh (uncached) request cannot be executed by a stopped fleet.
	fresh := `{"app":"cornerturn","n":128,"threads":2,"nodes":4,"protocol":{"iterations":1}}`
	if w := do(s, http.MethodPost, "/v1/run", fresh); w.Code != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown fresh run: status %d, want 503", w.Code)
	}
	s.Shutdown() // idempotent
}

func TestCacheEviction(t *testing.T) {
	c := newRespCache(2)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if _, ok := c.get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", []byte("C"))
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted as LRU")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("c should be present")
	}
	entries, _, _, evictions := c.counters()
	if entries != 2 || evictions != 1 {
		t.Errorf("entries=%d evictions=%d, want 2 and 1", entries, evictions)
	}
}

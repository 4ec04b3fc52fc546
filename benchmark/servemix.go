package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"repro/internal/platforms"
	"repro/internal/sagert"
	"repro/internal/serve"
	"repro/internal/twin"
)

// Request bodies. The daemon receives exactly these bytes; %d is a value no
// earlier request carried, in a field the cache key covers. For the batch
// classes that field is the request seed. The stream class keeps its arrival
// seed fixed and puts the value in a class label instead: stream.Report's
// own validation rejects the report (p95 above p99, HTTP 500) for about half
// of all arrival seeds at this frame count, and a workload must not fail.
const (
	simBody      = `{"app":"fft2d","n":256,"threads":4,"nodes":8,"mapping":"spread","seed":%d}`
	estimateBody = `{"app":"fft2d","n":256,"threads":4,"nodes":8,"mapping":"spread","seed":%d,"estimate":true}`
	gaBody       = `{"app":"fft2d","n":256,"threads":4,"nodes":8,"mapping":"ga","seed":%d}`
	streamSeed   = 1 // also the stream floor's arrival seed
	streamBody   = `{"app":"fft2d","n":128,"threads":4,"nodes":8,"seed":1,"protocol":{"stream":{"classes":[` +
		`{"name":"interactive-%d","process":"poisson","rate":400,"frames":30,"slo_ms":50},` +
		`{"name":"batch","process":"gamma","rate":100,"shape":4,"frames":10,"weight":2}]}}}`
	streamFrames = 40
	hotBodies    = 8
)

// faultedBody carries the canonical fault plan as a JSON string.
var faultedBody = `{"app":"fft2d","n":256,"threads":4,"nodes":8,"mapping":"spread","seed":%d,"trace_summary":true,"faults":` +
	strconv.Quote(faultPlanText) + `}`

// serveMix is how an operator meets the system: the daemon on loopback HTTP,
// two closed-loop clients, a seeded draw of request classes.
type serveMix struct {
	daemon *serve.Server
	srv    *httptest.Server
	client *http.Client
	hot    [][2][]byte // request body, primed fresh response body
	// References computed in set-up without the daemon.
	simVirtualNS  int64
	simDispatches uint64
	estVirtualNS  int64
	mu            sync.Mutex
	simRespBytes  int
}

// respFields are the response fields the checks read.
type respFields struct {
	Mapping    string `json:"mapping"`
	ElapsedNs  int64  `json:"elapsed_ns"`
	Dispatches uint64 `json:"dispatches"`
	GA         *struct {
		Evaluations int `json:"evaluations"`
	} `json:"ga"`
	TraceSummary string `json:"trace_summary"`
	FaultSummary string `json:"fault_summary"`
	Stream       *struct {
		Completed int `json:"completed"`
	} `json:"stream"`
}

func setupServeMix(seed int64) (*instance, error) {
	w := &serveMix{}
	// The sim and estimate references: the same shape run directly.
	shape := desShape{app: "fft2d", n: 256, threads: 4, nodes: 8, pl: platforms.CSPI(), iters: 5, seed: 1}
	gen, err := shape.generate(nil)
	if err != nil {
		return nil, err
	}
	res, err := sagert.Run(gen.Tables, shape.pl, sagert.Options{Iterations: shape.iters})
	if err != nil {
		return nil, err
	}
	w.simVirtualNS, w.simDispatches = int64(res.Elapsed), res.Dispatches
	ev, err := twin.NewEvaluator(gen.Tables, shape.pl)
	if err != nil {
		return nil, err
	}
	w.estVirtualNS = int64(ev.Predict(twin.Options{Iterations: shape.iters}).Elapsed)

	w.daemon = serve.New(serve.Config{Workers: 2})
	w.srv = httptest.NewServer(w.daemon)
	w.client = w.srv.Client()
	inst := &instance{name: "serve_mix", primary: "sim", clients: 2, report: w.report, finish: w.finish,
		close: func() {
			w.client.CloseIdleConnections()
			w.srv.Close()
			w.daemon.Shutdown()
		}}

	fresh := func(name string, share float64, body string, check func(*respFields, *output) error) class {
		return class{name: name, share: share,
			run: func(t *opTrace, seed int64) (*output, error) { return w.post(t, fmt.Sprintf(body, seed)) },
			check: func(out *output) error {
				if out.status != http.StatusOK {
					return fmt.Errorf("status %d: %s", out.status, bytes.TrimSpace(out.body))
				}
				var f respFields
				if err := json.Unmarshal(out.body, &f); err != nil {
					return fmt.Errorf("decode response: %w", err)
				}
				return check(&f, out)
			}}
	}
	inst.classes = []class{
		{name: "hit", share: 0.40, run: w.hit, check: checkHit},
		fresh("sim", 0.25, simBody, func(f *respFields, out *output) error {
			if f.ElapsedNs != w.simVirtualNS || f.Dispatches != w.simDispatches {
				return fmt.Errorf("sim answered %d ns / %d events, direct run %d / %d", f.ElapsedNs, f.Dispatches, w.simVirtualNS, w.simDispatches)
			}
			w.mu.Lock()
			w.simRespBytes = len(out.body)
			w.mu.Unlock()
			return nil
		}),
		fresh("estimate", 0.15, estimateBody, func(f *respFields, _ *output) error {
			if f.ElapsedNs != w.estVirtualNS || f.Dispatches != 0 {
				return fmt.Errorf("estimate answered %d ns / %d events, direct twin %d / 0", f.ElapsedNs, f.Dispatches, w.estVirtualNS)
			}
			return nil
		}),
		fresh("ga", 0.08, gaBody, func(f *respFields, _ *output) error {
			if f.Mapping != "ga" || f.GA == nil || f.GA.Evaluations == 0 || f.Dispatches == 0 {
				return fmt.Errorf("ga response carries no search or no run: %+v", f)
			}
			return nil
		}),
		fresh("stream", 0.07, streamBody, func(f *respFields, _ *output) error {
			if f.Stream == nil || f.Stream.Completed != streamFrames {
				return fmt.Errorf("stream completed %+v frames, want %d", f.Stream, streamFrames)
			}
			return nil
		}),
		fresh("faulted", 0.05, faultedBody, func(f *respFields, _ *output) error {
			if f.FaultSummary == "" || f.TraceSummary == "" || f.Dispatches == 0 {
				return fmt.Errorf("faulted response lacks fault or trace summary")
			}
			return nil
		}),
	}
	// Prime the hot bodies, then touch every other class once.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := 0; i < hotBodies; i++ {
		body := fmt.Sprintf(simBody, freshSeed(rng))
		out, err := w.post(nil, body)
		if err == nil && (out.status != http.StatusOK || out.cache != "miss") {
			err = fmt.Errorf("status %d cache %q", out.status, out.cache)
		}
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("serve_mix prime: %w", err)
		}
		w.hot = append(w.hot, [2][]byte{[]byte(body), out.body})
	}
	for i := range inst.classes {
		c := &inst.classes[i]
		out, err := c.run(nil, freshSeed(rng))
		if err == nil {
			err = c.check(out)
		}
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("serve_mix warm-up %s: %w", c.name, err)
		}
	}
	return inst, nil
}

// post sends one request and reads the whole response.
func (w *serveMix) post(t *opTrace, body string) (*output, error) {
	t.start("serve.POST /v1/run")
	defer t.end()
	resp, err := w.client.Post(w.srv.URL+"/v1/run", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &output{body: b, status: resp.StatusCode, cache: resp.Header.Get("X-Sage-Cache")}, nil
}

// hit replays one of the primed bodies, chosen by the op's draw; the answer
// must come from the cache and equal the fresh answer byte for byte.
func (w *serveMix) hit(t *opTrace, pick int64) (*output, error) {
	h := w.hot[int(pick%hotBodies)]
	out, err := w.post(t, string(h[0]))
	if err != nil {
		return nil, err
	}
	out.want = h[1]
	return out, nil
}

func checkHit(out *output) error {
	if out.status != http.StatusOK || out.cache != "hit" {
		return fmt.Errorf("status %d, X-Sage-Cache %q, want 200 hit", out.status, out.cache)
	}
	if !bytes.Equal(out.body, out.want) {
		return fmt.Errorf("cached body differs from the fresh body")
	}
	return nil
}

// stats fetches /v1/stats.
func (w *serveMix) stats() (*serve.Stats, error) {
	resp, err := w.client.Get(w.srv.URL + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// finish demands that the daemon shed and failed nothing.
func (w *serveMix) finish() error {
	st, err := w.stats()
	if err != nil {
		return err
	}
	if n := st.ShedRate + st.ShedQueue + st.Failed; n != 0 {
		return fmt.Errorf("daemon shed or failed %d requests (rate %d, queue %d, failed %d)", n, st.ShedRate, st.ShedQueue, st.Failed)
	}
	return nil
}

// hitOnly drives both clients with hits alone for d and returns requests/s:
// the ceiling of HTTP + decode + normalise + key + lookup.
func (w *serveMix) hitOnly(d time.Duration) float64 {
	var wg sync.WaitGroup
	var total int64
	var mu sync.Mutex
	begin := time.Now()
	for cl := 0; cl < 2; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			n := int64(0)
			for time.Since(begin) < d {
				if out, err := w.hit(nil, n+int64(cl)); err != nil || checkHit(out) != nil {
					return
				}
				n++
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}(cl)
	}
	wg.Wait()
	return float64(total) / time.Since(begin).Seconds()
}

func (w *serveMix) report(m *measurement, put func(string, float64)) {
	put("serve.hit_p50_us", 1e3*median(m.lat["hit"]))
	for _, c := range []string{"sim", "estimate", "ga", "stream", "faulted"} {
		put("serve."+c+"_p50_ms", median(m.lat[c]))
	}
	st, err := w.stats()
	if err != nil {
		st = &serve.Stats{}
	}
	put("serve.cache_hit_ratio", float64(st.CacheHits)/float64(st.CacheHits+st.CacheMisses))
	put("serve.cache_evictions", float64(st.CacheEvictions))
	put("serve.shed", float64(st.ShedRate+st.ShedQueue))
	put("serve.resp_bytes.sim", float64(w.simRespBytes))
	put("serve.goroutines_end", float64(st.Goroutines))
	d := 2 * time.Second
	if m.wall < d {
		d = m.wall
	}
	put("serve.hit_only_req_per_s", w.hitOnly(d))
}

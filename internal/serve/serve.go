// Package serve is the SAGE daemon: a persistent HTTP front end over the
// model -> mapping -> gluegen -> simulate pipeline, designed to stay up for
// weeks. Long-lived-process discipline shapes everything here:
//
//   - a bounded worker fleet executes requests (no per-request goroutine
//     fan-out beyond internal/pool's, which is itself bounded);
//   - admission control sheds load early — a token bucket for sustained
//     rate, a bounded queue for bursts — with HTTP 429, instead of letting
//     latency and memory grow without bound;
//   - per-request deadlines ride the kernel's cancellation poll
//     (sagert.Options.Cancel) and the Kernel.Shutdown mid-run-abort
//     contract, so an abandoned request releases its parked process
//     goroutines instead of leaking them;
//   - a content-addressed response cache (sha256 of the canonical request)
//     returns the exact bytes a fresh run would produce — the simulator is
//     deterministic, so caching is exact, and the cache is LRU-bounded.
//
// Endpoints: POST /v1/run executes or serves a cached simulation;
// GET /v1/health is a liveness probe; GET /v1/stats reports queue depth,
// cache hit rates, worker occupancy and runtime-internal cache sizes.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sagert"
)

// Config sizes the daemon; zero values select the documented defaults.
type Config struct {
	// Workers is the size of the simulation worker fleet
	// (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker beyond those already
	// running; an arrival past the bound is shed with 429 (default 64).
	QueueDepth int
	// RatePerSec is the sustained admission rate of the token bucket;
	// 0 disables rate limiting.
	RatePerSec float64
	// Burst is the bucket capacity (default: ceil(RatePerSec), min 1).
	Burst int
	// Deadline is the per-request wall-clock budget; a request exceeding it
	// is canceled mid-run and answered 504. 0 means no deadline. A request
	// may lower (never raise) it with timeout_ms.
	Deadline time.Duration
	// CacheEntries bounds the response cache (default 1024; negative
	// disables caching).
	CacheEntries int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.RatePerSec > 0 && c.Burst <= 0 {
		c.Burst = int(c.RatePerSec + 0.999)
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0
	}
	return c
}

// job is one admitted request travelling to the worker fleet and back.
type job struct {
	ctx  context.Context
	req  *Request
	done chan jobResult
}

type jobResult struct {
	body []byte // encoded Response on success
	err  error
}

// Stats is the /v1/stats body. Wall-clock and occupancy numbers are
// snapshots; counters are monotone since process start.
type Stats struct {
	Workers     int    `json:"workers"`
	BusyWorkers int64  `json:"busy_workers"`
	QueueDepth  int    `json:"queue_depth"`
	QueueCap    int    `json:"queue_cap"`
	Requests    uint64 `json:"requests"`
	Completed   uint64 `json:"completed"`
	Failed      uint64 `json:"failed"`
	Canceled    uint64 `json:"canceled"`
	Estimates   uint64 `json:"estimates"`
	ShedRate    uint64 `json:"shed_rate"`
	ShedQueue   uint64 `json:"shed_queue"`
	// Streaming-workload counters: streams currently executing, and the
	// frame totals accumulated across completed streaming runs (cache hits
	// execute nothing, so they leave these untouched).
	ActiveStreams      int64  `json:"active_streams"`
	StreamRuns         uint64 `json:"stream_runs"`
	StreamAdmitted     uint64 `json:"stream_frames_admitted"`
	StreamShed         uint64 `json:"stream_frames_shed"`
	StreamSLOViolation uint64 `json:"stream_slo_violations"`
	// WorkerDepths is one gauge per worker: 0 idle, 1 running a batch
	// request, 1+backlog while running a streaming request (the live
	// admission-queue depth of the stream it is executing).
	WorkerDepths   []int64 `json:"worker_depths"`
	CacheEntries   int     `json:"cache_entries"`
	CacheHits      uint64  `json:"cache_hits"`
	CacheMisses    uint64  `json:"cache_misses"`
	CacheEvictions uint64  `json:"cache_evictions"`
	Goroutines     int     `json:"goroutines"`
}

// Server is the daemon. It implements http.Handler; wire it into an
// http.Server (or call ServeHTTP directly in tests) and call Shutdown when
// done — after Shutdown returns, every worker goroutine has exited.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	queue chan *job
	cache *respCache

	closed   chan struct{}
	shutdown sync.Once
	wg       sync.WaitGroup

	bucketMu   sync.Mutex
	tokens     float64
	lastRefill time.Time

	requests, completed, failed, canceled atomic.Uint64
	shedRate, shedQueue, estimates        atomic.Uint64
	busy                                  atomic.Int64

	activeStreams                          atomic.Int64
	streamRuns, streamAdmitted, streamShed atomic.Uint64
	streamLate                             atomic.Uint64
	workerDepths                           []atomic.Int64
}

// New builds a Server and starts its worker fleet.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		queue:      make(chan *job, cfg.QueueDepth),
		cache:      newRespCache(cfg.CacheEntries),
		closed:     make(chan struct{}),
		tokens:     float64(cfg.Burst),
		lastRefill: time.Now(),
	}
	s.mux.HandleFunc("/v1/run", s.handleRun)
	s.mux.HandleFunc("/v1/health", s.handleHealth)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.workerDepths = make([]atomic.Int64, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown stops the worker fleet and blocks until every worker goroutine
// has exited. Requests already running finish (or hit their deadline);
// requests still queued — and new arrivals — are answered 503. Idempotent.
func (s *Server) Shutdown() {
	s.shutdown.Do(func() { close(s.closed) })
	s.wg.Wait()
}

// worker is one member of the bounded fleet: it owns at most one simulation
// at a time, so total concurrent kernels never exceed Config.Workers. Each
// worker publishes a depth gauge: 1 while running a batch request, 1 plus
// the stream's live admission backlog while running a streaming one.
func (s *Server) worker(id int) {
	defer s.wg.Done()
	depth := &s.workerDepths[id]
	for {
		select {
		case <-s.closed:
			return
		case j := <-s.queue:
			s.busy.Add(1)
			depth.Store(1)
			isStream := j.req.Protocol.Stream != nil
			if isStream {
				s.activeStreams.Add(1)
			}
			resp, err := execute(j.ctx, j.req, func(backlog int) {
				depth.Store(int64(1 + backlog))
			})
			var res jobResult
			if err != nil {
				res.err = err
			} else {
				res.body, res.err = encodeBody(resp)
			}
			if isStream {
				s.activeStreams.Add(-1)
				if err == nil && resp.Stream != nil {
					s.streamRuns.Add(1)
					s.streamAdmitted.Add(uint64(resp.Stream.Admitted))
					s.streamShed.Add(uint64(resp.Stream.Shed))
					s.streamLate.Add(uint64(resp.Stream.Late))
				}
			}
			depth.Store(0)
			s.busy.Add(-1)
			j.done <- res
		}
	}
}

// encodeBody renders the canonical response bytes — the unit the cache
// stores, so hits and fresh runs are identical down to the trailing newline.
func encodeBody(resp *Response) ([]byte, error) {
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, fmt.Errorf("encode response: %w", err)
	}
	return append(b, '\n'), nil
}

// admit consumes one token from the rate bucket, refilling it by elapsed
// wall time first. Cache hits never reach here: answering from memory is
// cheaper than the bookkeeping that would shed it.
func (s *Server) admit() bool {
	if s.cfg.RatePerSec <= 0 {
		return true
	}
	s.bucketMu.Lock()
	defer s.bucketMu.Unlock()
	now := time.Now()
	s.tokens += now.Sub(s.lastRefill).Seconds() * s.cfg.RatePerSec
	if max := float64(s.cfg.Burst); s.tokens > max {
		s.tokens = max
	}
	s.lastRefill = now
	if s.tokens < 1 {
		return false
	}
	s.tokens--
	return true
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	s.requests.Add(1)

	var req Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: "+err.Error())
		return
	}
	if err := req.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := req.cacheKey()
	if body, ok := s.cache.get(key); ok {
		writeBody(w, body, "hit")
		return
	}

	if req.Estimate {
		// Estimates are answered inline by the analytical twin: closed-form
		// arithmetic, microseconds of work — they never consume a worker
		// slot, a queue position or a rate token, and they keep working
		// after Shutdown has drained the fleet.
		resp, err := executeEstimate(&req)
		if err != nil {
			s.writeRunError(w, r.Context(), err)
			return
		}
		body, err := encodeBody(resp)
		if err != nil {
			s.failed.Add(1)
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		s.estimates.Add(1)
		s.completed.Add(1)
		s.cache.put(key, body)
		writeBody(w, body, "miss")
		return
	}

	if !s.admit() {
		s.shedRate.Add(1)
		writeError(w, http.StatusTooManyRequests, "rate limit exceeded, retry later")
		return
	}

	ctx := r.Context()
	deadline := s.cfg.Deadline
	if req.TimeoutMs > 0 {
		if d := time.Duration(req.TimeoutMs) * time.Millisecond; deadline == 0 || d < deadline {
			deadline = d
		}
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	j := &job{ctx: ctx, req: &req, done: make(chan jobResult, 1)}
	select {
	case <-s.closed:
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	case s.queue <- j:
	default:
		s.shedQueue.Add(1)
		writeError(w, http.StatusTooManyRequests, "queue full, retry later")
		return
	}

	select {
	case <-s.closed:
		// The job may still be queued; no worker will pick it up.
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	case res := <-j.done:
		if res.err != nil {
			s.writeRunError(w, ctx, res.err)
			return
		}
		s.completed.Add(1)
		s.cache.put(key, res.body)
		writeBody(w, res.body, "miss")
	}
}

// writeRunError maps execution errors onto the status taxonomy: client
// mistakes 400, deadline aborts 504, everything else 500.
func (s *Server) writeRunError(w http.ResponseWriter, ctx context.Context, err error) {
	switch {
	case errors.Is(err, errBadRequest):
		s.failed.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, sagert.ErrCanceled), errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.canceled.Add(1)
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded: "+err.Error())
	default:
		s.failed.Add(1)
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"queue_depth\":%d}\n", len(s.queue))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Stats())
}

// Stats snapshots the daemon's counters (also used by tests and sage load).
func (s *Server) Stats() Stats {
	entries, hits, misses, evictions := s.cache.counters()
	depths := make([]int64, len(s.workerDepths))
	for i := range s.workerDepths {
		depths[i] = s.workerDepths[i].Load()
	}
	return Stats{
		Workers:            s.cfg.Workers,
		BusyWorkers:        s.busy.Load(),
		QueueDepth:         len(s.queue),
		QueueCap:           s.cfg.QueueDepth,
		Requests:           s.requests.Load(),
		Completed:          s.completed.Load(),
		Failed:             s.failed.Load(),
		Canceled:           s.canceled.Load(),
		Estimates:          s.estimates.Load(),
		ShedRate:           s.shedRate.Load(),
		ShedQueue:          s.shedQueue.Load(),
		ActiveStreams:      s.activeStreams.Load(),
		StreamRuns:         s.streamRuns.Load(),
		StreamAdmitted:     s.streamAdmitted.Load(),
		StreamShed:         s.streamShed.Load(),
		StreamSLOViolation: s.streamLate.Load(),
		WorkerDepths:       depths,
		CacheEntries:       entries,
		CacheHits:          hits,
		CacheMisses:        misses,
		CacheEvictions:     evictions,
		Goroutines:         runtime.NumGoroutine(),
	}
}

func writeBody(w http.ResponseWriter, body []byte, cache string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Sage-Cache", cache)
	w.Write(body)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, _ := json.Marshal(map[string]string{"error": msg})
	w.Write(append(b, '\n'))
}

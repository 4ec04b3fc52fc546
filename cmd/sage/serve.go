package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

// cmdServe is the persistent SAGE daemon: it keeps the model -> mapping ->
// gluegen -> simulate pipeline resident and answers HTTP requests, so a
// design-space exploration front end pays process start-up and table
// generation once instead of per run. See internal/serve for the API and
// DESIGN.md §9 for the architecture (admission control, content-addressed
// response cache, deadline cancellation).
//
//	sage serve -addr :8080
//	sage serve -addr 127.0.0.1:0 -workers 4 -queue 32 -rate 50 -deadline 10s
//
// Endpoints:
//
//	POST /v1/run     {"app":"fft2d","n":256,"platform":"CSPI","nodes":8,...}
//	GET  /v1/health  liveness probe
//	GET  /v1/stats   queue depth, cache hit rate, worker occupancy
//
// SIGINT/SIGTERM shut the daemon down cleanly: in-flight requests finish or
// hit their deadline, the worker fleet drains, and the command exits 0.
func cmdServe(args []string, stdout, stderr io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveUntil(ctx, args, stderr)
}

// serveUntil parses the serve flags and serves until ctx is done.
func serveUntil(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flags("serve", stderr)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	workers := fs.Int("workers", 0, "simulation worker fleet size (0 = GOMAXPROCS); results are identical at any setting")
	queue := fs.Int("queue", 64, "queued requests beyond the running ones before shedding with 429")
	rate := fs.Float64("rate", 0, "sustained admission rate in requests/sec (0 = unlimited)")
	burst := fs.Int("burst", 0, "token-bucket burst capacity (0 = derived from -rate)")
	deadline := fs.Duration("deadline", 30*time.Second, "per-request wall-clock budget; exceeding it cancels the run with 504 (0 = none)")
	cacheEntries := fs.Int("cache", 1024, "response cache entries (negative disables caching)")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *addr == "" {
		return usagef("-addr is required")
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	s := serve.New(serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		RatePerSec:   *rate,
		Burst:        *burst,
		Deadline:     *deadline,
		CacheEntries: *cacheEntries,
	})
	defer s.Shutdown()
	srv := &http.Server{Handler: s}

	// The listening line goes to stderr so scripts (and CI) can wait on it;
	// it reports the resolved address, which matters with port 0.
	fmt.Fprintf(stderr, "sage serve: listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stderr, "sage serve: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	s.Shutdown()
	fmt.Fprintln(stderr, "sage serve: clean shutdown")
	return nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// cmdLoad is the seeded load generator for sage serve: it drives a
// deterministic mix of simulation requests at the daemon, counts outcomes,
// and (with -check-cache) replays every distinct request to assert that the
// cached response is byte-identical to the fresh one. CI's serve-smoke job
// is built on it; it is also a handy soak driver for a daemon left running.
//
//	sage load -addr http://127.0.0.1:8080 -n 200
//	sage load -addr http://127.0.0.1:8080 -n 1000 -parallel 8 -check-cache
//
// It fails when any request fails: a 5xx, a transport error or a
// cached/fresh byte mismatch. A 429 shed response counts as expected under
// overload unless -no-shed.
func cmdLoad(args []string, stdout, stderr io.Writer) error {
	fs := flags("load", stderr)
	addr := fs.String("addr", "", "daemon base URL, e.g. http://127.0.0.1:8080 (required)")
	n := fs.Int("n", 200, "requests to send")
	seed := fs.Int64("seed", 1, "request-mix seed; the same seed replays the same mix")
	parallel := fs.Int("parallel", 4, "concurrent senders")
	distinct := fs.Int("distinct", 16, "distinct request shapes in the mix (the rest are cache hits)")
	checkCache := fs.Bool("check-cache", false, "after the run, replay each distinct request and require byte-identical bodies")
	noShed := fs.Bool("no-shed", false, "treat 429 shed responses as failures")
	wait := fs.Duration("wait", 10*time.Second, "how long to wait for /v1/health before starting")
	stats := fs.Bool("stats", false, "print /v1/stats after the run")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *addr == "" {
		return usagef("-addr is required")
	}
	if *n <= 0 || *parallel <= 0 || *distinct <= 0 {
		return usagef("-n, -parallel and -distinct must be positive")
	}
	base := strings.TrimRight(*addr, "/")
	client := &http.Client{Timeout: 2 * time.Minute}

	if err := waitHealthy(client, base, *wait); err != nil {
		return err
	}

	reqs := mix(*seed, *distinct)
	var ok, shed, failed atomic.Uint64
	var firstErr atomic.Value
	start := time.Now()
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		for i := 0; i < *n; i++ {
			next <- i
		}
		close(next)
	}()
	for p := 0; p < *parallel; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				status, _, err := post(client, base, reqs[i%len(reqs)])
				switch {
				case err != nil:
					failed.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("request %d: %w", i, err))
				case status == http.StatusOK:
					ok.Add(1)
				case status == http.StatusTooManyRequests:
					shed.Add(1)
				default:
					failed.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("request %d: unexpected status %d", i, status))
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	fmt.Fprintf(stdout, "sage load: %d requests in %v (%.0f req/s): %d ok, %d shed, %d failed\n",
		*n, elapsed.Round(time.Millisecond), float64(*n)/elapsed.Seconds(), ok.Load(), shed.Load(), failed.Load())

	if *checkCache {
		mismatches := 0
		for i, body := range reqs {
			s1, b1, err := post(client, base, body)
			if err != nil {
				return fmt.Errorf("check-cache request %d: %w", i, err)
			}
			s2, b2, err := post(client, base, body)
			if err != nil {
				return fmt.Errorf("check-cache request %d: %w", i, err)
			}
			if s1 != http.StatusOK || s2 != http.StatusOK {
				return fmt.Errorf("check-cache request %d: statuses %d/%d", i, s1, s2)
			}
			if !bytes.Equal(b1, b2) {
				mismatches++
				fmt.Fprintf(stdout, "sage load: MISMATCH on request %d: cached response differs from fresh\n", i)
			}
		}
		if mismatches > 0 {
			return fmt.Errorf("%d cached responses differ from fresh ones", mismatches)
		}
		fmt.Fprintf(stdout, "sage load: check-cache ok: %d distinct requests byte-identical on replay\n", len(reqs))
	}

	if *stats {
		resp, err := client.Get(base + "/v1/stats")
		if err != nil {
			return err
		}
		io.Copy(stdout, resp.Body)
		resp.Body.Close()
	}

	if f := firstErr.Load(); f != nil {
		return f.(error)
	}
	if *noShed && shed.Load() > 0 {
		return fmt.Errorf("%d requests shed with 429 (-no-shed)", shed.Load())
	}
	return nil
}

// mix builds the deterministic request set: `distinct` shapes drawn from a
// seeded generator over the benchmark apps, small sizes and both cheap
// mapping strategies. Same seed, same mix, byte for byte.
func mix(seed int64, distinct int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	apps := []string{"fft2d", "cornerturn"}
	sizes := []int{64, 128, 256}
	mappings := []string{"spread", "roundrobin"}
	out := make([][]byte, 0, distinct)
	for i := 0; i < distinct; i++ {
		r := serve.Request{
			App:      apps[rng.Intn(len(apps))],
			N:        sizes[rng.Intn(len(sizes))],
			Threads:  2 + 2*rng.Intn(2),
			Platform: "CSPI",
			Nodes:    4 + 4*rng.Intn(2),
			Mapping:  mappings[rng.Intn(len(mappings))],
			Seed:     seed,
			Protocol: serve.Protocol{Iterations: 1 + rng.Intn(4)},
		}
		b, err := json.Marshal(r)
		if err != nil {
			panic(err) // plain data cannot fail to marshal
		}
		out = append(out, b)
	}
	return out
}

// waitHealthy polls /v1/health until the daemon answers 200 or the budget
// runs out.
func waitHealthy(client *http.Client, addr string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		resp, err := client.Get(addr + "/v1/health")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("daemon not healthy after %v: %w", budget, err)
			}
			return fmt.Errorf("daemon not healthy after %v", budget)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// post sends one run request and returns (status, body, error).
func post(client *http.Client, addr string, body []byte) (int, []byte, error) {
	resp, err := client.Post(addr+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

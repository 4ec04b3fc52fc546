package main

import (
	"context"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// lockedBuffer is a stderr the daemon writes from its own goroutine while
// the test reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestServeLoadRoundTrip is the daemon round trip CI's serve-smoke job
// runs, in process: serve on a free loopback port, drive a seeded burst
// with sage load, require cached == fresh bytes, then cancel the serve
// context and require a clean shutdown that leaves no listener and no
// goroutine behind.
func TestServeLoadRoundTrip(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stderr lockedBuffer
	done := make(chan error, 1)
	go func() { done <- serveUntil(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "4"}, &stderr) }()

	var addr string
	for deadline := time.Now().Add(5 * time.Second); addr == ""; time.Sleep(5 * time.Millisecond) {
		if _, rest, ok := strings.Cut(stderr.String(), "listening on "); ok {
			addr, _, _ = strings.Cut(rest, "\n")
			continue
		}
		select {
		case err := <-done:
			t.Fatalf("serve returned before listening: %v\n%s", err, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve did not report its address:\n%s", stderr.String())
		}
	}

	var out strings.Builder
	load := []string{"load", "-addr", "http://" + addr, "-n", "40", "-parallel", "2", "-distinct", "4", "-check-cache", "-stats"}
	if code := dispatch(load, &out, io.Discard); code != exitOK {
		t.Errorf("sage %q = %d, want %d\n%s", load, code, exitOK, out.String())
	}
	for _, want := range []string{"40 ok, 0 shed, 0 failed", "check-cache ok: 4 distinct", `"goroutines"`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("load output lacks %q:\n%s", want, out.String())
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not stop after its context was canceled")
	}
	if !strings.Contains(stderr.String(), "clean shutdown") {
		t.Errorf("stderr lacks \"clean shutdown\":\n%s", stderr.String())
	}
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Errorf("%s still accepts connections after shutdown", addr)
	}
	// Connection goroutines end a little after their sockets close.
	const slack = 1
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(3 * time.Second); n > base+slack && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > base+slack {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after shutdown, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}

// TestMixDeterministic: the same seed must replay the same request bytes —
// the cached-vs-fresh comparison depends on it.
func TestMixDeterministic(t *testing.T) {
	a, b := mix(7, 16), mix(7, 16)
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("mix sizes %d/%d, want 16", len(a), len(b))
	}
	for i := range a {
		if string(a[i]) != string(b[i]) {
			t.Errorf("request %d differs between identically seeded mixes", i)
		}
	}
	c := mix(8, 16)
	same := 0
	for i := range a {
		if string(a[i]) == string(c[i]) {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced an identical mix")
	}
}

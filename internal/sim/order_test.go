package sim

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/dispatch_order_k1.golden")

// dispatchOrderLog runs a seeded random mix of processes, mailboxes,
// resources, a barrier, timers and mid-run spawns on a kernel and
// returns one line per observation — "at dispatched seq pid", pid -1 for a
// timer callback — written when a process starts, after each of its
// operations returns, and inside each callback. The dispatch count is in
// every line, so the lines are the full dispatch log; decisions read state
// other processes write (credits), so one reordering changes everything
// after it.
func dispatchOrderLog(seed int64) []byte {
	k := NewKernel()
	var log bytes.Buffer
	rec := func(pid int) {
		fmt.Fprintf(&log, "%d %d %d %d\n", k.now, k.dispatched, k.seq, pid)
	}
	const nproc, nchan, steps, rounds = 12, 4, 40, 4
	chans := make([]*Chan[int], nchan)
	credits := make([]int, nchan) // values sent or in flight, not yet claimed by a receiver
	for i := range chans {
		chans[i] = NewChan[int](k, fmt.Sprintf("c%d", i))
	}
	res := []*Resource{NewResource(k, "r1", 1), NewResource(k, "r2", 2), NewResource(k, "r3", 3)}
	bar := NewBarrier(k, "bar", 4)
	us := func(rng *rand.Rand, n int) Duration { return Duration(rng.Intn(n)) * time.Microsecond }
	for i := 0; i < nproc; i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		inBarrier := i < 4
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			rec(p.pid)
			for s := 0; s < steps; s++ {
				c := rng.Intn(nchan)
				switch op := rng.Intn(7); {
				case op == 0:
					p.Sleep(us(rng, 4)) // 0 µs rides the same-instant lane
				case op == 1:
					r := res[rng.Intn(len(res))]
					r.Use(p, 1+rng.Intn(r.Capacity()), us(rng, 3))
				case op == 2:
					credits[c]++
					chans[c].Send(s)
				case op == 3:
					credits[c]++
					chans[c].SendAfter(us(rng, 5), s)
				case op == 4 && credits[c] > 0:
					credits[c]--
					chans[c].Recv(p)
				case op == 5:
					k.After(us(rng, 4), func() {
						rec(-1)
						credits[c]++
						chans[c].Send(-1)
					})
				case op == 6 && s%8 == 0:
					d := us(rng, 3)
					k.After(us(rng, 2), func() {
						rec(-1)
						k.Spawn("child", func(q *Proc) {
							rec(q.pid)
							res[0].Use(q, 1, d)
							rec(q.pid)
						})
					})
				default:
					p.SleepUntil(p.Now().Add(time.Microsecond))
				}
				rec(p.pid)
				if inBarrier && s%(steps/rounds) == 0 {
					bar.Wait(p)
					rec(p.pid)
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
	k.Shutdown()
	return log.Bytes()
}

// TestDispatchOrderGolden compares the scenario's dispatch log with the one
// committed from the channel hand-off kernel (PR 15's commit): whatever
// switches between processes, the order of dispatches may not move.
func TestDispatchOrderGolden(t *testing.T) {
	const path = "testdata/dispatch_order_k1.golden"
	got := dispatchOrderLog(16)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("dispatch log diverges at line %d: got %q, want %q (at dispatched seq pid)", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("dispatch log has %d lines, want %d", len(gl), len(wl))
	}
}

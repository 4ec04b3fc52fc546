package mpi

import (
	"testing"
)

// pingPong bounces rounds messages each way between ranks 0 and 1 of a fresh
// two-node world, every one carrying the same pointer payload (boxing a
// pointer allocates nothing), and returns the world for inspection.
func pingPong(t *testing.T, rounds int, body *[4]complex128) *World {
	t.Helper()
	k, w := world(2)
	w.Launch("pp", func(r *Rank) {
		peer := 1 - r.ID()
		for i := 0; i < rounds; i++ {
			if r.ID() == 0 {
				r.Send(peer, 3, Payload{Bytes: 64, Data: body})
				r.Recv(peer, 4)
			} else {
				r.Recv(peer, 3)
				r.Send(peer, 4, Payload{Bytes: 64, Data: body})
			}
		}
	})
	run(t, k)
	return w
}

// TestMessageInFlightAllocFree: once the first message has warmed the pools
// (event nodes, the waiter, the in-flight record), a message costs no
// allocation from Send to Recv. The rate is marginal — a long run minus a
// short one — so the world's fixed costs cancel.
func TestMessageInFlightAllocFree(t *testing.T) {
	body := new([4]complex128)
	measure := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() { pingPong(t, rounds, body) })
	}
	const short, long = 50, 550
	measure(long)
	perMsg := (measure(long) - measure(short)) / (2 * (long - short))
	if perMsg > 0.01 {
		t.Fatalf("a message in flight allocates %.3f objects, want 0", perMsg)
	}
}

// TestDeliveredFlightDropsPayload: a delivered in-flight record goes back to
// its world's free list holding neither its payload nor its destination, and
// a ping-pong — one message in flight at a time — only ever needs one.
func TestDeliveredFlightDropsPayload(t *testing.T) {
	w := pingPong(t, 20, new([4]complex128))
	records := 0
	for f := w.flights; f != nil; f = f.next {
		records++
		if f.m.body.Data != nil || f.dst != nil {
			t.Fatalf("a recycled in-flight record still holds payload %v for %v", f.m.body.Data, f.dst)
		}
	}
	if records != 1 {
		t.Fatalf("%d in-flight records after a ping-pong, want the 1 that every message used", records)
	}
}

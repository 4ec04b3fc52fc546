package twin

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// unitPlatform has deliberately round numbers so every cost term below can
// be computed by hand: 1 flop = 1 ns, 1 copied byte = 1 ns, 1 wire byte =
// 10 ns on-board and 100 ns across boards.
func unitPlatform() *machine.Platform {
	return &machine.Platform{
		Name:              "unit",
		NodesPerBoard:     2,
		ClockHz:           1e9,
		FlopsPerCycle:     1,   // 1 Gflop/s: 1 flop = 1 ns
		MemCopyBW:         1e9, // 1 GB/s: 1 byte = 1 ns
		SendOverhead:      100,
		RecvOverhead:      200,
		IntraLatency:      1000,
		IntraBW:           1e8, // 1 byte = 10 ns
		InterLatency:      5000,
		InterBW:           1e7, // 1 byte = 100 ns
		FabricConcurrency: 1,
	}
}

func TestPointToPointHandComputed(t *testing.T) {
	pl := unitPlatform()
	if mpi.EnvelopeBytes != 32 {
		t.Fatalf("envelope changed (%d bytes); update the expectations", mpi.EnvelopeBytes)
	}
	// payload 68 + envelope 32 = 100 wire bytes everywhere below.
	cases := []struct {
		name     string
		src, dst int
		payload  int
		want     LinkCost
	}{
		// Self-transfer: a memory copy of the wire bytes; no overhead, no
		// wire, no latency.
		{"self", 0, 0, 68, LinkCost{CPU: 100, Local: true}},
		// Same board (nodes 0 and 1 share a 2-node board): software send
		// overhead, 100 bytes at 10 ns/byte, board latency.
		{"intra", 0, 1, 68, LinkCost{CPU: 100, Ser: 1000, Lat: 1000}},
		// Cross board (node 2 is on board 1): slower wire, fabric latency,
		// marked Inter so it contends for the shared fabric.
		{"inter", 0, 2, 68, LinkCost{CPU: 100, Ser: 10000, Lat: 5000, Inter: true}},
		// Empty payload still pays for the 32-byte envelope.
		{"envelope only", 0, 2, 0, LinkCost{CPU: 100, Ser: 3200, Lat: 5000, Inter: true}},
	}
	for _, c := range cases {
		if got := PointToPoint(pl, c.src, c.dst, c.payload); got != c.want {
			t.Errorf("%s: PointToPoint = %+v, want %+v", c.name, got, c.want)
		}
	}

	// Total is the earliest the receiver can observe the message.
	got := PointToPoint(pl, 0, 2, 68)
	if want := sim.Duration(100 + 10000 + 5000); got.Total() != want {
		t.Errorf("Total = %v, want %v", got.Total(), want)
	}

	// A credit is an empty message from consumer back to producer.
	if c, p := CreditCost(pl, 1, 0), PointToPoint(pl, 1, 0, 0); c != p {
		t.Errorf("CreditCost = %+v, want PointToPoint(…, 0) = %+v", c, p)
	}

	// Degenerate link: zero latency legs cost serialisation only.
	pl.IntraLatency, pl.InterLatency = 0, 0
	if got := PointToPoint(pl, 0, 1, 68); got.Lat != 0 || got.Ser != 1000 {
		t.Errorf("zero-latency link: %+v", got)
	}
}

func TestComputeCostHandComputed(t *testing.T) {
	pl := unitPlatform()
	cases := []struct {
		name      string
		dispatch  sim.Duration
		flops     float64
		copyBytes int
		speed     float64
		wantD     sim.Duration
		wantF     sim.Duration
		wantC     sim.Duration
	}{
		{"unit speed", 42, 1000, 500, 1, 42, 1000, 500},
		{"fast node halves flop time", 42, 1000, 500, 2, 42, 500, 500},
		{"slow node doubles flop time", 42, 1000, 500, 0.5, 42, 2000, 500},
		{"zero speed means default", 42, 1000, 500, 0, 42, 1000, 500},
		{"copies do not scale with speed", 0, 0, 4096, 4, 0, 0, 4096},
		{"nothing to do", 0, 0, 0, 1, 0, 0, 0},
	}
	for _, c := range cases {
		d, f, cp := ComputeCost(pl, c.dispatch, c.flops, c.copyBytes, c.speed)
		if d != c.wantD || f != c.wantF || cp != c.wantC {
			t.Errorf("%s: ComputeCost = (%v, %v, %v), want (%v, %v, %v)",
				c.name, d, f, cp, c.wantD, c.wantF, c.wantC)
		}
	}
}

func TestSerialTime(t *testing.T) {
	cases := []struct {
		n    int
		bw   float64
		want sim.Duration
	}{
		{100, 1e8, 1000},
		{1, 1e9, 1},
		{0, 1e8, 0},
		{-5, 1e8, 0},
	}
	for _, c := range cases {
		if got := serialTime(c.n, c.bw); got != c.want {
			t.Errorf("serialTime(%d, %g) = %v, want %v", c.n, c.bw, got, c.want)
		}
	}
}

package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// pingPongWorkload builds a ring of nProc processes across nDom domains:
// each process repeatedly does local work (sleeps, same-shard channel
// traffic) and forwards a token to the next domain through AfterOn with a
// latency >= lookahead. The recorded journal (every hop with timestamp and
// dispatch count) is the byte-identity probe.
func ringWorkload(k *Kernel, nDom, hops int, lat Duration, domOf func(int) int, journal *[]string) {
	chans := make([]*Chan[int], nDom)
	for d := 0; d < nDom; d++ {
		chans[d] = NewChanOn[int](k, d, fmt.Sprintf("ring%d", d))
	}
	for d := 0; d < nDom; d++ {
		d := d
		k.SpawnOn(d, fmt.Sprintf("node%d", d), func(p *Proc) {
			for {
				tok := chans[d].Recv(p)
				*journal = append(*journal, fmt.Sprintf("%d@%d t=%d", tok, d, p.Now()))
				if tok >= hops {
					// Drain lap: keep the token moving so every node exits.
					if tok < hops+nDom-1 {
						nxt := (d + 1) % nDom
						fin := tok + 1
						p.AfterOn(nxt, lat, func() { chans[nxt].Send(fin) })
					}
					return
				}
				p.Sleep(Duration(tok%7) * 100 * time.Nanosecond) // local work
				nxt := (d + 1) % nDom
				tok++
				p.AfterOn(nxt, lat+Duration(tok%3)*time.Microsecond, func() {
					chans[nxt].Send(tok)
				})
			}
		})
	}
	k.AfterOn(0, 0, func() { chans[0].Send(0) })
}

// meshWorkload stresses multiple simultaneously-active shards: every domain
// runs a generator that fires cross-domain messages on a seeded schedule
// while also contending on a local resource. Each domain records its own
// journal (journals[d] is only touched by domain d's processes, so sharded
// runs write it single-threaded); callers compare the per-domain journals,
// which capture order, timestamps and payloads within each domain.
func meshWorkload(k *Kernel, nDom, rounds int, lat Duration, seed int64, journals [][]string) {
	rng := rand.New(rand.NewSource(seed))
	type msg struct{ from, round int }
	chans := make([]*Chan[msg], nDom)
	res := make([]*Resource, nDom)
	for d := 0; d < nDom; d++ {
		chans[d] = NewChanOn[msg](k, d, fmt.Sprintf("mesh%d", d))
		res[d] = NewResourceOn(k, d, fmt.Sprintf("cpu%d", d), 2)
	}
	// Pre-seeded schedule so sequential and sharded runs build identical
	// plans regardless of execution interleaving.
	plan := make([][]int, nDom)
	inbound := make([]int, nDom)
	for d := range plan {
		plan[d] = make([]int, rounds)
		for r := range plan[d] {
			plan[d][r] = rng.Intn(nDom)
			inbound[plan[d][r]]++
		}
	}
	for d := 0; d < nDom; d++ {
		d := d
		k.SpawnOn(d, fmt.Sprintf("gen%d", d), func(p *Proc) {
			for r := 0; r < rounds; r++ {
				res[d].Use(p, 1, Duration(200+50*(r%4))*time.Nanosecond)
				tgt := plan[d][r]
				m := msg{from: d, round: r}
				if tgt == d {
					chans[d].SendAfter(300*time.Nanosecond, m)
				} else {
					p.AfterOn(tgt, lat, func() { chans[tgt].Send(m) })
				}
				p.Sleep(time.Microsecond)
			}
		})
		k.SpawnOn(d, fmt.Sprintf("sink%d", d), func(p *Proc) {
			for i := 0; i < inbound[d]; i++ {
				v := chans[d].Recv(p)
				journals[d] = append(journals[d], fmt.Sprintf("sink%d got %d/%d t=%d", d, v.from, v.round, p.Now()))
			}
		})
	}
}

func runJournal(t *testing.T, shards int, build func(k *Kernel, journal *[]string)) ([]string, uint64, Time) {
	t.Helper()
	const nDom = 8
	k := NewKernel()
	if shards > 1 {
		domOf := make([]int, nDom)
		for d := range domOf {
			domOf[d] = d % shards
		}
		k.SetShards(shards, domOf, 3*time.Microsecond)
	}
	var journal []string
	build(k, &journal)
	if err := k.Run(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	disp, now := k.Dispatched(), k.Now()
	k.Shutdown()
	return journal, disp, now
}

func TestShardedRingIdentical(t *testing.T) {
	build := func(k *Kernel, j *[]string) {
		ringWorkload(k, 8, 200, 3*time.Microsecond, nil, j)
	}
	seqJ, seqD, seqT := runJournal(t, 1, build)
	for _, K := range []int{2, 3, 4, 8} {
		gotJ, gotD, gotT := runJournal(t, K, build)
		if len(gotJ) != len(seqJ) {
			t.Fatalf("K=%d: journal length %d != %d", K, len(gotJ), len(seqJ))
		}
		for i := range seqJ {
			if gotJ[i] != seqJ[i] {
				t.Fatalf("K=%d: journal[%d] = %q, want %q", K, i, gotJ[i], seqJ[i])
			}
		}
		if gotD != seqD || gotT != seqT {
			t.Fatalf("K=%d: dispatched/now = %d/%d, want %d/%d", K, gotD, gotT, seqD, seqT)
		}
	}
}

func TestShardedMeshIdentical(t *testing.T) {
	const nDom = 8
	runMesh := func(shards int, seed int64) ([][]string, uint64) {
		k := NewKernel()
		if shards > 1 {
			domOf := make([]int, nDom)
			for d := range domOf {
				domOf[d] = d % shards
			}
			k.SetShards(shards, domOf, 3*time.Microsecond)
		}
		journals := make([][]string, nDom)
		meshWorkload(k, nDom, 40, 3*time.Microsecond, seed, journals)
		if err := k.Run(); err != nil {
			t.Fatalf("shards=%d seed=%d: %v", shards, seed, err)
		}
		disp := k.Dispatched()
		k.Shutdown()
		return journals, disp
	}
	for seed := int64(1); seed <= 5; seed++ {
		seqJ, seqD := runMesh(1, seed)
		for _, K := range []int{2, 4, 8} {
			gotJ, gotD := runMesh(K, seed)
			for d := 0; d < nDom; d++ {
				if fmt.Sprint(gotJ[d]) != fmt.Sprint(seqJ[d]) {
					t.Fatalf("seed=%d K=%d domain %d:\nseq: %v\ngot: %v", seed, K, d, seqJ[d], gotJ[d])
				}
			}
			if gotD != seqD {
				t.Fatalf("seed=%d K=%d: dispatched = %d, want %d", seed, K, gotD, seqD)
			}
		}
	}
}

// TestShardedAccessors checks Pending/LiveProcs/Dispatched/Now from a
// concurrent goroutine during a sharded run (race-safety is the point; run
// under -race).
func TestShardedAccessors(t *testing.T) {
	k := NewKernel()
	domOf := []int{0, 1, 2, 3, 0, 1, 2, 3}
	k.SetShards(4, domOf, 3*time.Microsecond)
	var journal []string
	ringWorkload(k, 8, 500, 3*time.Microsecond, nil, &journal)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if k.phase.Load() == phaseSetup {
				// Until Run begins the kernel belongs to the goroutine
				// setting it up; the concurrent-read contract starts with
				// the run.
				runtime.Gosched()
				continue
			}
			_ = k.Pending()
			_ = k.Dispatched()
			_ = k.LiveProcs()
			_ = k.Now()
		}
	}()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done
	if k.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after run", k.LiveProcs())
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d after run", k.Pending())
	}
	if k.Dispatched() == 0 {
		t.Fatal("Dispatched = 0 after run")
	}
	k.Shutdown()
}

// TestShardedShutdownParked tears down a sharded kernel with processes
// parked on every shard (the deadlock-then-Shutdown contract).
func TestShardedShutdownParked(t *testing.T) {
	k := NewKernel()
	domOf := []int{0, 1, 2, 3}
	k.SetShards(4, domOf, time.Microsecond)
	for d := 0; d < 4; d++ {
		d := d
		ch := NewChanOn[int](k, d, fmt.Sprintf("never%d", d))
		k.SpawnOn(d, fmt.Sprintf("stuck%d", d), func(p *Proc) {
			ch.Recv(p) // never delivered: parks forever
		})
	}
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 4 {
		t.Fatalf("blocked = %v, want 4 entries", de.Blocked)
	}
	k.Shutdown()
	if k.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after Shutdown", k.LiveProcs())
	}
	// Idempotent.
	k.Shutdown()
}

// TestShardedDeadlockOnlyWhenAllQuiescent: one shard drains early while
// others keep working; the run must complete without a spurious deadlock.
func TestShardedDeadlockOnlyWhenAllQuiescent(t *testing.T) {
	k := NewKernel()
	domOf := []int{0, 1}
	k.SetShards(2, domOf, time.Microsecond)
	// Domain 0 finishes immediately; domain 1 runs long and then messages
	// domain 0's channel consumer via AfterOn.
	ch := NewChanOn[int](k, 0, "late")
	k.SpawnOn(0, "waiter", func(p *Proc) {
		if v := ch.Recv(p); v != 42 {
			t.Errorf("got %d", v)
		}
	})
	k.SpawnOn(1, "worker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(time.Microsecond)
		}
		p.AfterOn(0, time.Microsecond, func() { ch.Send(42) })
	})
	if err := k.Run(); err != nil {
		t.Fatalf("spurious deadlock: %v", err)
	}
	k.Shutdown()
}

// TestShardedCancelMidWindow: a cancel channel closed while shards are
// mid-window halts the run on every shard; Shutdown then releases all
// parked procs.
func TestShardedCancelMidWindow(t *testing.T) {
	k := NewKernel()
	domOf := []int{0, 1, 2, 3, 0, 1, 2, 3}
	cancel := make(chan struct{})
	k.SetCancel(cancel, 64)
	k.SetShards(4, domOf, 3*time.Microsecond)
	var journal []string
	ringWorkload(k, 8, 1_000_000, 3*time.Microsecond, nil, &journal)
	go func() {
		time.Sleep(5 * time.Millisecond)
		close(cancel)
	}()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !k.Canceled() {
		t.Fatal("kernel did not observe cancellation")
	}
	k.Shutdown()
	if k.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after Shutdown", k.LiveProcs())
	}
}

// TestShardedStop: Kernel.Stop from inside a process halts all shards.
func TestShardedStop(t *testing.T) {
	k := NewKernel()
	domOf := []int{0, 1}
	k.SetShards(2, domOf, time.Microsecond)
	k.SpawnOn(0, "stopper", func(p *Proc) {
		p.Sleep(50 * time.Microsecond)
		k.Stop()
	})
	k.SpawnOn(1, "spinner", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
}

// TestSetShardsGuards: misuse panics.
func TestSetShardsGuards(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero lookahead", func() {
		NewKernel().SetShards(2, []int{0, 1}, 0)
	})
	mustPanic("bad domain map", func() {
		NewKernel().SetShards(2, []int{0, 5}, time.Microsecond)
	})
	mustPanic("after scheduling", func() {
		k := NewKernel()
		k.Spawn("p", func(p *Proc) {})
		k.SetShards(2, []int{0, 1}, time.Microsecond)
	})
	// Cross-shard delay below lookahead panics on the proc's goroutine;
	// catch it in the body and report through a channel.
	{
		k := NewKernel()
		k.SetShards(2, []int{0, 1}, 10*time.Microsecond)
		panicked := make(chan bool, 1)
		k.SpawnOn(0, "p", func(p *Proc) {
			defer func() { panicked <- recover() != nil }()
			p.AfterOn(1, time.Microsecond, func() {})
		})
		_ = k.Run()
		if !<-panicked {
			t.Fatal("cross-shard delay under lookahead did not panic")
		}
		k.Shutdown()
	}
	mustPanic("After on sharded kernel", func() {
		k := NewKernel()
		k.SetShards(2, []int{0, 1}, time.Microsecond)
		k.After(time.Microsecond, func() {})
	})
}

// TestShardedEchoChain: shard 0 drives an echo protocol where shard 1 has
// no self-generated events — every event it executes arrives from shard 0,
// and each echo returns to shard 0. Without the dynamic horizon self-cap
// the lone active shard (whose static horizon is unbounded because the
// other shard looks idle) would simulate past the reply's arrival.
func TestShardedEchoChain(t *testing.T) {
	lat := 2 * time.Microsecond
	build := func(k *Kernel, journal *[]string) {
		req := NewChanOn[int](k, 1, "req")
		rep := NewChanOn[int](k, 0, "rep")
		k.SpawnOn(1, "echoer", func(p *Proc) {
			for {
				v := req.Recv(p)
				if v < 0 {
					return
				}
				p.AfterOn(0, lat, func() { rep.Send(v) })
			}
		})
		k.SpawnOn(0, "driver", func(p *Proc) {
			for i := 0; i < 50; i++ {
				i := i
				p.AfterOn(1, lat, func() { req.Send(i) })
				v := rep.Recv(p)
				*journal = append(*journal, fmt.Sprintf("echo %d at %d", v, p.Now()))
			}
			p.AfterOn(1, lat, func() { req.Send(-1) })
		})
	}
	seqJ, seqD, _ := runJournal2(t, 1, build)
	gotJ, gotD, _ := runJournal2(t, 2, build)
	if fmt.Sprint(gotJ) != fmt.Sprint(seqJ) || gotD != seqD {
		t.Fatalf("K=2: journal/dispatched mismatch\nseq: %v (%d)\ngot: %v (%d)", seqJ, seqD, gotJ, gotD)
	}
}

func runJournal2(t *testing.T, shards int, build func(k *Kernel, journal *[]string)) ([]string, uint64, Time) {
	t.Helper()
	const nDom = 2
	k := NewKernel()
	if shards > 1 {
		domOf := make([]int, nDom)
		for d := range domOf {
			domOf[d] = d % shards
		}
		k.SetShards(shards, domOf, 2*time.Microsecond)
	}
	var journal []string
	build(k, &journal)
	if err := k.Run(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	disp, now := k.Dispatched(), k.Now()
	k.Shutdown()
	return journal, disp, now
}

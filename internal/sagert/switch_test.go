package sagert

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/funclib"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/platforms"
	"repro/internal/sim"
)

// TestSwitchCeilings pins what the kernel-side holds and the stackless
// thread removed — the node's time-slicing, a message side as one park, and
// the thread's coroutine itself — as counts that repeat exactly on any
// host: of the events a run dispatches, how many resumed a process other
// than the one executing the event loop (Result.Switches).
// Every SAGE thread is a step machine, so that is none, on every path.
// Dispatches are pinned beside them so the zero cannot be met by simulating
// something else.
func TestSwitchCeilings(t *testing.T) {
	faults, err := fault.ParsePlan("seed 9\ndrop link=* rate=0.1\nstall node=1 at=200us for=500us\n")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name           string
		threads, nodes int
		wide           bool // staggered across a Mercury crossbar instead of spread over CSPI
		opts           Options
		dispatches     uint64
		was            string // what the shape paid as coroutines
	}{
		// The daemon's sim request (benchmark serve_mix, class sim): 2 647 of
		// its 4 761 events are quantum ends and 64 % of acquires are contended.
		{"serve_mix sim shape", 4, 8, false, Options{Iterations: 5}, 4761,
			"4 060 as process wakes, 532 with the quanta as kernel steps, 375 with a message side one park"},
		// benchmark wide1024, class seq: 1.7 switches per message as one park
		// per side — the few lines of Go between two parks.
		{"wide1024 seq shape", 64, 1024, true, Options{Iterations: 3}, 119980,
			"91 958 as process wakes, 91 133 with the quanta as kernel steps, 43 343 with a message side one park"},
		// The same request under drops and a stall: retries, backoff sleeps,
		// timed receives re-armed, credits overcommitted, transfers
		// re-sequenced around the stalled node.
		{"serve_mix faulted shape", 4, 8, false, Options{Iterations: 5, Faults: faults, Resilience: fault.Resilience{Degraded: true}}, 5130,
			"648 as coroutines"},
		// Like for like with the hand-coded loop: one data set at a time,
		// every thread at the iteration barrier.
		{"serve_mix sequential shape", 4, 8, false, Options{Iterations: 5, Sequential: true}, 3388,
			"417 as coroutines"},
	}
	for _, c := range cases {
		app, err := apps.FFT2D(256, c.threads)
		if err != nil {
			t.Fatal(err)
		}
		place, pl := model.SpreadParallel, platforms.CSPI()
		if c.wide {
			place, pl = model.StaggerParallel, platforms.Mercury()
		}
		mapping, err := place(app, c.nodes)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: pl, NumNodes: c.nodes})
		if err != nil {
			t.Fatal(err)
		}
		o := c.opts
		o.ComputeIterations = NoSamples
		res, err := Run(gen.Tables, pl, o)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d dispatches, %d switches", c.name, res.Dispatches, res.Switches)
		if res.Dispatches != c.dispatches {
			t.Fatalf("%s: %d dispatches, want %d", c.name, res.Dispatches, c.dispatches)
		}
		if res.Switches != 0 {
			t.Fatalf("%s: %d process switches, want 0 (%s)", c.name, res.Switches, c.was)
		}
	}
}

// TestQueueCensusWide1024Seq pins what the kernel's event queue does on the
// benchmark's wide1024 seq class, as counts that repeat exactly on any host:
// of the events a run dispatches, how many are filed in the radix queue's
// buckets rather than the same-time lane, and how often each is moved to a
// lower bucket on its way to the lane (the 4-ary heap it replaced sifted
// ~3 levels, with up to 4 comparisons a level, per pop). The counts are the
// queue's own, unexported and observe-only, read here by reflection.
func TestQueueCensusWide1024Seq(t *testing.T) {
	app, err := apps.FFT2D(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	pl := platforms.Mercury()
	mapping, err := model.StaggerParallel(app, 1024)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: pl, NumNodes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var k *sim.Kernel
	res, err := run(gen.Tables, pl, Options{Iterations: 3, ComputeIterations: NoSamples},
		runHooks{setup: func(_ *runner, kk *sim.Kernel) { k = kk }})
	if err != nil {
		t.Fatal(err)
	}
	q := reflect.ValueOf(k).Elem().FieldByName("queue")
	pushes, moves := q.FieldByName("pushes").Uint(), q.FieldByName("moves").Uint()
	perPush := float64(moves) / float64(pushes)
	t.Logf("wide1024 seq: %d dispatches, %d queued pushes, %d bucket moves (%.2f per push)", res.Dispatches, pushes, moves, perPush)
	if res.Dispatches != 119980 || pushes != 107367 {
		t.Fatalf("wide1024 seq: %d dispatches and %d queued pushes, want 119 980 and 107 367", res.Dispatches, pushes)
	}
	if perPush > 3 {
		t.Fatalf("wide1024 seq: %.2f bucket moves per queued push, ceiling 3", perPush)
	}
}

// wide1024Run returns one sagert.Run of the benchmark's wide1024 seq shape
// at threads threads a function — Mercury, 1 024 nodes, fft2d 256,
// staggered, three data sets, samples in the first unless o says otherwise —
// and the number of lanes its plan has.
func wide1024Run(t *testing.T, threads int, o Options) (run func(), lanes int) {
	t.Helper()
	app, err := apps.FFT2D(256, threads)
	if err != nil {
		t.Fatal(err)
	}
	pl := platforms.Mercury()
	mapping, err := model.StaggerParallel(app, 1024)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: pl, NumNodes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	xp, err := plan.Build(gen.Tables)
	if err != nil {
		t.Fatal(err)
	}
	o.Iterations = 3
	return func() {
		if _, err := Run(gen.Tables, pl, o); err != nil {
			t.Fatal(err)
		}
	}, len(xp.Edges)
}

// allocsOf reports the objects and bytes one call of run allocates,
// averaged over three after a warm-up.
func allocsOf(run func()) (allocs float64, bytes uint64) {
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(3, run)
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / 4
}

// TestAllocCeilingWide1024Seq pins what one sagert.Run of the benchmark's
// wide1024 seq class allocates: Mercury, 1 024 nodes, fft2d 256 on 64
// threads, three data sets of which the first carries samples. With a
// coroutine per thread (iter.Pull's objects, a body closure and a context
// each) it was 10 791 objects; as step machines, ~9 230 — under 0.08 per
// event of its 119 980. The fft2d runs on 130 of the 1 024 nodes: with
// nodes and endpoints built on first use and each endpoint's queue sized
// from the plan's lanes a run allocated 3.39 MB in ~8 160 objects (3.85 MB
// in ~8 540 with the whole machine built and the queues grown by
// doubling). Since a send hands over the producer's block instead of a
// view header per lane, and the plan holds 24-byte edges and carves its
// ports and lane lists from one array each, it is 3.04 MB in ~2 840. Since
// a kind takes its blocks by port position, from one array per run, instead
// of two name maps per thread, and the plan's layouts carve their int32
// consumer lists and reader sets from one array, it is 2.91 MB in ~2 300
// (~2 550 under -race).
func TestAllocCeilingWide1024Seq(t *testing.T) {
	run, _ := wide1024Run(t, 64, Options{})
	allocs, bytes := allocsOf(run)
	t.Logf("wide1024 seq: %.0f allocations, %d bytes per run", allocs, bytes)
	if ceiling := 2_980_000 * allocSlack; allocs > 2700 || float64(bytes) > ceiling {
		t.Fatalf("a wide1024 seq run allocates %.0f objects and %d bytes, ceilings 2 700 and %.0f", allocs, bytes, ceiling)
	}
}

// TestAllocCeilingPerLane: a send allocates nothing. Between the wide1024
// shape at 32 and at 64 threads a function — 1 088 and 4 224 lanes — what a
// run that carries samples allocates beyond the same run without samples
// grows, per added lane, by less than one block header
// (unsafe.Sizeof(funclib.Block{}), 64 bytes) and a quarter of an object.
// The bookkeeping every run pays per lane (the plan's 24-byte edge and its
// two list entries, the ranks' reserved queues) cancels in the difference;
// what is left is the sample task's record of each payload — the block and
// the edge id — and the plan's storage records: ~35 bytes and 0.03 objects
// a lane. A view header per send (funclib.ExtractRegion in stSend) is ~99
// bytes and 1.03 objects.
func TestAllocCeilingPerLane(t *testing.T) {
	cost := func(threads int) (lanes int, allocs float64, bytes float64) {
		sampled, lanes := wide1024Run(t, threads, Options{})
		bare, _ := wide1024Run(t, threads, Options{ComputeIterations: NoSamples})
		sa, sb := allocsOf(sampled)
		ba, bb := allocsOf(bare)
		return lanes, sa - ba, float64(sb) - float64(bb)
	}
	fewLanes, fewAllocs, fewBytes := cost(32)
	lanes, allocs, bytes := cost(64)
	added := float64(lanes - fewLanes)
	perAlloc, perByte := (allocs-fewAllocs)/added, (bytes-fewBytes)/added
	t.Logf("samples cost %.0f objects, %.0f bytes at %d lanes; %.0f, %.0f at %d: %.3f objects, %.1f bytes per added lane",
		fewAllocs, fewBytes, fewLanes, allocs, bytes, lanes, perAlloc, perByte)
	if header := float64(unsafe.Sizeof(funclib.Block{})); perAlloc >= 0.25 || perByte >= header {
		t.Fatalf("samples cost %.3f objects and %.1f bytes per added lane; want under 0.25 and %.0f", perAlloc, perByte, header)
	}
}

// TestAllocCeilingServeShapeNoSamples pins what the daemon's sim request
// allocates in sagert.Run: CSPI, 8 nodes, fft2d 256 on 4 threads spread
// over them, five data sets and no samples — model, mapping and tables are
// built outside. The threads use 4 of the 8 nodes: 27.6 kB with nodes and
// endpoints built on first use and each queue sized from the plan (32.0 kB
// with the machine built up front and the queues grown by doubling), and
// 22.8 kB since a kind takes its blocks by port position instead of a name
// map per thread and side (3.6 kB of the 27.2 before), so a per-node,
// per-message or per-thread object creeping back shows here.
func TestAllocCeilingServeShapeNoSamples(t *testing.T) {
	app, err := apps.FFT2D(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	pl := platforms.CSPI()
	mapping, err := model.SpreadParallel(app, 8)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: pl, NumNodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := Run(gen.Tables, pl, Options{Iterations: 5, ComputeIterations: NoSamples}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(10, run)
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / 11
	t.Logf("serve shape, no samples: %.0f allocations, %d bytes per run", allocs, bytes)
	if ceiling := 24_500 * allocSlack; float64(bytes) > ceiling {
		t.Fatalf("a serve-shape run without samples allocates %d bytes, ceiling %.0f", bytes, ceiling)
	}
}

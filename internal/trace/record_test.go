package trace

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestEventLogOrder: records come back in recording order across chunk
// boundaries, by index and flattened.
func TestEventLogOrder(t *testing.T) {
	for _, n := range []int{0, 1, logChunk - 1, logChunk, logChunk + 1, 3*logChunk + 7} {
		var l eventLog[int]
		for i := range n {
			l.add(i)
		}
		if l.len() != n {
			t.Fatalf("len %d, want %d", l.len(), n)
		}
		flat := l.appendTo(nil)
		if len(flat) != n {
			t.Fatalf("n=%d: appendTo gave %d records", n, len(flat))
		}
		for i := range n {
			if *l.at(i) != i || flat[i] != i {
				t.Fatalf("n=%d: record %d reads %d by index, %d flattened", n, i, *l.at(i), flat[i])
			}
		}
	}
}

// TestAllocCeilingRecord: N spans cost ⌈N/logChunk⌉ chunks plus the chunk
// index's doublings, never a copy of the records; a repeat wait on a key
// the collector has seen allocates nothing, whether it records a span or
// only counts.
func TestAllocCeilingRecord(t *testing.T) {
	const n = 10*logChunk + 1
	var c *Collector // kept, so that New's maps are made on the heap in both runs
	fresh := testing.AllocsPerRun(10, func() { c = New("r") })
	spans := testing.AllocsPerRun(10, func() {
		c = New("r")
		for i := range n {
			c.Xfer(LayerSage, 0, "worker #1", "send b0 t1", 4096, i, sim.Time(i), sim.Time(i+1))
		}
	}) - fresh
	chunks := (n + logChunk - 1) / logChunk
	ceiling := float64(chunks + bits.Len(uint(chunks-1)) + 1) // the index doubles from 1 to >= chunks
	t.Logf("%d spans: %.0f allocations (%d chunks; ceiling %.0f)", n, spans, chunks, ceiling)
	if spans > ceiling {
		t.Fatalf("%d spans make %.0f allocations, want at most %.0f: are records copied as the log grows?", n, spans, ceiling)
	}

	c = New("w")
	c.ProcStart(1, "worker", 0)
	c.Wait(1, "worker", "acquire", "CSPI.n0.cpu", 0, 1, 0)
	c.Wait(1, "worker", "recv", "mpi.rank0.recv(src=1,tag=7)", 0, 1, 0)
	if a := testing.AllocsPerRun(1000, func() { c.Wait(1, "worker", "acquire", "CSPI.n0.cpu", 0, 1, 0) }); a != 0 {
		t.Fatalf("a repeat counter-only wait allocates %.0f times, want 0", a)
	}
	// A span-recording wait pays only its share of a chunk: 1000 waits fill
	// sixteen, well below one allocation per wait.
	if a := testing.AllocsPerRun(1000, func() { c.Wait(1, "worker", "recv", "mpi.rank0.recv(src=1,tag=7)", 0, 1, 0) }); a != 0 {
		t.Fatalf("a repeat recv wait allocates %.0f times per wait, want 0", a)
	}
}

// referenceWaits is the wait counter the collector kept before its keys
// became structs: one map keyed by the joined "kind object" string, built on
// every wait, sorted by total descending with ties by key.
type referenceWaits map[string]*WaitTotals

func (r referenceWaits) wait(kind, object string, from, to sim.Time) {
	counterObj := object
	if i := strings.IndexByte(counterObj, '('); i > 0 {
		counterObj = counterObj[:i]
	}
	key := kind + " " + counterObj
	wt := r[key]
	if wt == nil {
		wt = &WaitTotals{}
		r[key] = wt
	}
	wt.Count++
	wt.Total += to.Sub(from)
}

func (r referenceWaits) sorted() []struct {
	Key string
	WaitTotals
} {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := r[keys[i]], r[keys[j]]
		if a.Total != b.Total {
			return a.Total > b.Total
		}
		return keys[i] < keys[j]
	})
	out := make([]struct {
		Key string
		WaitTotals
	}, len(keys))
	for i, k := range keys {
		out[i].Key = k
		out[i].WaitTotals = *r[k]
	}
	return out
}

// summaryWaits renders the summary's contention table as WriteSummary
// rendered it from the string-keyed counter.
func summaryWaits(waits []struct {
	Key string
	WaitTotals
}) string {
	var b strings.Builder
	fmt.Fprintf(&b, "top waits:\n")
	for j, wt := range waits {
		if j == summaryTopWaits {
			fmt.Fprintf(&b, "  ... and %d more\n", len(waits)-summaryTopWaits)
			break
		}
		fmt.Fprintf(&b, "  %-50s %12v over %d waits\n", wt.Key, wt.Total, wt.Count)
	}
	return b.String()
}

// TestWaitsMatchReference: over seeded random wait streams — every kind,
// endpoint detail that the counters fold, durations drawn from a few values
// so totals tie — the struct-keyed counters report the reference's Waits
// slice and summary table, and every recorded wait span carries the name
// and track it was formatted with per wait.
func TestWaitsMatchReference(t *testing.T) {
	kinds := []string{"recv", "acquire", "barrier"}
	objects := []string{"CSPI.n0.cpu", "CSPI.n1.cpu", "iteration", "mpi.rank0.recv", "mpi.rank1.recv",
		"mpi.rank0.recv(src=1,tag=7)", "mpi.rank0.recv(src=2,tag=7)", "mpi.rank1.recv(src=0,tag=65536)", "(odd)", "local b0 0->1"}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, ref := New("w"), referenceWaits{}
		c.Verbose = rng.Intn(2) == 0
		type wantSpan struct{ track, name string }
		var want []wantSpan
		for range 1 + rng.Intn(300) {
			pid := 1 + rng.Intn(5)
			proc := fmt.Sprintf("p%d", pid)
			if rng.Intn(10) == 0 {
				c.ProcStart(pid, proc, 0)
			}
			kind, object := kinds[rng.Intn(len(kinds))], objects[rng.Intn(len(objects))]
			from := sim.Time(rng.Intn(4))
			to := from.Add(sim.Duration(rng.Intn(3)))
			c.Wait(pid, proc, kind, object, from, to, rng.Intn(3))
			ref.wait(kind, object, from, to)
			if kind != "acquire" || c.Verbose {
				want = append(want, wantSpan{ProcTrack(proc, pid), "wait:" + kind + " " + object})
			}
		}
		wantWaits := ref.sorted()
		if got := c.Waits(); !reflect.DeepEqual(got, wantWaits) {
			t.Fatalf("seed %d: Waits\n%+v\nwant\n%+v", seed, got, wantWaits)
		}
		tr := NewTrace()
		tr.Add(c)
		var sum bytes.Buffer
		if err := tr.WriteSummary(&sum); err != nil {
			t.Fatal(err)
		}
		if table := summaryWaits(wantWaits) + "\n"; !strings.HasSuffix(sum.String(), table) {
			t.Fatalf("seed %d: summary\n%s\ndoes not end with the reference table\n%s", seed, sum.String(), table)
		}
		spans := c.Spans()
		if len(spans) != len(want) {
			t.Fatalf("seed %d: %d wait spans, want %d", seed, len(spans), len(want))
		}
		for i, s := range spans {
			if s.Track != want[i].track || s.Name != want[i].name {
				t.Fatalf("seed %d: span %d on %q named %q, want %q named %q", seed, i, s.Track, s.Name, want[i].track, want[i].name)
			}
		}
	}
}

// TestTrackBuiltOnce: a process's track is built once, whichever of Track,
// ProcStart or Wait sees the process first, and is the track of its
// lifetime span; asking for it again allocates nothing.
func TestTrackBuiltOnce(t *testing.T) {
	k := sim.NewKernel()
	c := New("t")
	k.SetTracer(c)
	var want string
	var again float64
	k.Spawn("worker", func(p *sim.Proc) {
		want = ProcTrack(p.Name(), p.PID())
		if got := c.Track(p); got != want {
			t.Errorf("track %q, want %q", got, want)
		}
		again = testing.AllocsPerRun(10, func() { c.Track(p) })
		p.Sleep(1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if again != 0 {
		t.Fatalf("a repeat Track allocates %.0f times, want 0", again)
	}
	var off *Collector
	if got := off.Track(nil); got != "" {
		t.Fatalf("the nil collector's track is %q", got)
	}
	spans := c.Spans()
	if len(spans) != 1 || spans[0].Track != want || spans[0].Name != "proc worker" {
		t.Fatalf("lifetime spans %+v, want one on %q", spans, want)
	}
}

// kernelTrace runs a small contended workload — producers and consumers on
// mailboxes, a shared two-unit resource — under one collector and returns
// its Chrome export and summary.
func kernelTrace(verbose bool) ([]byte, error) {
	k := sim.NewKernel()
	c := New("kernel")
	c.Verbose = verbose
	k.SetTracer(c)
	cpu := sim.NewResource(k, "cpu", 2)
	for i := range 4 {
		box := sim.NewChan[int](k, fmt.Sprintf("box%d", i))
		k.Spawn(fmt.Sprintf("producer%d", i), func(p *sim.Proc) {
			for j := range 20 {
				cpu.Use(p, 1, sim.Duration(1+(i+j)%3))
				box.Send(j)
			}
		})
		k.Spawn(fmt.Sprintf("consumer%d", i), func(p *sim.Proc) {
			for range 20 {
				box.Recv(p)
				c.Phase(LayerSage, i, c.Track(p), "compute", 0, p.Now(), p.Now().Add(1))
				cpu.Use(p, 1, 2)
			}
		})
	}
	if err := k.Run(); err != nil {
		return nil, err
	}
	c.Finish(k)
	tr := NewTrace()
	tr.Add(c)
	var b bytes.Buffer
	if err := tr.WriteChrome(&b); err != nil {
		return nil, err
	}
	err := tr.WriteSummary(&b)
	return b.Bytes(), err
}

// TestCollectorsRecordConcurrently: collectors recording at the same time
// on separate goroutines, as the daemon's workers do, share no name cache —
// each writes what a collector recording alone writes (run under -race).
func TestCollectorsRecordConcurrently(t *testing.T) {
	for _, verbose := range []bool{false, true} {
		want, err := kernelTrace(verbose)
		if err != nil {
			t.Fatal(err)
		}
		got, errs := make([][]byte, 4), make([]error, 4)
		done := make(chan int)
		for g := range got {
			go func() {
				got[g], errs[g] = kernelTrace(verbose)
				done <- g
			}()
		}
		for range got {
			<-done
		}
		for g := range got {
			if errs[g] != nil {
				t.Fatal(errs[g])
			}
			if !bytes.Equal(got[g], want) {
				t.Fatalf("verbose %v: goroutine %d's trace differs from one recorded alone", verbose, g)
			}
		}
	}
}

// TestAllocCeilingVerboseNames: a Verbose collector names each channel's and
// resource's instants once — the "chan name" and "res name" tracks and the
// "op inUse/capacity" labels — so past its first operations on a name a run
// pays only its share of a log chunk per instant, however many it records
// (a string or two per instant when each was built on the spot).
func TestAllocCeilingVerboseNames(t *testing.T) {
	record := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			c := New("v")
			c.Verbose = true
			for i := range n {
				at := sim.Time(i)
				c.ChanOp("send", "mpi.rank3.recv(src=1,tag=7)", i%4, at)
				c.ChanOp("recv", "local b0 0->1", i%2, at)
				c.ResourceOp("acquire", "CSPI.n0.cpu", 1, 1, i%3, at)
				c.ResourceOp("release", "CSPI.n0.cpu", 0, 1, i%3, at)
			}
		})
	}
	const small, large = 1 << 8, 1 << 14
	perEvent := (record(large) - record(small)) / (4 * (large - small))
	t.Logf("%.4f allocations per Verbose instant", perEvent)
	if perEvent > 1.5/logChunk {
		t.Fatalf("a Verbose instant costs %.4f allocations, want at most its share of a %d-record chunk", perEvent, logChunk)
	}
}

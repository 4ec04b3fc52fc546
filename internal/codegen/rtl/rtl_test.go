package rtl

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/funclib"
	"repro/internal/isspl"
	"repro/internal/model"
)

// reg abbreviates region literals in test programs.
func reg(r0, c0, rows, cols int) model.Region {
	return model.Region{R0: r0, C0: c0, Rows: rows, Cols: cols}
}

// whole is a full, unstriped 1-thread region over rows x cols.
func whole(rows, cols int) model.Region { return reg(0, 0, rows, cols) }

// directProgram is the minimal 1-thread graph: source -> sink over one lane.
// The source's block lies in the sink's result, so no port has a storage.
func directProgram(rows, cols, iterations int) *Program {
	return &Program{
		App: "direct", Iterations: iterations, Slots: 2,
		Threads: []Thread{
			{Fn: "src", Kind: "source_matrix", Thread: 0, Threads: 1,
				Params: map[string]any{"seed": 7}, Result: "snk",
				Outs: []Port{{Name: "out", Region: whole(rows, cols),
					Xfers: []Xfer{{Conn: 0, Region: whole(rows, cols)}}}}},
			{Fn: "snk", Kind: "sink_matrix", Thread: 0, Threads: 1,
				SinkRows: rows, SinkCols: cols,
				Ins: []Port{{Name: "in", Region: whole(rows, cols),
					Xfers: []Xfer{{Conn: 0, Region: whole(rows, cols)}}}}},
		},
		Conns: []Conn{{Buf: 0, SrcFn: "src", SrcThread: 0, DstFn: "snk", DstThread: 0}},
	}
}

// sourceMatrix evaluates the source generator over a whole matrix, the
// reference the substrate outputs are checked against.
func sourceMatrix(seed int64, iter, rows, cols int) *isspl.Matrix {
	m := isspl.NewMatrix(rows, cols)
	b := &funclib.Block{Region: whole(rows, cols), Data: m.Data}
	funclib.FillSource(b, seed, iter)
	return m
}

func TestDirectOneThread(t *testing.T) {
	p := directProgram(4, 3, 3)
	res, err := Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iters) != 3 {
		t.Fatalf("got %d iterations", len(res.Iters))
	}
	for iter := 0; iter < 3; iter++ {
		want := sourceMatrix(7, iter, 4, 3)
		got := res.Iters[iter]["snk"]
		if got == nil || !reflect.DeepEqual(want.Data, got.Data) {
			t.Fatalf("iteration %d: sink mismatch", iter)
		}
	}
}

// TestLaneOrderingFIFO pins the per-(src,dst) ordering contract: each lane
// delivers data sets in iteration order, so a multi-iteration pipeline can
// never observe iteration k+1's region before iteration k's.
func TestLaneOrderingFIFO(t *testing.T) {
	p := directProgram(2, 2, 4)
	e := newExec(p)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4; i++ {
			b := funclib.NewBlock(whole(2, 2))
			b.Data[0] = complex(float64(i), 0)
			if !e.send(0, b) {
				t.Error("send aborted")
				return
			}
		}
	}()
	for i := 0; i < 4; i++ {
		b, ok := e.recv(0, i)
		if !ok {
			t.Fatal("recv aborted")
		}
		if real(b.Data[0]) != float64(i) {
			t.Fatalf("lane reordered: got data set %v at position %d", real(b.Data[0]), i)
		}
	}
	<-done
}

// TestLaneCreditBound pins the buffering contract: a lane admits exactly
// Slots in-flight data sets and blocks the producer on the next one — the
// channel-capacity realisation of internal/mpi's pipelining credits.
func TestLaneCreditBound(t *testing.T) {
	p := directProgram(2, 2, 1)
	p.Slots = 3
	e := newExec(p)
	if cap(e.chans[0]) != 3 {
		t.Fatalf("lane capacity %d, want Slots=3", cap(e.chans[0]))
	}
	for i := 0; i < 3; i++ {
		select {
		case e.chans[0] <- funclib.NewBlock(whole(2, 2)):
		default:
			t.Fatalf("send %d blocked inside the credit budget", i)
		}
	}
	select {
	case e.chans[0] <- funclib.NewBlock(whole(2, 2)):
		t.Fatal("send beyond Slots did not block: credit bound not enforced")
	default:
	}
	// Consuming one data set returns one credit: the blocked send proceeds.
	<-e.chans[0]
	select {
	case e.chans[0] <- funclib.NewBlock(whole(2, 2)):
	default:
		t.Fatal("send still blocked after a credit returned")
	}
}

// TestEOSPropagation pins the end-of-stream contract from both sides:
// premature close is detected by the receiver, a message after the final
// iteration is detected by the EOS drain, and a clean close passes it.
func TestEOSPropagation(t *testing.T) {
	p := directProgram(2, 2, 2)

	t.Run("premature", func(t *testing.T) {
		e := newExec(p)
		close(e.chans[0])
		if _, ok := e.recv(0, 1); ok {
			t.Fatal("recv on a closed lane succeeded")
		}
		if e.err == nil || !bytes.Contains([]byte(e.err.Error()), []byte("EOS before iteration 1")) {
			t.Fatalf("err = %v", e.err)
		}
	})

	t.Run("late-message", func(t *testing.T) {
		e := newExec(p)
		e.chans[0] <- funclib.NewBlock(whole(2, 2))
		close(e.chans[0])
		e.drainEOS(&p.Threads[1])
		if e.err == nil || !bytes.Contains([]byte(e.err.Error()), []byte("message after the final iteration")) {
			t.Fatalf("err = %v", e.err)
		}
	})

	t.Run("clean", func(t *testing.T) {
		e := newExec(p)
		e.closeOuts(&p.Threads[0])
		e.drainEOS(&p.Threads[1])
		if e.err != nil {
			t.Fatalf("clean EOS flagged: %v", e.err)
		}
	})
}

// TestAbortReleasesBlockedThreads: the first failure must release producers
// blocked on full lanes and consumers blocked on empty ones, so a broken run
// returns an error instead of deadlocking.
func TestAbortReleasesBlockedThreads(t *testing.T) {
	p := directProgram(2, 2, 1)
	p.Slots = 1
	e := newExec(p)
	e.chans[0] <- funclib.NewBlock(whole(2, 2)) // lane full: next send blocks
	sendDone := make(chan bool, 1)
	go func() { sendDone <- e.send(0, funclib.NewBlock(whole(2, 2))) }()
	e2 := newExec(p) // empty lane: recv blocks
	recvDone := make(chan bool, 1)
	go func() { _, ok := e2.recv(0, 0); recvDone <- ok }()
	e.fail(fmt.Errorf("boom"))
	e2.fail(fmt.Errorf("boom"))
	for name, ch := range map[string]chan bool{"send": sendDone, "recv": recvDone} {
		select {
		case ok := <-ch:
			if ok {
				t.Fatalf("blocked %s reported success after abort", name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("blocked %s not released by abort", name)
		}
	}

	// A producer parked waiting for its block's readers: the source, one
	// block deep at Slots 1, waits at iteration 1 for fft_rows to finish
	// iteration 0, and fft_rows — held until the source parks — fails
	// there (a 3-sample row is no FFT length). The sink's transfer covers
	// half its result, so the source's block cannot lie in it.
	base := runtime.NumGoroutine()
	bad := uncoveredProgram(directProgram(4, 3, 3), "fft", "fft_rows")
	bad.Slots = 1
	if err := bad.Validate(); err != nil {
		t.Fatal(err)
	}
	e3 := newExec(bad)
	parked := make(chan struct{})
	var once sync.Once
	e3.hooks.park = func(ti int) {
		if ti == 0 {
			once.Do(func() { close(parked) })
		}
	}
	e3.hooks.recv = func(ti int, _ *funclib.Block, _ model.Region) {
		if ti == 1 {
			select {
			case <-parked:
			case <-time.After(5 * time.Second):
				t.Error("the source never waited for its readers")
			}
		}
	}
	res, err := e3.run()
	if res != nil || err == nil || !strings.Contains(err.Error(), "fft thread 0 iteration 0") {
		t.Fatalf("run with a failing compute: result %v, err %v", res, err)
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("goroutines grew from %d to %d across the aborted run", base, n)
	}
}

// uncoveredProgram puts a thread of kind, which computes in place on the
// source's block it adopts, between the source and the sink of p, a
// directProgram, and has it send the sink only the upper half of the block.
// The source's block then cannot lie in the sink's result (the plan's
// decision, TestUncoveredResultHostsNothing in internal/plan): the source
// keeps a storage, which the thread and, through it, the sink read.
func uncoveredProgram(p *Program, fn, kind string) *Program {
	r := p.Threads[0].Outs[0].Region
	half := reg(0, 0, r.Rows/2, r.Cols)
	p.Threads[0].Result = ""
	p.Threads[0].Outs[0].Storage = &Storage{Readers: []int{0, 1, 2}, Clear: true}
	p.Threads = slices.Insert(p.Threads, 1, Thread{Fn: fn, Kind: kind, Thread: 0, Threads: 1, InPlace: true,
		Ins:  []Port{{Name: "in", Region: r, Xfers: []Xfer{{Conn: 0, Region: r}}}},
		Outs: []Port{{Name: "out", Region: r, Xfers: []Xfer{{Conn: 1, Region: half}}}}})
	p.Threads[2].Ins[0].Xfers[0] = Xfer{Conn: 1, Region: half}
	p.Conns = []Conn{{Buf: 0, SrcFn: "src", DstFn: fn}, {Buf: 1, SrcFn: fn, DstFn: "snk"}}
	return p
}

// TestUncoveredResultHostsNothing: a source whose block a forwarding
// identity sends on to a sink that receives only half of it keeps that
// block in a storage of its own, not in the sink's result, where the half
// the sink never writes would keep the source's samples. The result is the
// source's upper half and zero below, as a fresh result would be.
func TestUncoveredResultHostsNothing(t *testing.T) {
	p := uncoveredProgram(directProgram(4, 4, 2), "id", "identity")
	res, err := Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	for it, outs := range res.Iters {
		want := sourceMatrix(7, it, 4, 4)
		clear(want.Data[8:])
		if !slices.Equal(outs["snk"].Data, want.Data) {
			t.Fatalf("iteration %d: result %v, want %v", it, outs["snk"].Data, want.Data)
		}
	}
}

// settleGoroutines polls until the live goroutine count drops to at most
// want, returning the last observation (exiting goroutines need a few
// scheduler rounds).
func settleGoroutines(want int) int {
	var n int
	for range 200 {
		if n = runtime.NumGoroutine(); n <= want {
			return n
		}
		time.Sleep(time.Millisecond)
	}
	return n
}

// Fan-out: one source value consumed by two sinks (two lanes from the same
// producer port), including a replicated multi-thread sink whose threads
// assemble overlapping identical regions.
func TestFanOutTwoSinks(t *testing.T) {
	rows, cols := 4, 4
	p := &Program{
		App: "fanout", Iterations: 2, Slots: 2,
		Threads: []Thread{
			{Fn: "src", Kind: "source_matrix", Thread: 0, Threads: 1,
				Params: map[string]any{"seed": 11},
				Outs: []Port{{Name: "out", Region: whole(rows, cols), Xfers: []Xfer{
					{Conn: 0, Region: whole(rows, cols)},
					{Conn: 1, Region: whole(rows, cols)},
					{Conn: 2, Region: whole(rows, cols)},
				}, Storage: &Storage{Readers: []int{0, 1, 2, 3}, Clear: true}}}},
			{Fn: "snkA", Kind: "sink_matrix", Thread: 0, Threads: 1,
				SinkRows: rows, SinkCols: cols,
				Ins: []Port{{Name: "in", Region: whole(rows, cols),
					Xfers: []Xfer{{Conn: 0, Region: whole(rows, cols)}}}}},
			// Replicated 2-thread sink: both threads hold (and store) the
			// whole matrix — the case that forces sink-assembly locking.
			{Fn: "snkB", Kind: "sink_matrix", Thread: 0, Threads: 2,
				SinkRows: rows, SinkCols: cols,
				Ins: []Port{{Name: "in", Region: whole(rows, cols),
					Xfers: []Xfer{{Conn: 1, Region: whole(rows, cols)}}}}},
			{Fn: "snkB", Kind: "sink_matrix", Thread: 1, Threads: 2,
				SinkRows: rows, SinkCols: cols,
				Ins: []Port{{Name: "in", Region: whole(rows, cols),
					Xfers: []Xfer{{Conn: 2, Region: whole(rows, cols)}}}}},
		},
		Conns: []Conn{
			{Buf: 0, SrcFn: "src", SrcThread: 0, DstFn: "snkA", DstThread: 0},
			{Buf: 1, SrcFn: "src", SrcThread: 0, DstFn: "snkB", DstThread: 0},
			{Buf: 1, SrcFn: "src", SrcThread: 0, DstFn: "snkB", DstThread: 1},
		},
	}
	res, err := Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 2; iter++ {
		want := sourceMatrix(11, iter, rows, cols)
		for _, sink := range []string{"snkA", "snkB"} {
			got := res.Iters[iter][sink]
			if got == nil || !reflect.DeepEqual(want.Data, got.Data) {
				t.Fatalf("iteration %d sink %s: mismatch", iter, sink)
			}
		}
	}
}

// Fan-in: add2 consuming the same source value on both inputs (the
// double-arc shape), row-striped across two threads feeding a 1-thread sink.
func TestFanInDoubleArc(t *testing.T) {
	rows, cols := 4, 4
	top, bot := reg(0, 0, 2, 4), reg(2, 0, 2, 4)
	p := &Program{
		App: "fanin", Iterations: 2, Slots: 2,
		Threads: []Thread{
			{Fn: "src", Kind: "source_matrix", Thread: 0, Threads: 1,
				Params: map[string]any{"seed": 5}, Result: "snk",
				Outs: []Port{{Name: "out", Region: whole(rows, cols), Xfers: []Xfer{
					{Conn: 0, Region: top}, {Conn: 1, Region: bot}, // arc a
					{Conn: 2, Region: top}, {Conn: 3, Region: bot}, // arc b
				}}}},
			{Fn: "add", Kind: "add2", Thread: 0, Threads: 2,
				Ins: []Port{
					{Name: "a", Region: top, Xfers: []Xfer{{Conn: 0, Region: top}}},
					{Name: "b", Region: top, Xfers: []Xfer{{Conn: 2, Region: top}}},
				},
				Outs: []Port{{Name: "out", Region: top, Xfers: []Xfer{{Conn: 4, Region: top}},
					Storage: &Storage{Readers: []int{1, 3}, Clear: true}}}},
			{Fn: "add", Kind: "add2", Thread: 1, Threads: 2,
				Ins: []Port{
					{Name: "a", Region: bot, Xfers: []Xfer{{Conn: 1, Region: bot}}},
					{Name: "b", Region: bot, Xfers: []Xfer{{Conn: 3, Region: bot}}},
				},
				Outs: []Port{{Name: "out", Region: bot, Xfers: []Xfer{{Conn: 5, Region: bot}},
					Storage: &Storage{Readers: []int{2, 3}, Clear: true}}}},
			{Fn: "snk", Kind: "sink_matrix", Thread: 0, Threads: 1,
				SinkRows: rows, SinkCols: cols,
				Ins: []Port{{Name: "in", Region: whole(rows, cols), Xfers: []Xfer{
					{Conn: 4, Region: top}, {Conn: 5, Region: bot},
				}}}},
		},
		Conns: []Conn{
			{Buf: 0, SrcFn: "src", SrcThread: 0, DstFn: "add", DstThread: 0},
			{Buf: 0, SrcFn: "src", SrcThread: 0, DstFn: "add", DstThread: 1},
			{Buf: 1, SrcFn: "src", SrcThread: 0, DstFn: "add", DstThread: 0},
			{Buf: 1, SrcFn: "src", SrcThread: 0, DstFn: "add", DstThread: 1},
			{Buf: 2, SrcFn: "add", SrcThread: 0, DstFn: "snk", DstThread: 0},
			{Buf: 2, SrcFn: "add", SrcThread: 1, DstFn: "snk", DstThread: 0},
		},
	}
	res, err := Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 2; iter++ {
		src := sourceMatrix(5, iter, rows, cols)
		got := res.Iters[iter]["snk"]
		if got == nil {
			t.Fatalf("iteration %d: no sink output", iter)
		}
		for i := range src.Data {
			if got.Data[i] != src.Data[i]+src.Data[i] {
				t.Fatalf("iteration %d sample %d: got %v, want %v", iter, i, got.Data[i], 2*src.Data[i])
			}
		}
	}
}

// TestExecuteDeterministic: repeated runs are bitwise identical (pure kinds
// on single-reader single-writer lanes leave scheduling no way in).
func TestExecuteDeterministic(t *testing.T) {
	ref, err := Execute(directProgram(8, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	var refText bytes.Buffer
	if err := ref.WriteText(&refText); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		res, err := Execute(directProgram(8, 8, 3))
		if err != nil {
			t.Fatal(err)
		}
		var text bytes.Buffer
		if err := res.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refText.Bytes(), text.Bytes()) {
			t.Fatalf("run %d produced different bytes", i)
		}
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	uncovered := func(p *Program) *Program { return uncoveredProgram(p, "id", "identity") }
	cases := []struct {
		name string
		mut  func(*Program)
		want string
	}{
		{"zero-iterations", func(p *Program) { p.Iterations = 0 }, "iterations"},
		{"unknown-kind", func(p *Program) { p.Threads[0].Kind = "nope" }, "unknown function kind"},
		{"conn-range", func(p *Program) { p.Threads[0].Outs[0].Xfers[0].Conn = 9 }, "out of range"},
		{"unconsumed-conn", func(p *Program) { p.Threads[1].Ins[0].Xfers = nil }, "consumers"},
		{"spill", func(p *Program) { p.Threads[0].Outs[0].Xfers[0].Region = reg(0, 0, 9, 9) }, "spills"},
		{"lane-regions", func(p *Program) { p.Threads[1].Ins[0].Xfers[0].Region = reg(0, 0, 2, 4) }, "receives 2x4@(0,0)"},
		{"sink-shape", func(p *Program) { p.Threads[1].SinkRows = 0 }, "assembly shape"},
		{"thread-index", func(p *Program) { p.Threads[0].Thread = 3 }, "index outside"},
		{"foreign-port", func(p *Program) { p.Threads[1].Ins[0].Name = "x" }, "ports are not those kind sink_matrix declares"},
		// Execute carries out the storage records without checking them
		// against anything, so each rule refuses what it could not carry
		// out: on the direct program, whose source lies in the sink's result,
		// or on the uncovered one, whose source keeps a storage that an
		// in-place identity adopts and forwards.
		{"reader-range", func(p *Program) { uncovered(p).Threads[0].Outs[0].Storage.Readers = []int{0, 1, 2, 9} }, "reader 9 out of range"},
		{"readers-miss-owner", func(p *Program) { uncovered(p).Threads[0].Outs[0].Storage.Readers = []int{1, 2} }, "miss the owner"},
		{"readers-miss-consumer", func(p *Program) { uncovered(p).Threads[0].Outs[0].Storage.Readers = []int{0, 2} }, "miss consumer id[0]"},
		{"in-place-kind", func(p *Program) { uncovered(p).Threads[1].Kind = "fir_rows" }, "computes in place"},
		{"in-place-regions", func(p *Program) { uncovered(p).Threads[1].Outs[0].Region = reg(0, 0, 2, 4) }, "computes in place"},
		{"transposes", func(p *Program) { p.Threads[0].Transposes = true }, "lands transposed"},
		{"host-kind", func(p *Program) { p.Threads[0].Result = "src" }, `result host "src" is no sink_matrix function`},
		{"host-width", func(p *Program) { p.Threads[1].SinkCols = 8 }, "is a pitched view of sink snk's 4x8 result, but kind source_matrix computes on dense blocks only"},
		{"host-rows", func(p *Program) { p.Threads[1].SinkRows = 2 }, "no one output partition lies in sink snk's 2x4 result"},
		{"bare-input-part", func(p *Program) {
			uncovered(p).Threads[0].Outs[0].Xfers[0].Region = reg(0, 0, 2, 4)
			p.Threads[1].Ins[0].Xfers[0].Region = reg(0, 0, 2, 4)
		}, "port in has no storage, yet adopts no"},
		{"bare-input-pitched", func(p *Program) {
			stripe := reg(0, 0, 4, 2)
			uncovered(p).Threads[0].Outs[0].Xfers[0].Region = stripe
			p.Threads[1].Ins[0] = Port{Name: "in", Region: stripe, Xfers: []Xfer{{Conn: 0, Region: stripe}}}
			p.Threads[1].Outs[0] = Port{Name: "out", Region: stripe, Xfers: []Xfer{{Conn: 1, Region: reg(0, 0, 2, 2)}}}
			p.Threads[2].Ins[0].Xfers[0].Region = reg(0, 0, 2, 2)
		}, "port in has no storage, yet adopts no"},
		{"bare-output", func(p *Program) { uncovered(p).Threads[0].Outs[0].Storage = nil }, "neither in place nor in a result"},
	}
	if err := uncovered(directProgram(4, 4, 2)).Validate(); err != nil {
		t.Fatalf("the uncovered program: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := directProgram(4, 4, 2)
			tc.mut(p)
			err := p.Validate()
			if err == nil || !bytes.Contains([]byte(err.Error()), []byte(tc.want)) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// stripesProgram is a source whose block lies in the sink's result, sending
// each of two threads of kind a 4x2 column stripe of it, which each computes
// in place as its own storage in the result — a view pitched by the result's
// width — and sends on to the sink.
func stripesProgram(kind string) *Program {
	left, right := reg(0, 0, 4, 2), reg(0, 2, 4, 2)
	stripe := func(th int, r model.Region) Thread {
		return Thread{Fn: "cols", Kind: kind, Thread: th, Threads: 2, InPlace: true, Result: "snk",
			Ins:  []Port{{Name: "in", Region: r, Xfers: []Xfer{{Conn: th, Region: r}}}},
			Outs: []Port{{Name: "out", Region: r, Xfers: []Xfer{{Conn: 2 + th, Region: r}}}}}
	}
	return &Program{
		App: "stripes", Iterations: 2, Slots: 2,
		Threads: []Thread{
			{Fn: "src", Kind: "source_matrix", Thread: 0, Threads: 1,
				Params: map[string]any{"seed": 3}, Result: "snk",
				Outs: []Port{{Name: "out", Region: whole(4, 4), Xfers: []Xfer{{Conn: 0, Region: left}, {Conn: 1, Region: right}}}}},
			stripe(0, left), stripe(1, right),
			{Fn: "snk", Kind: "sink_matrix", Thread: 0, Threads: 1, SinkRows: 4, SinkCols: 4,
				Ins: []Port{{Name: "in", Region: whole(4, 4), Xfers: []Xfer{{Conn: 2, Region: left}, {Conn: 3, Region: right}}}}},
		},
		Conns: []Conn{
			{Buf: 0, SrcFn: "src", SrcThread: 0, DstFn: "cols", DstThread: 0},
			{Buf: 0, SrcFn: "src", SrcThread: 0, DstFn: "cols", DstThread: 1},
			{Buf: 1, SrcFn: "cols", SrcThread: 0, DstFn: "snk", DstThread: 0},
			{Buf: 1, SrcFn: "cols", SrcThread: 1, DstFn: "snk", DstThread: 0},
		},
	}
}

// TestPitchedHostNeedsStridedKind: a storage narrower than its result is a
// pitched view of it, which only a kind that computes through its blocks'
// strides may be handed. fft_rows on a column stripe is refused; fft_cols is
// run, and each iteration's result is bit for bit the source's stripes each
// transformed dense.
func TestPitchedHostNeedsStridedKind(t *testing.T) {
	err := stripesProgram("fft_rows").Validate()
	if want := "cols[0]: partition 4x2@(0,0) is a pitched view of sink snk's 4x4 result, but kind fft_rows computes on dense blocks only"; err == nil || err.Error() != "rtl: "+want {
		t.Fatalf("fft_rows on a column stripe of the result: err = %v, want %q", err, want)
	}
	p := stripesProgram("fft_cols")
	res, err := Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	for iter := range p.Iterations {
		src := sourceMatrix(3, iter, 4, 4)
		want := isspl.NewMatrix(4, 4)
		for c0 := 0; c0 < 4; c0 += 2 {
			stripe := make([]complex128, 8)
			for r := range 4 {
				copy(stripe[2*r:2*r+2], src.Data[4*r+c0:4*r+c0+2])
			}
			if err := isspl.FFTCols(stripe, 4, 2, 2); err != nil {
				t.Fatal(err)
			}
			for r := range 4 {
				copy(want.Data[4*r+c0:4*r+c0+2], stripe[2*r:2*r+2])
			}
		}
		if got := res.Iters[iter]["snk"]; !slices.Equal(got.Data, want.Data) {
			t.Fatalf("iteration %d: result %v, want %v", iter, got.Data, want.Data)
		}
	}
}

func TestOutputTextRoundTrip(t *testing.T) {
	res, err := Execute(directProgram(3, 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.App != res.App || len(back.Iters) != len(res.Iters) {
		t.Fatalf("round trip lost identity: %q %d", back.App, len(back.Iters))
	}
	for i := range res.Iters {
		if !reflect.DeepEqual(res.Iters[i]["snk"].Data, back.Iters[i]["snk"].Data) {
			t.Fatalf("iteration %d: samples changed in round trip", i)
		}
	}
	var again bytes.Buffer
	if err := back.WriteText(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("re-render of parsed output differs")
	}
}

func TestParseTextRejectsCorrupt(t *testing.T) {
	res, err := Execute(directProgram(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	bad := []string{
		"",
		"bogus\n",
		strings.Replace(good, "end\n", "", 1),
		strings.Replace(good, "iteration 0", "iteration 1", 1),
		strings.Replace(good, "sink snk 2 2", "sink snk 2 0", 1),
	}
	// Shapes whose product wraps: to zero samples, and to a negative count.
	head, _, _ := strings.Cut(good, "sink snk 2 2\n")
	for _, shape := range []string{"4294967296 4294967296", "3037000500 3037000500"} {
		bad = append(bad, head+"sink snk "+shape+"\nend\n")
	}
	for i, text := range bad {
		if _, err := ParseText(bytes.NewReader([]byte(text))); err == nil {
			t.Fatalf("corrupt output %d parsed cleanly", i)
		}
	}
}

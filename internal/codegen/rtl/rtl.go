// Package rtl is the run-time library of the real-execution backend: the
// small substrate a generated SAGE program links against when it runs as an
// actual Go process instead of on the simulated multicomputer. Where the sim
// kernel realises a SAGE thread as a simulated process and a striped
// transfer as an MPI message with explicit pipelining credits, rtl realises
// the same plan with the host's own primitives:
//
//   - one goroutine per function thread;
//   - one single-producer single-consumer buffered channel per planned
//     transfer lane (buffer, source thread, destination thread), whose
//     capacity IS the credit bound — a channel of capacity Slots admits at
//     most Slots in-flight data sets and blocks the producer on the
//     Slots+1th exactly where the credit protocol of internal/mpi would
//     (the consumer frees a slot at the moment sagert returns a credit:
//     immediately after receiving that transfer);
//   - end-of-stream as channel close: a producer closes all its lanes after
//     the final iteration, and every consumer verifies each lane delivers
//     exactly Iterations messages — no more, no fewer.
//
// A Program is a closed plan: it references function kinds from
// internal/funclib by name but carries every region, lane, thread and
// storage decision explicitly, so the generated source that embeds one is
// self-contained and auditable. Execution is deterministic by construction —
// every lane has one writer and one reader, every kind is a pure function of
// its inputs, and sink assembly writes disjoint or identical regions — so two
// runs (or the in-process and the compiled form of the same Program) produce
// bitwise identical outputs regardless of GOMAXPROCS or scheduling.
//
// Samples move through the block lifecycle of internal/funclib (DESIGN.md
// §14), shared with the simulated runtime: a send hands over the producer's
// output block itself — never a packed copy, never a fresh header — and the
// receiver reads its lane's own region (Xfer.Region) out of it; a sink
// stores an iteration's payloads in its result matrix once all have
// arrived. The plan decides where each block lies, the Program carries the
// decision, and rtl allocates it (layout.go): each Storage gets min(Slots,
// Iterations) blocks for the whole run, reused by iteration number once its
// readers have finished with them.
package rtl

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/funclib"
	"repro/internal/isspl"
	"repro/internal/model"
)

// DefaultSlots is the per-lane pipelining bound used when a Program does not
// set one; it matches sagert's default BufferSlots (double buffering). It
// also sets the number of physical blocks behind each logical buffer:
// min(Slots, Iterations).
const DefaultSlots = 2

// Xfer is one striped region moving over one lane each iteration.
type Xfer struct {
	// Conn indexes Program.Conns.
	Conn int
	// Region is the absolute sub-matrix carried per iteration; it lies
	// inside both endpoint partitions.
	Region model.Region
}

// Port is one thread's view of one of its function's ports: the partition
// the thread holds, the lanes that fill (inputs) or drain (outputs) it, and
// its physical storage.
type Port struct {
	Name   string
	Region model.Region
	Xfers  []Xfer
	// Storage is the port's physical buffer (plan.Layout), nil for a port
	// without one.
	Storage *Storage
}

// Storage is a port's physical buffer as the plan decided it (plan.Storage):
// the threads that read a block during the iteration that wrote it, and
// whether a recycled block is zeroed before reuse.
type Storage struct {
	Readers []int // indices into Program.Threads
	Clear   bool
}

// Thread is one goroutine of the generated program: a single thread of a
// function-table entry, bound to a funclib kind.
type Thread struct {
	Fn      string // function instance name
	Kind    string // funclib kind
	Node    int    // mapped processor (informational in real execution)
	Thread  int
	Threads int
	Params  map[string]any
	Ins     []Port
	Outs    []Port
	// SinkRows/SinkCols give the full assembly shape when Kind is
	// "sink_matrix" (the sink's input port type before striping).
	SinkRows, SinkCols int
	// The plan's storage decisions (plan.Thread, plan.Layout): the thread
	// computes into its input block, lands its payloads transposed in its
	// output block, or keeps its storage in the result of sink Result.
	InPlace, Transposes bool
	Result              string
}

// Conn is one single-producer single-consumer transfer lane. The identity
// fields exist for diagnostics and for auditing emitted source; execution
// only needs the index.
type Conn struct {
	Buf       int // gluegen logical buffer ID
	SrcFn     string
	SrcThread int
	DstFn     string
	DstThread int
}

func (c Conn) String() string {
	return fmt.Sprintf("b%d %s[%d]->%s[%d]", c.Buf, c.SrcFn, c.SrcThread, c.DstFn, c.DstThread)
}

// Program is a complete executable plan.
type Program struct {
	App        string
	Platform   string // platform the tables were generated for (informational)
	Iterations int
	// Slots is the per-lane pipelining credit and, capped at Iterations,
	// the number of physical blocks behind each logical buffer; <= 0
	// selects DefaultSlots.
	Slots   int
	Threads []Thread
	Conns   []Conn
}

// Result reports one execution.
type Result struct {
	App string
	// Iters[i] holds iteration i's assembled sink outputs, one matrix per
	// sink function name. Unlike the simulated runtime — which moves real
	// samples only through its compute iterations — real execution computes
	// every iteration, so each entry is independently checkable against the
	// sequential oracle for that iteration.
	Iters []map[string]*isspl.Matrix
	// Wall is the host wall-clock time of the run (goroutine spawn to
	// drain). Excluded from the canonical text output.
	Wall time.Duration
}

// Validate checks the program's structural integrity: a positive iteration
// count, known kinds, every lane referenced by exactly one producer and one
// consumer xfer with one region (the consumer reads its own xfer's region
// out of the producer's block), every xfer region inside its port
// partition, sink threads carrying an assembly shape, and storage decisions
// Execute can carry out (validateStorage).
func (p *Program) Validate() error {
	if p.Iterations < 1 {
		return fmt.Errorf("rtl: program declares %d iterations", p.Iterations)
	}
	if len(p.Threads) == 0 {
		return fmt.Errorf("rtl: program has no threads")
	}
	produced := make([]int, len(p.Conns))
	consumed := make([]int, len(p.Conns))
	from, to := make([]*Port, len(p.Conns)), make([]int, len(p.Conns)) // each lane's producing port, consuming thread
	sent, read := make([]model.Region, len(p.Conns)), make([]model.Region, len(p.Conns))
	for ti := range p.Threads {
		t := &p.Threads[ti]
		im, err := funclib.Lookup(t.Kind)
		if err != nil {
			return fmt.Errorf("rtl: thread %s[%d]: %w", t.Fn, t.Thread, err)
		}
		if !declares(im.In, t.Ins) || !declares(im.Out, t.Outs) {
			return fmt.Errorf("rtl: thread %s[%d]: ports are not those kind %s declares", t.Fn, t.Thread, t.Kind)
		}
		if t.Thread < 0 || t.Thread >= t.Threads {
			return fmt.Errorf("rtl: thread %s[%d]: index outside 0..%d", t.Fn, t.Thread, t.Threads-1)
		}
		if t.Kind == "sink_matrix" && (t.SinkRows < 1 || t.SinkCols < 1) {
			return fmt.Errorf("rtl: sink %s[%d]: missing assembly shape", t.Fn, t.Thread)
		}
		check := func(ports []Port, counts []int, side string) error {
			for pi := range ports {
				pp := &ports[pi]
				for _, x := range pp.Xfers {
					if x.Conn < 0 || x.Conn >= len(p.Conns) {
						return fmt.Errorf("rtl: %s[%d] %s port %s: conn %d out of range", t.Fn, t.Thread, side, pp.Name, x.Conn)
					}
					counts[x.Conn]++
					if side == "input" {
						to[x.Conn], read[x.Conn] = ti, x.Region
					} else {
						from[x.Conn], sent[x.Conn] = pp, x.Region
					}
					if x.Region.Intersect(pp.Region) != x.Region {
						return fmt.Errorf("rtl: %s[%d] %s port %s: transfer region %v spills outside partition %v",
							t.Fn, t.Thread, side, pp.Name, x.Region, pp.Region)
					}
				}
			}
			return nil
		}
		if err := check(t.Ins, consumed, "input"); err != nil {
			return err
		}
		if err := check(t.Outs, produced, "output"); err != nil {
			return err
		}
	}
	for ci := range p.Conns {
		if produced[ci] != 1 || consumed[ci] != 1 {
			return fmt.Errorf("rtl: conn %d (%s): %d producers, %d consumers (want exactly one of each)",
				ci, p.Conns[ci], produced[ci], consumed[ci])
		}
		if sent[ci] != read[ci] {
			return fmt.Errorf("rtl: conn %d (%s): sends region %v, receives %v", ci, p.Conns[ci], sent[ci], read[ci])
		}
	}
	return p.validateStorage(from, to)
}

// declares reports whether ports are reqs, a kind's declared ports of one
// side, in some order: as many, and each declared name among them.
func declares(reqs []funclib.PortReq, ports []Port) bool {
	return len(ports) == len(reqs) && !slices.ContainsFunc(reqs, func(r funclib.PortReq) bool {
		return !slices.ContainsFunc(ports, func(p Port) bool { return p.Name == r.Name })
	})
}

// validateStorage checks the structure of the storage decisions the program
// carries, which Execute carries out without deciding anything (DESIGN.md
// §14). from and to are each lane's producing port and consuming thread.
func (p *Program) validateStorage(from []*Port, to []int) error {
	for ti := range p.Threads {
		t := &p.Threads[ti]
		im, _ := funclib.Lookup(t.Kind)
		one, hosted := len(t.Ins) == 1 && len(t.Outs) == 1, t.Result != ""
		fail := func(format string, args ...any) error {
			return fmt.Errorf("rtl: %s[%d]: "+format, append([]any{t.Fn, t.Thread}, args...)...)
		}
		switch {
		case t.InPlace && !(im.InPlace && one && t.Ins[0].Region == t.Outs[0].Region):
			return fail("computes in place, but is no InPlace kind with one input and one output over one region")
		case t.Transposes && !(one && funclib.LandsTransposed(im, t.Ins[0].Region, t.Outs[0].Region)):
			return fail("lands transposed, but is no Transposes kind from a region to its transpose")
		case hosted && p.host(t) < 0:
			return fail("result host %q is no sink_matrix function", t.Result)
		case hosted: // the storage is a view of the result (funclib.ResultView)
			h := &p.Threads[p.host(t)]
			whole := model.Region{Rows: h.SinkRows, Cols: h.SinkCols}
			if len(t.Outs) != 1 || t.Outs[0].Region.Intersect(whole) != t.Outs[0].Region {
				return fail("no one output partition lies in sink %s's %dx%d result", h.Fn, h.SinkRows, h.SinkCols)
			}
			if !funclib.ContiguousIn(t.Outs[0].Region, whole) && !im.Strided {
				return fail("partition %v is a pitched view of sink %s's %dx%d result, but kind %s computes on dense blocks only",
					t.Outs[0].Region, h.Fn, h.SinkRows, h.SinkCols, t.Kind)
			}
		}
		// port checks the storage of port pp, whose blocks the lanes of sends
		// carry; bare says whether pp may have none instead.
		port := func(pp *Port, sends []Xfer, bare bool, why string) error {
			s := pp.Storage
			if s == nil {
				if bare {
					return nil
				}
				return fail("port %s has no storage, yet %s", pp.Name, why)
			}
			for _, r := range s.Readers {
				if r < 0 || r >= len(p.Threads) {
					return fail("port %s: reader %d out of range", pp.Name, r)
				}
			}
			if !slices.Contains(s.Readers, ti) {
				return fail("port %s: readers %v miss the owner", pp.Name, s.Readers)
			}
			for _, x := range sends {
				if c := &p.Threads[to[x.Conn]]; !slices.Contains(s.Readers, to[x.Conn]) {
					return fail("port %s: readers %v miss consumer %s[%d]", pp.Name, s.Readers, c.Fn, c.Thread)
				}
			}
			return nil
		}
		for pi := range t.Ins {
			pp, sends := &t.Ins[pi], []Xfer(nil)
			if t.InPlace { // the block goes on as the output
				sends = t.Outs[0].Xfers
			}
			adopts := len(pp.Xfers) == 1 && pp.Xfers[0].Region == pp.Region && funclib.ContiguousIn(pp.Region, from[pp.Xfers[0].Conn].Region)
			bare := t.Kind == "sink_matrix" || t.Transposes || t.InPlace && hosted || adopts
			if err := port(pp, sends, bare, "adopts no one whole-partition payload contiguous in its producer's port"); err != nil {
				return err
			}
		}
		for pi := range t.Outs {
			if err := port(&t.Outs[pi], t.Outs[pi].Xfers, t.InPlace || hosted, "is neither in place nor in a result"); err != nil {
				return err
			}
		}
	}
	return nil
}

// slots returns the effective per-lane credit bound.
func (p *Program) slots() int {
	if p.Slots > 0 {
		return p.Slots
	}
	return DefaultSlots
}

// exec is one execution's runtime state.
type exec struct {
	p *Program
	// results holds, for a result-backed thread, a thread of the sink whose
	// result matrix holds its storage; ins and outs hold each port's storage
	// (layout.go), nil for a port without one.
	results   []*Thread
	ins, outs [][]*storage
	chans     []chan *funclib.Block
	abort     chan struct{}

	errOnce sync.Once
	err     error

	// mu guards the watermarks: done[t] is the number of iterations thread t
	// has finished; finished is signalled when one grows or the run aborts.
	mu       sync.Mutex
	finished sync.Cond
	done     []int
	aborted  bool

	// sinkMu serialises sink assembly (funclib.StoreSink) and guards iters:
	// an iteration's result matrix is allocated when its first writer needs
	// it (resultMatrix).
	sinkMu sync.Mutex
	iters  []map[string]*isspl.Matrix

	hooks hooks
}

// hooks let this package's tests watch a run; Execute sets none.
type hooks struct {
	recv    func(thread int, payload *funclib.Block, reg model.Region) // every payload a thread receives, with its lane's region
	park    func(thread int)                                           // a thread about to wait for readers; runs under mu, must not block
	recycle func(thread int, b *funclib.Block, cleared bool)           // a block handed out again, before clearing
}

// newExec prepares the storages and channels of a validated program.
func newExec(p *Program) *exec {
	e := &exec{
		p:       p,
		results: make([]*Thread, len(p.Threads)),
		ins:     make([][]*storage, len(p.Threads)),
		outs:    make([][]*storage, len(p.Threads)),
		chans:   make([]chan *funclib.Block, len(p.Conns)),
		abort:   make(chan struct{}),
		done:    make([]int, len(p.Threads)),
		iters:   make([]map[string]*isspl.Matrix, p.Iterations),
	}
	e.finished.L = &e.mu
	for ti := range p.Threads {
		t := &p.Threads[ti]
		if h := p.host(t); h >= 0 {
			e.results[ti] = &p.Threads[h]
		}
		e.ins[ti], e.outs[ti] = newStorages(p, t.Ins), newStorages(p, t.Outs)
	}
	for i := range e.chans {
		e.chans[i] = make(chan *funclib.Block, p.slots())
	}
	for i := range e.iters {
		e.iters[i] = map[string]*isspl.Matrix{}
	}
	return e
}

// resultMatrix returns iteration iter's result matrix of sink thread t's
// function, allocating it on the first call — when a sink thread stores the
// iteration's payloads, or its result-backed producer takes its storage
// there — on the caller's goroutine, under sinkMu.
func (e *exec) resultMatrix(iter int, t *Thread) *isspl.Matrix {
	e.sinkMu.Lock()
	defer e.sinkMu.Unlock()
	m := e.iters[iter][t.Fn]
	if m == nil {
		m = isspl.NewMatrix(t.SinkRows, t.SinkCols)
		e.iters[iter][t.Fn] = m
	}
	return m
}

// fail records the first error and releases every blocked thread.
func (e *exec) fail(err error) {
	e.errOnce.Do(func() {
		e.err = err
		close(e.abort)
		e.mu.Lock()
		e.aborted = true
		e.mu.Unlock()
		e.finished.Broadcast()
	})
}

// allocate gives thread ti's storages their blocks. It runs on the thread's
// own goroutine before its first iteration; the loop allocates no block.
func (e *exec) allocate(ti int) {
	for _, s := range slices.Concat(e.ins[ti], e.outs[ti]) {
		if s == nil {
			continue
		}
		for k := range s.blocks {
			s.blocks[k] = funclib.NewBlock(s.region)
		}
	}
}

// acquire returns thread ti's block of storage s for iteration iter: block
// iter mod P, once every reader has finished the iteration that used it
// last. It returns nil when the run aborted.
func (e *exec) acquire(ti int, s *storage, iter int) *funclib.Block {
	P := len(s.blocks)
	b := s.blocks[iter%P]
	if iter < P {
		return b // first use: zeroed by allocate
	}
	e.mu.Lock()
	for _, r := range s.Readers {
		for e.done[r] <= iter-P && !e.aborted {
			if e.hooks.park != nil {
				e.hooks.park(ti)
			}
			e.finished.Wait()
		}
	}
	aborted := e.aborted
	e.mu.Unlock()
	if aborted {
		return nil
	}
	if e.hooks.recycle != nil {
		e.hooks.recycle(ti, b, s.Clear)
	}
	if s.Clear {
		clear(b.Data)
	}
	return b
}

// finish publishes that thread ti has finished one more iteration: it
// reads no block of that iteration again.
func (e *exec) finish(ti int) {
	e.mu.Lock()
	e.done[ti]++
	e.mu.Unlock()
	e.finished.Broadcast()
}

// send delivers b on lane conn, blocking while the lane holds Slots
// in-flight data sets (the credit bound). It reports false when the run
// aborted.
func (e *exec) send(conn int, b *funclib.Block) bool {
	select {
	case e.chans[conn] <- b:
		return true
	case <-e.abort:
		return false
	}
}

// recv takes the next data set from lane conn. A closed lane here is a
// protocol violation: the producer signalled end-of-stream before the
// consumer's final iteration.
func (e *exec) recv(conn, iter int) (*funclib.Block, bool) {
	select {
	case b, ok := <-e.chans[conn]:
		if !ok {
			e.fail(fmt.Errorf("rtl: conn %d (%s): EOS before iteration %d", conn, e.p.Conns[conn], iter))
			return nil, false
		}
		return b, true
	case <-e.abort:
		return nil, false
	}
}

// closeOuts signals end-of-stream on every lane this thread produces.
func (e *exec) closeOuts(t *Thread) {
	for pi := range t.Outs {
		for _, x := range t.Outs[pi].Xfers {
			close(e.chans[x.Conn])
		}
	}
}

// drainEOS verifies every input lane is cleanly closed after the final
// iteration: one extra message means the producer and consumer disagree on
// the iteration count.
func (e *exec) drainEOS(t *Thread) {
	for pi := range t.Ins {
		for _, x := range t.Ins[pi].Xfers {
			select {
			case b, ok := <-e.chans[x.Conn]:
				if ok && b != nil {
					e.fail(fmt.Errorf("rtl: conn %d (%s): message after the final iteration", x.Conn, e.p.Conns[x.Conn]))
					return
				}
			case <-e.abort:
				return
			}
		}
	}
}

// threadMain is the per-goroutine iteration loop of thread ti: receive
// striped inputs into their blocks (a sink's, once all arrived, into the
// iteration's result), compute, send each output block down its lanes,
// publish the iteration finished — then close lanes (EOS) and verify the
// inbound lanes closed too. Every block it writes is one the plan chose: an
// input or output storage's block for this iteration, a view of the
// iteration's result matrix on a result-backed thread, the transposed view
// of the output block on a thread that lands transposed, or, on a thread
// that computes in place, the input block, which goes on as the output.
func (e *exec) threadMain(ti int) {
	t := &e.p.Threads[ti]
	impl, _ := funclib.Lookup(t.Kind) // Validate looked every kind up and matched its ports
	// The blocks Compute takes, in the kind's port order, and each port's
	// position there, resolved once.
	in, out := make([]*funclib.Block, len(t.Ins)), make([]*funclib.Block, len(t.Outs))
	at := make([]int, len(t.Ins)+len(t.Outs))
	inAt, outAt := at[:len(t.Ins)], at[len(t.Ins):]
	for pi := range t.Ins {
		inAt[pi] = funclib.Position(impl.In, t.Ins[pi].Name)
	}
	for pi := range t.Outs {
		outAt[pi] = funclib.Position(impl.Out, t.Outs[pi].Name)
	}
	ctx := &funclib.Context{
		FuncName: t.Fn, Params: t.Params,
		Thread: t.Thread, Threads: t.Threads,
	}
	sink, result := t.Kind == "sink_matrix", e.results[ti]
	// A sink's payloads, stored once all have arrived: each a producer's
	// block and the region its lane carries.
	type payload struct {
		blk *funclib.Block
		reg model.Region
	}
	var payloads []payload
	for iter := 0; iter < e.p.Iterations; iter++ {
		// A thread that lands transposed takes its output block first.
		if t.Transposes {
			if out[0] = e.outputBlock(ti, 0, iter); out[0] == nil {
				return
			}
		}
		for pi := range t.Ins {
			pp := &t.Ins[pi]
			// A sink port keeps no samples: its payloads go to the result
			// once all have arrived (funclib.ResultBacked). A port with a
			// storage lands its payloads in the storage's block; any other
			// adopts its one payload's region, dense in the producer's block.
			var blk *funclib.Block
			switch {
			case sink:
				blk = &funclib.Block{Region: pp.Region}
			case t.Transposes:
				blk = funclib.TransposedView(out[0], pp.Region)
			case t.InPlace && result != nil:
				blk = funclib.ResultView(e.resultMatrix(iter, result), pp.Region)
			case e.ins[ti][pi] != nil:
				if blk = e.acquire(ti, e.ins[ti][pi], iter); blk == nil {
					return
				}
			}
			for _, x := range pp.Xfers {
				got, ok := e.recv(x.Conn, iter)
				if !ok {
					return
				}
				if e.hooks.recv != nil {
					e.hooks.recv(ti, got, x.Region)
				}
				switch {
				case sink:
					payloads = append(payloads, payload{got, x.Region})
				case blk == nil:
					blk = funclib.Adopt(got, x.Region)
				default:
					funclib.CopyRegion(blk, got, x.Region)
				}
			}
			in[inAt[pi]] = blk
		}
		for _, pl := range payloads {
			funclib.StoreSink(&e.sinkMu, e.resultMatrix(iter, t), pl.blk, pl.reg)
		}
		payloads = payloads[:0]
		for pi := range t.Outs {
			switch {
			case t.Transposes: // taken before its payloads landed
			case t.InPlace:
				out[0] = in[0]
			default:
				if out[outAt[pi]] = e.outputBlock(ti, pi, iter); out[outAt[pi]] == nil {
					return
				}
			}
		}
		ctx.Iteration = iter
		if err := impl.Compute(ctx, in, out); err != nil {
			e.fail(fmt.Errorf("rtl: %s thread %d iteration %d: %w", t.Fn, t.Thread, iter, err))
			return
		}
		for pi := range t.Outs {
			pp := &t.Outs[pi]
			blk := out[outAt[pi]]
			for _, x := range pp.Xfers {
				if !e.send(x.Conn, blk) {
					return
				}
			}
		}
		e.finish(ti)
	}
	e.closeOuts(t)
	e.drainEOS(t)
}

// outputBlock returns the block thread ti computes output port pi into at
// iteration iter, for a thread that does not compute in place: a view of the
// iteration's result matrix on a result-backed thread, its storage's block
// otherwise. It returns nil when the run aborted.
func (e *exec) outputBlock(ti, pi, iter int) *funclib.Block {
	if result := e.results[ti]; result != nil {
		return funclib.ResultView(e.resultMatrix(iter, result), e.p.Threads[ti].Outs[pi].Region)
	}
	return e.acquire(ti, e.outs[ti][pi], iter)
}

// Execute runs the program: one goroutine per thread, channel lanes between
// them, outputs assembled per iteration. It blocks until every thread
// finishes (or the first error aborts the run) and returns the per-iteration
// sink outputs.
func Execute(p *Program) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return newExec(p).run()
}

// run starts every thread and waits for all of them.
func (e *exec) run() (*Result, error) {
	start := time.Now()
	var wg sync.WaitGroup
	for ti := range e.p.Threads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.allocate(ti)
			e.threadMain(ti)
		}()
	}
	wg.Wait()
	if e.err != nil {
		return nil, e.err
	}
	// A sink that received nothing in an iteration is zero.
	for ti := range e.p.Threads {
		if t := &e.p.Threads[ti]; t.Kind == "sink_matrix" {
			for iter := range e.iters {
				e.resultMatrix(iter, t)
			}
		}
	}
	return &Result{App: e.p.App, Iters: e.iters, Wall: time.Since(start)}, nil
}

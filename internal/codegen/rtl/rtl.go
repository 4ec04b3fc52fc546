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
// internal/funclib by name but carries every region, lane and thread
// explicitly, so the generated source that embeds one is self-contained and
// auditable. Execution is deterministic by construction — every lane has one
// writer and one reader, every kind is a pure function of its inputs, and
// sink assembly writes disjoint or identical regions — so two runs (or the
// in-process and the compiled form of the same Program) produce bitwise
// identical outputs regardless of GOMAXPROCS or scheduling.
//
// Samples move through the block lifecycle of internal/funclib (DESIGN.md
// §14), shared with the simulated runtime: a send is a view of the producer's
// output block, never a packed copy, and a sink's payloads are stored in the
// iteration's result matrix as they arrive.
package rtl

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/funclib"
	"repro/internal/isspl"
	"repro/internal/model"
)

// DefaultSlots is the per-lane pipelining bound used when a Program does not
// set one; it matches sagert's default BufferSlots (double buffering).
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
// the thread holds and the lanes that fill (inputs) or drain (outputs) it.
type Port struct {
	Name   string
	Region model.Region
	Xfers  []Xfer
}

// adopts reports whether an input port's one transfer covers its whole
// partition: the payload becomes the port's block (funclib.Assemble).
func (p *Port) adopts() bool { return len(p.Xfers) == 1 && p.Xfers[0].Region == p.Region }

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
	// Slots is the per-lane pipelining credit; <= 0 selects DefaultSlots.
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
// consumer xfer, every xfer region inside its port partition, and sink
// threads carrying an assembly shape.
func (p *Program) Validate() error {
	if p.Iterations < 1 {
		return fmt.Errorf("rtl: program declares %d iterations", p.Iterations)
	}
	if len(p.Threads) == 0 {
		return fmt.Errorf("rtl: program has no threads")
	}
	produced := make([]int, len(p.Conns))
	consumed := make([]int, len(p.Conns))
	for ti := range p.Threads {
		t := &p.Threads[ti]
		if _, err := funclib.Lookup(t.Kind); err != nil {
			return fmt.Errorf("rtl: thread %s[%d]: %w", t.Fn, t.Thread, err)
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
	p     *Program
	chans []chan *funclib.Block
	abort chan struct{}

	errOnce sync.Once
	err     error

	sinkMu sync.Mutex // serialises sink assembly (funclib.StoreSink)
	iters  []map[string]*isspl.Matrix
}

// newExec prepares channels and per-iteration sink targets.
func newExec(p *Program) *exec {
	e := &exec{
		p:     p,
		chans: make([]chan *funclib.Block, len(p.Conns)),
		abort: make(chan struct{}),
		iters: make([]map[string]*isspl.Matrix, p.Iterations),
	}
	for i := range e.chans {
		e.chans[i] = make(chan *funclib.Block, p.slots())
	}
	for i := range e.iters {
		e.iters[i] = map[string]*isspl.Matrix{}
	}
	for ti := range p.Threads {
		t := &p.Threads[ti]
		if t.Kind != "sink_matrix" || t.Thread != 0 {
			continue
		}
		for i := range e.iters {
			e.iters[i][t.Fn] = isspl.NewMatrix(t.SinkRows, t.SinkCols)
		}
	}
	return e
}

// ownedInputs marks the threads of a validated program that compute into
// their input block: an InPlace kind whose thread owns the block its one
// input port ends up holding (it assembled it, or funclib.OwnsAdopted against
// the other transfers of the port that produces it). impls holds each
// thread's kind.
func ownedInputs(p *Program, impls []*funclib.Impl) []bool {
	// producer[c] is the output port that sends on lane c.
	producer := make([]*Port, len(p.Conns))
	for ti := range p.Threads {
		outs := p.Threads[ti].Outs
		for pi := range outs {
			for _, x := range outs[pi].Xfers {
				producer[x.Conn] = &outs[pi]
			}
		}
	}
	owned := make([]bool, len(p.Threads))
	for ti := range p.Threads {
		t := &p.Threads[ti]
		if !impls[ti].InPlace || len(t.Ins) != 1 || len(t.Outs) != 1 || t.Ins[0].Region != t.Outs[0].Region {
			continue
		}
		in := &t.Ins[0]
		if !in.adopts() {
			owned[ti] = true
			continue
		}
		x, src := in.Xfers[0], producer[in.Xfers[0].Conn]
		owned[ti] = funclib.OwnsAdopted(funclib.ContiguousIn(x.Region, src.Region), x.Region,
			func(yield func(model.Region) bool) {
				for _, o := range src.Xfers {
					if o.Conn != x.Conn && !yield(o.Region) {
						return
					}
				}
			})
	}
	return owned
}

// fail records the first error and releases every blocked thread.
func (e *exec) fail(err error) {
	e.errOnce.Do(func() {
		e.err = err
		close(e.abort)
	})
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

// threadMain is the per-goroutine iteration loop: receive striped inputs into
// their blocks (a sink's straight into the iteration's result), compute, send
// striped outputs as views — then close lanes (EOS) and verify the inbound
// lanes closed too. With inPlace set (ownedInputs) the kind transforms the
// input block where it lies and that block goes on as the output.
func (e *exec) threadMain(t *Thread, impl *funclib.Impl, inPlace bool) {
	in := make(map[string]*funclib.Block, len(t.Ins))
	out := make(map[string]*funclib.Block, len(t.Outs))
	ctx := &funclib.Context{
		FuncName: t.Fn, Params: t.Params,
		Thread: t.Thread, Threads: t.Threads,
	}
	sink := t.Kind == "sink_matrix"
	for iter := 0; iter < e.p.Iterations; iter++ {
		var target *isspl.Matrix // a sink's result matrix for this iteration
		if sink {
			target = e.iters[iter][t.Fn]
		}
		for pi := range t.Ins {
			pp := &t.Ins[pi]
			// A sink port keeps no samples: each payload lands in the result
			// matrix as it arrives. A port whose one transfer covers its whole
			// partition adopts the payload; any other assembles into a block
			// of its own.
			var blk *funclib.Block
			switch {
			case sink:
				blk = &funclib.Block{Region: pp.Region}
			case !pp.adopts():
				blk = funclib.NewBlock(pp.Region)
			}
			for _, x := range pp.Xfers {
				got, ok := e.recv(x.Conn, iter)
				if !ok {
					return
				}
				if !sink {
					blk = funclib.Assemble(blk, got)
				} else if target != nil {
					funclib.StoreSink(&e.sinkMu, target, got)
				}
			}
			in[pp.Name] = blk
		}
		// Output blocks are fresh every iteration: consumers may still hold
		// views of the previous ones. An owned input block arrived fresh
		// this iteration too.
		for pi := range t.Outs {
			pp := &t.Outs[pi]
			if inPlace {
				out[pp.Name] = in[t.Ins[0].Name]
			} else {
				out[pp.Name] = funclib.NewBlock(pp.Region)
			}
		}
		ctx.Iteration = iter
		if err := impl.Compute(ctx, in, out); err != nil {
			e.fail(fmt.Errorf("rtl: %s thread %d iteration %d: %w", t.Fn, t.Thread, iter, err))
			return
		}
		for pi := range t.Outs {
			pp := &t.Outs[pi]
			blk := out[pp.Name]
			for _, x := range pp.Xfers {
				if !e.send(x.Conn, funclib.ExtractRegion(blk, x.Region)) {
					return
				}
			}
		}
	}
	e.closeOuts(t)
	e.drainEOS(t)
}

// lookupImpls resolves every thread's kind.
func lookupImpls(p *Program) ([]*funclib.Impl, error) {
	impls := make([]*funclib.Impl, len(p.Threads))
	for i := range p.Threads {
		impl, err := funclib.Lookup(p.Threads[i].Kind)
		if err != nil {
			return nil, err
		}
		impls[i] = impl
	}
	return impls, nil
}

// Execute runs the program: one goroutine per thread, channel lanes between
// them, outputs assembled per iteration. It blocks until every thread
// finishes (or the first error aborts the run) and returns the per-iteration
// sink outputs.
func Execute(p *Program) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	impls, err := lookupImpls(p)
	if err != nil {
		return nil, err // unreachable: Validate looked every kind up
	}
	e := newExec(p)
	inPlace := ownedInputs(p, impls)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range p.Threads {
		wg.Add(1)
		go func(t *Thread, impl *funclib.Impl, inPlace bool) {
			defer wg.Done()
			e.threadMain(t, impl, inPlace)
		}(&p.Threads[i], impls[i], inPlace[i])
	}
	wg.Wait()
	if e.err != nil {
		return nil, e.err
	}
	return &Result{App: p.App, Iters: e.iters, Wall: time.Since(start)}, nil
}

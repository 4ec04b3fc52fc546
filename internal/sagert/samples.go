package sagert

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/funclib"
	"repro/internal/plan"
	"repro/internal/sim"
)

// samples runs a run's sample work beside the kernel (DESIGN.md §14, "sample
// tasks"). The step machine makes every structural decision — the block a
// port lands in, whether a thread computes in place, the blocks it sends — and
// records what the kernel delivered in one task per (thread, compute
// iteration), submitted at stCompute. A task lands its payloads in the input
// blocks, runs the kind's Compute and stores a collected sink's payloads in
// the result: today's operations on today's storage. It becomes runnable once
// the tasks of its input edges' producer threads, same iteration, have
// finished, so no worker ever waits on a dependency. GOMAXPROCS − 1 workers
// (at least one) run tasks while the kernel dispatches; once it drains, the
// kernel's goroutine joins them until the last task finished.
type samples struct {
	r     *runner
	mu    sync.Mutex
	ready sync.Cond // a task became runnable, or the last one finished
	// tasks holds every task of the run, by iter*len(plan.Threads) + thread:
	// one allocation, the block lists another and the edge lists a third,
	// however many tasks there are.
	tasks   []sampleTask
	queue   []*sampleTask // runnable tasks
	workers sync.WaitGroup

	submitted, finished int
	closing, drop       bool
	// stamp marks a pass over one task's producers or consumers, so that a
	// thread reached by several edges counts once.
	stamp uint64
	// err is the failure of the earliest-submitted failing task, seq its
	// submission number.
	err error
	seq int
}

// A sampleTask is one thread's sample work for one compute iteration.
type sampleTask struct {
	// The step fills in t, iter, blocks and edges before it submits the task.
	t    *thread
	iter int
	// blocks holds the payloads in delivery order, port by port — each the
	// producer's output block — then the thread's input blocks and output
	// blocks in port order. edges holds each payload's edge, whose region
	// (plan.Edge.X) it carries.
	blocks []*funclib.Block
	edges  []int32

	seq       int // submission number
	pending   int // producer tasks not yet finished
	mark      uint64
	submitted bool
	done      bool
	// failed marks a task whose Compute failed, or that was skipped —
	// downstream of a failed task, or dropped by a halted run.
	failed bool
}

// newSamples lays out the tasks of a run that carries samples and starts its
// workers.
func newSamples(r *runner) *samples {
	threads := r.plan.Threads
	s := &samples{r: r, tasks: make([]sampleTask, r.opts.ComputeIterations*len(threads))}
	// A task records one payload per input lane, then its ports' blocks.
	lanes := func(tp *plan.Thread) int {
		n := 0
		for pi := range tp.Ins {
			n += len(tp.Ins[pi].Edges)
		}
		return n
	}
	payloads, ports := 0, 0
	for ti := range threads {
		payloads += lanes(&threads[ti])
		ports += len(threads[ti].Ins) + len(threads[ti].Outs)
	}
	blocks := make([]*funclib.Block, r.opts.ComputeIterations*(payloads+ports))
	edges := make([]int32, r.opts.ComputeIterations*payloads)
	for i := range s.tasks {
		tp := &threads[i%len(threads)]
		m := lanes(tp)
		n := m + len(tp.Ins) + len(tp.Outs)
		s.tasks[i].blocks, blocks = blocks[:0:n], blocks[n:]
		s.tasks[i].edges, edges = edges[:0:m], edges[m:]
	}
	s.ready.L = &s.mu
	// The kernel's goroutine keeps one P; it joins the workers once it has
	// drained.
	n := max(1, min(runtime.GOMAXPROCS(0)-1, len(threads)))
	s.workers.Add(n)
	for range n {
		go func() {
			defer s.workers.Done()
			s.work()
		}()
	}
	return s
}

// task returns the task of thread t's iteration iter, for the step to fill in.
func (s *samples) task(t *thread, iter int) *sampleTask {
	task := &s.tasks[iter*len(s.r.plan.Threads)+t.ti]
	task.t, task.iter = t, iter
	return task
}

// submit hands the kernel's record of a compute iteration to the workers.
func (s *samples) submit(task *sampleTask) {
	tp := task.t.tp
	base := task.iter * len(s.r.plan.Threads)
	s.mu.Lock()
	task.seq = s.submitted
	task.submitted = true
	s.submitted++
	s.stamp++
	for pi := range tp.Ins {
		for _, ei := range tp.Ins[pi].Edges {
			// The producer sent this iteration's payload after its own
			// stCompute: its task is submitted.
			p := &s.tasks[base+int(s.r.plan.Edges[ei].Src)]
			if p.mark == s.stamp {
				continue
			}
			p.mark = s.stamp
			task.failed = task.failed || p.failed
			if !p.done {
				task.pending++
			}
		}
	}
	if task.pending == 0 {
		s.push(task)
	}
	s.mu.Unlock()
}

// push makes a task runnable. s.mu is held.
func (s *samples) push(task *sampleTask) {
	s.queue = append(s.queue, task)
	s.ready.Signal()
}

// finish records that task ran (or was skipped) and releases the tasks of its
// consumer threads that waited on it last. s.mu is held.
func (s *samples) finish(task *sampleTask, failed bool) {
	tp := task.t.tp
	base := task.iter * len(s.r.plan.Threads)
	clear(task.blocks) // the samples are garbage once the task ran
	task.blocks = nil
	task.done, task.failed = true, failed
	s.finished++
	s.stamp++
	for pi := range tp.Outs {
		for _, ei := range tp.Outs[pi].Edges {
			// A consumer not yet submitted will find this task done.
			c := &s.tasks[base+int(s.r.plan.Edges[ei].Dst)]
			if !c.submitted || c.mark == s.stamp {
				continue
			}
			c.mark = s.stamp
			c.failed = c.failed || failed
			if c.pending--; c.pending == 0 {
				s.push(c)
			}
		}
	}
	if s.closing && s.finished == s.submitted {
		s.ready.Broadcast()
	}
}

// work runs runnable tasks until the run closes and the last task finished.
func (s *samples) work() {
	w := taskRunner{in: map[string]*funclib.Block{}, out: map[string]*funclib.Block{}}
	s.mu.Lock()
	for {
		if n := len(s.queue); n > 0 {
			task := s.queue[n-1]
			s.queue = s.queue[:n-1]
			skip := task.failed || s.drop
			s.mu.Unlock()
			var err error
			if !skip {
				err = w.run(s.r, task)
			}
			s.mu.Lock()
			if err != nil && (s.err == nil || task.seq < s.seq) {
				s.err, s.seq = err, task.seq
			}
			s.finish(task, skip || err != nil)
			continue
		}
		if s.closing && s.finished == s.submitted {
			break
		}
		s.ready.Wait()
	}
	s.mu.Unlock()
}

// join waits for every submitted task and the workers, and returns the
// earliest-submitted failure. With drop — the kernel halted — tasks that have
// not started are skipped.
func (s *samples) join(drop bool) error {
	s.mu.Lock()
	s.closing, s.drop = true, drop
	s.ready.Broadcast()
	s.mu.Unlock()
	s.work()
	s.workers.Wait()
	return s.err
}

// taskRunner is one worker's scratch: the context and port maps a Compute
// call takes, reused task after task.
type taskRunner struct {
	ctx     funclib.Context
	in, out map[string]*funclib.Block
}

// run is a task's body: land the payloads as the kernel delivered them, then
// compute. A panic becomes the *sim.PanicError the kernel would have reported
// had the thread's step panicked.
func (w *taskRunner) run(r *runner, task *sampleTask) (err error) {
	t, tp := task.t, task.t.tp
	defer func() {
		if v := recover(); v != nil {
			p := t.rank.Proc()
			err = fmt.Errorf("sagert: execution failed: %w", &sim.PanicError{Proc: p.Name(), PID: p.PID(), Value: v})
		}
	}()
	payloads := len(task.edges)
	got, ins, outs := task.blocks[:payloads], task.blocks[payloads:payloads+len(tp.Ins)], task.blocks[payloads+len(tp.Ins):]
	edges := task.edges
	for pi := range tp.Ins {
		n := len(tp.Ins[pi].Edges)
		for i, b := range got[:n] {
			// Each payload is its producer's block, and its edge names the
			// region it carries. A sink holds no samples of its own: the
			// payloads of the last compute iteration land in the assembled
			// output, earlier ones are dropped.
			reg := r.plan.Edges[edges[i]].X.Region
			switch {
			case t.sink == nil:
				funclib.CopyRegion(ins[pi], b, reg)
			case task.iter == r.opts.ComputeIterations-1:
				funclib.StoreSink(&r.sinkMu, t.sink.m, b, reg)
			}
		}
		got, edges = got[n:], edges[n:]
	}
	clear(w.in)
	clear(w.out)
	for pi := range tp.Ins {
		w.in[tp.Ins[pi].Entry.Name] = ins[pi]
	}
	for pi := range tp.Outs {
		w.out[tp.Outs[pi].Entry.Name] = outs[pi]
	}
	w.ctx = contextOf(tp, task.iter)
	if err := tp.Impl.Compute(&w.ctx, w.in, w.out); err != nil {
		return fmt.Errorf("sagert: %s thread %d iteration %d: %w", tp.Fn.Name, tp.Index, task.iter, err)
	}
	return nil
}

// contextOf is the library context of thread tp's iteration iter.
func contextOf(tp *plan.Thread, iter int) funclib.Context {
	return funclib.Context{FuncName: tp.Fn.Name, Params: tp.Fn.Params, Thread: tp.Index, Threads: tp.Fn.Threads, Iteration: iter}
}

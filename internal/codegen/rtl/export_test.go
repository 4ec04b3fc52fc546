package rtl

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/funclib"
	"repro/internal/model"
)

// Poisoned counts what ExecutePoisoned saw: the recycled blocks handed out,
// how many of them skipped clearing and were filled with NaN, and how many of
// those were the output blocks of threads that land transposed.
type Poisoned struct {
	Recycled, Poisoned, Transposed int64
}

// ExecutePoisoned runs a validated p with every recycled block that is not
// cleared filled with NaN before reuse, so a sample the plan wrongly
// assumes rewritten shows in the sinks, and counts the recycled blocks.
func ExecutePoisoned(p *Program) (*Result, Poisoned, error) {
	if err := p.Validate(); err != nil {
		return nil, Poisoned{}, err
	}
	e := newExec(p)
	var recycled, poisoned, transposed atomic.Int64
	nan := complex(math.NaN(), math.NaN())
	e.hooks.recycle = func(ti int, b *funclib.Block, cleared bool) {
		recycled.Add(1)
		if !cleared {
			poisoned.Add(1)
			if p.Threads[ti].Transposes { // its only storage is its output
				transposed.Add(1)
			}
			for i := range b.Data {
				b.Data[i] = nan
			}
		}
	}
	res, err := e.run()
	return res, Poisoned{recycled.Load(), poisoned.Load(), transposed.Load()}, err
}

// ExecuteReceiving runs a validated p and calls recv with every payload a
// thread receives — the producer's block — and the region its lane carries.
// Threads call it concurrently.
func ExecuteReceiving(p *Program, recv func(thread int, payload *funclib.Block, reg model.Region)) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e := newExec(p)
	e.hooks.recv = recv
	return e.run()
}

// ReceivesOutsideReaders runs a validated p and holds every payload a thread
// receives to the storage records. A payload that lies in an iteration's
// result matrix lies in the storage a result-backed thread keeps there: when
// that storage's views go only to the sink, it may be received only by a
// thread of that sink; otherwise also by a thread that precedes every thread
// of the sink, found by a search over the lanes. Any other payload must lie in
// a block of some storage, and the receiving thread must be one of that
// storage's readers. It returns how many payloads it checked, how many of them
// lay in a result and were received by the sink or by another thread, and a
// line for each that fails.
func ReceivesOutsideReaders(p *Program) (checked, bySink, byOthers int, bad []string, err error) {
	if err := p.Validate(); err != nil {
		return 0, 0, 0, nil, err
	}
	e := newExec(p)
	type receipt struct {
		thread int
		at     uintptr // the payload's first sample
		region model.Region
	}
	var mu sync.Mutex
	var got []receipt
	e.hooks.recv = func(ti int, b *funclib.Block, reg model.Region) {
		if reg.Empty() {
			return
		}
		at := funclib.ExtractRegion(b, reg) // where the region's first sample lies
		mu.Lock()
		got = append(got, receipt{ti, uintptr(unsafe.Pointer(&at.Data[0])), reg})
		mu.Unlock()
	}
	if _, err := e.run(); err != nil {
		return 0, 0, 0, nil, err
	}
	within := func(at uintptr, data []complex128) bool {
		start := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
		return start <= at && at < start+uintptr(len(data))*unsafe.Sizeof(data[0])
	}
	// The blocks stay where they are while e is alive: the run is over, so
	// every storage and result can be read.
	storages := slices.DeleteFunc(slices.Concat(slices.Concat(e.ins...), slices.Concat(e.outs...)),
		func(s *storage) bool { return s == nil })
	// precedes reports whether thread u reaches every thread of sink fn.
	producer, consumer := make([]int, len(p.Conns)), make([]int, len(p.Conns))
	for ti := range p.Threads {
		for _, pp := range p.Threads[ti].Outs {
			for _, x := range pp.Xfers {
				producer[x.Conn] = ti
			}
		}
		for _, pp := range p.Threads[ti].Ins {
			for _, x := range pp.Xfers {
				consumer[x.Conn] = ti
			}
		}
	}
	precedes := func(u int, fn string) bool {
		reached := make([]bool, len(p.Threads))
		for stack := []int{u}; len(stack) > 0; {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for c := range p.Conns {
				if v := consumer[c]; producer[c] == w && !reached[v] {
					reached[v] = true
					stack = append(stack, v)
				}
			}
		}
		for v := range p.Threads {
			if p.Threads[v].Fn == fn && !reached[v] {
				return false
			}
		}
		return true
	}
	for _, r := range got {
		t := &p.Threads[r.thread]
		sink, owner := "", -1
		for _, results := range e.iters {
			for fn, m := range results {
				if !within(r.at, m.Data) {
					continue
				}
				sink = fn
				at := int((r.at - uintptr(unsafe.Pointer(&m.Data[0]))) / unsafe.Sizeof(m.Data[0]))
				sample := model.Region{R0: at / m.Cols, C0: at % m.Cols, Rows: 1, Cols: 1}
				for o, res := range e.results {
					if res != nil && res.Fn == fn && p.Threads[o].Outs[0].Region.Intersect(sample) == sample {
						owner = o
					}
				}
			}
		}
		if sink != "" {
			switch {
			case owner < 0:
				bad = append(bad, fmt.Sprintf("%s[%d] received %v from the result of sink %s, in no storage", t.Fn, t.Thread, r.region, sink))
			case t.Kind == "sink_matrix" && t.Fn == sink:
				bySink++
			case !slices.ContainsFunc(p.Threads[owner].Outs[0].Xfers, func(x Xfer) bool { return p.Threads[consumer[x.Conn]].Fn != sink }):
				bad = append(bad, fmt.Sprintf("%s[%d] received %v from the result of sink %s, whose storage only the sink reads", t.Fn, t.Thread, r.region, sink))
			case !precedes(r.thread, sink):
				bad = append(bad, fmt.Sprintf("%s[%d] received %v from the result of sink %s without preceding every sink thread", t.Fn, t.Thread, r.region, sink))
			default:
				byOthers++
			}
			continue
		}
		var in *storage
		for _, s := range storages {
			for _, b := range s.blocks {
				if within(r.at, b.Data) {
					in = s
				}
			}
		}
		switch {
		case in == nil:
			bad = append(bad, fmt.Sprintf("%s[%d] received %v from no storage", t.Fn, t.Thread, r.region))
		case !slices.Contains(in.Readers, r.thread):
			bad = append(bad, fmt.Sprintf("%s[%d] received %v from a %v storage it is not a reader of (readers %v)",
				t.Fn, t.Thread, r.region, in.region, in.Readers))
		}
	}
	return len(got), bySink, byOthers, bad, nil
}

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

// OwnedInputs exposes the in-place decision Execute makes for a validated
// program, so the external tests can hold it to plan.Build's.
func OwnedInputs(p *Program) ([]bool, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return newLayout(p).inPlace, nil
}

// ExecutePoisoned runs a validated p with every recycled block that is not
// cleared filled with NaN before reuse, so a sample the layout wrongly
// assumes rewritten shows in the sinks. It also counts the recycled blocks
// handed out, and how many of them were poisoned.
func ExecutePoisoned(p *Program) (res *Result, recycled, poisoned int64, err error) {
	if err := p.Validate(); err != nil {
		return nil, 0, 0, err
	}
	e := newExec(p)
	var nRecycled, nPoisoned atomic.Int64
	nan := complex(math.NaN(), math.NaN())
	e.hooks.recycle = func(b *funclib.Block, cleared bool) {
		nRecycled.Add(1)
		if !cleared {
			nPoisoned.Add(1)
			for i := range b.Data {
				b.Data[i] = nan
			}
		}
	}
	res, err = e.run()
	return res, nRecycled.Load(), nPoisoned.Load(), err
}

// ReceivesOutsideReaders runs a validated p and holds every payload a thread
// receives to the layout: the payload must lie in a block of some storage,
// and the receiving thread must be one of that storage's readers. It returns
// how many payloads it checked and a line for each that fails.
func ReceivesOutsideReaders(p *Program) (int, []string, error) {
	if err := p.Validate(); err != nil {
		return 0, nil, err
	}
	e := newExec(p)
	type receipt struct {
		thread int
		at     uintptr // the payload's first sample
		region model.Region
	}
	var mu sync.Mutex
	var got []receipt
	e.hooks.recv = func(ti int, b *funclib.Block) {
		if len(b.Data) == 0 {
			return
		}
		mu.Lock()
		got = append(got, receipt{ti, uintptr(unsafe.Pointer(&b.Data[0])), b.Region})
		mu.Unlock()
	}
	if _, err := e.run(); err != nil {
		return 0, nil, err
	}
	// The blocks stay where they are while e is alive: the run is over, so
	// every storage can be read.
	storages := slices.DeleteFunc(slices.Concat(slices.Concat(e.ins...), slices.Concat(e.outs...)),
		func(s *storage) bool { return s == nil })
	var bad []string
	for _, r := range got {
		var in *storage
		for _, s := range storages {
			for _, b := range s.blocks {
				start := uintptr(unsafe.Pointer(&b.Data[0]))
				if start <= r.at && r.at < start+uintptr(len(b.Data))*unsafe.Sizeof(b.Data[0]) {
					in = s
				}
			}
		}
		t := &p.Threads[r.thread]
		switch {
		case in == nil:
			bad = append(bad, fmt.Sprintf("%s[%d] received %v from no storage", t.Fn, t.Thread, r.region))
		case !slices.Contains(in.readers, r.thread):
			bad = append(bad, fmt.Sprintf("%s[%d] received %v from a %v storage it is not a reader of (readers %v)",
				t.Fn, t.Thread, r.region, in.region, in.readers))
		}
	}
	return len(got), bad, nil
}

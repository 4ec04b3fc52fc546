package main

import (
	"runtime"
	"strings"
	"sync"
	"time"
)

// span is one call from the benchmark into a layer's public functions. Spans
// are recorded by the benchmark's own files, around the call; nothing inside
// the program under test is instrumented. Spans of one op share Op; Parent is
// the ID of the enclosing span (0 for the op's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"` // "<layer>.<call>"
	Class  string `json:"class"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
	// runtime.MemStats deltas over the span; zero when the recorder runs
	// without memory sampling (concurrent clients share one heap, so a delta
	// would not belong to the span).
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	Mallocs    uint64 `json:"mallocs,omitempty"`
	GCCycles   uint32 `json:"gc_cycles,omitempty"`
}

func (s span) durNS() int64 { return s.End - s.Start }

func durMS(s span) float64 { return float64(s.durNS()) / 1e6 }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	mem   bool // sample runtime.MemStats at span boundaries
	spans []span
	ops   int
}

func newRecorder(mem bool) *recorder { return &recorder{t0: time.Now(), mem: mem} }

// opTrace records the spans of one op. A nil *opTrace records nothing, so
// callers wrap layer calls unconditionally and the untraced run pays one nil
// check per boundary.
type opTrace struct {
	rec   *recorder
	op    int
	class string
	stack []int // indexes into local of the open spans
	local []span
	m0    []runtime.MemStats // parallel to stack
}

// beginOp opens the op's root span.
func (r *recorder) beginOp(class string) *opTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.ops++
	op := r.ops
	r.mu.Unlock()
	t := &opTrace{rec: r, op: op, class: class}
	t.start("op." + class)
	return t
}

// start opens a child of the innermost open span.
func (t *opTrace) start(name string) {
	if t == nil {
		return
	}
	// Parent holds the parent's local index + 1 for now (0: none); finish
	// rewrites it to an ID.
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1] + 1
	}
	t.stack = append(t.stack, len(t.local))
	t.local = append(t.local, span{Parent: parent, Op: t.op, Name: name, Class: t.class})
	if t.rec.mem {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		t.m0 = append(t.m0, m)
	}
	t.local[len(t.local)-1].Start = time.Since(t.rec.t0).Nanoseconds()
}

// end closes the innermost open span.
func (t *opTrace) end() {
	if t == nil {
		return
	}
	now := time.Since(t.rec.t0).Nanoseconds()
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.local[i]
	s.End = now
	if t.rec.mem {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		m0 := t.m0[len(t.m0)-1]
		t.m0 = t.m0[:len(t.m0)-1]
		s.AllocBytes = m.TotalAlloc - m0.TotalAlloc
		s.Mallocs = m.Mallocs - m0.Mallocs
		s.GCCycles = m.NumGC - m0.NumGC
	}
}

// finish closes the root span and hands the op's spans to the recorder.
func (t *opTrace) finish() {
	if t == nil {
		return
	}
	for len(t.stack) > 0 {
		t.end()
	}
	r := t.rec
	r.mu.Lock()
	base := len(r.spans) + 1
	for i := range t.local {
		s := t.local[i]
		s.ID = base + i
		if s.Parent != 0 {
			s.Parent += base - 1
		}
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// field returns f(span) for every span called name in ops of class.
func (r *recorder) field(name, class string, f func(span) float64) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.Class == class {
			out = append(out, f(s))
		}
	}
	return out
}

// selfByLayer sums self time per layer, in ns. A span's self time is its
// duration minus the part of that interval its child spans cover; the layer
// is the span name up to the first dot. Children of one span never overlap
// (an op runs on one goroutine), so the covered part is the sum of the
// children's durations.
func (r *recorder) selfByLayer() map[string]int64 {
	covered := make(map[int]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.durNS()
		}
	}
	out := map[string]int64{}
	for _, s := range r.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += s.durNS() - covered[s.ID]
	}
	return out
}

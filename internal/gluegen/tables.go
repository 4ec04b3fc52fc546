// Package gluegen is the SAGE glue-code generator of §2 and Figure 1.0: an
// Alter script traverses a mapped application model, collects attributes
// through the model-access standard calls, and emits source files for the
// SAGE run-time. Two artifacts are produced: the runtime table source (a
// machine-readable s-expression listing that is parsed back into
// RuntimeTables, the exact structures — function table, logical buffer
// table with striding information, execution order — that §2 says the
// generator derives from the model), and a human-readable glue listing for
// inspection.
//
// The generator is faithful to the paper's architecture: the Go code here
// only provides the standard calls (model traversal, property access, the
// striping/partition math) and the parser; the generation logic itself is
// written in Alter (see script.go) and user-supplied Alter scripts can
// replace it.
//
// Generation sits inside the designer's edit → generate → run loop, so the
// cold path is kept cheap rather than cached: the standard script is
// compiled once per process and shared by every Generate (a custom script is
// compiled per GenerateWith), the emitted table source is still parsed back
// and verified on every call, and a caller that only changes the mapping
// (Tables.WithMapping) does not generate at all. DESIGN.md §16.
package gluegen

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/funclib"
	"repro/internal/machine"
	"repro/internal/model"
)

// Transfer is one striding entry of a logical buffer: the region of the data
// set that must move from a source thread to a destination thread each
// iteration.
type Transfer struct {
	SrcThread int
	DstThread int
	Region    model.Region
	Bytes     int
}

// BufferEntry is a logical buffer (§2: "Located and shared between each port
// on the sender and receiver functions is the SAGE notion of a logical
// buffer ... It contains the striding information, total buffer size (before
// striding), thread information (number and type), etc.").
type BufferEntry struct {
	ID        int
	SrcFn     int // function ID
	SrcPort   string
	DstFn     int
	DstPort   string
	Rows      int
	Cols      int
	ElemBytes int
	Transfers []Transfer
}

// TotalBytes is the buffer's full data-set size before striding.
func (b *BufferEntry) TotalBytes() int { return b.Rows * b.Cols * b.ElemBytes }

// PortEntry is a port of a function-table entry, with the logical buffers it
// feeds (outputs) or reads (inputs, exactly one).
type PortEntry struct {
	Name      string
	Rows      int
	Cols      int
	ElemBytes int
	Striping  model.StripeKind
	Buffers   []int
}

// FuncEntry is one row of the function table. The runtime "executes
// functions based on this ID, which is the index of this descriptor into the
// function table" (§2).
type FuncEntry struct {
	ID      int
	Name    string
	Kind    string
	Threads int
	Nodes   []int // thread -> processor node
	Params  map[string]any
	Ins     []PortEntry
	Outs    []PortEntry
	// Probe is the model's probe property, kept in the table for tools that
	// read it; the runtime's trace collector records every function.
	Probe bool
}

// Tables is the complete generated runtime configuration.
type Tables struct {
	AppName   string
	Platform  string
	NumNodes  int
	Functions []FuncEntry
	Buffers   []BufferEntry
	Order     []int // function IDs in execution (topological) order
}

// Function returns the entry with the given ID.
func (t *Tables) Function(id int) (*FuncEntry, error) {
	if id < 0 || id >= len(t.Functions) {
		return nil, fmt.Errorf("gluegen: function ID %d out of range [0,%d)", id, len(t.Functions))
	}
	return &t.Functions[id], nil
}

// WithMapping returns tables that differ from t only in the mapping baked
// into them: the result is what a cold Generate of the same application with
// mapping m yields. The mapping enters the tables in one place, each function
// row's Nodes, so the function rows are copied and everything else — ports,
// parameters, buffers with their striding schedules, order — is shared with t
// and must be treated as read-only by both. m is checked against the tables
// themselves: it must place every thread of every function on a node the
// tables declare.
func (t *Tables) WithMapping(m *model.Mapping) (*Tables, error) {
	out := *t
	out.Functions = make([]FuncEntry, len(t.Functions))
	for i, f := range t.Functions {
		nodes, ok := m.Assign[f.Name]
		if !ok {
			return nil, fmt.Errorf("gluegen: function %q has no mapping", f.Name)
		}
		if len(nodes) != f.Threads {
			return nil, fmt.Errorf("gluegen: function %q has %d threads but %d mapped nodes", f.Name, f.Threads, len(nodes))
		}
		for th, n := range nodes {
			if n < 0 || n >= t.NumNodes {
				return nil, fmt.Errorf("gluegen: function %q thread %d mapped to node %d of %d", f.Name, th, n, t.NumNodes)
			}
		}
		f.Nodes = append([]int(nil), nodes...)
		out.Functions[i] = f
	}
	return &out, nil
}

// Verify checks the structural integrity of generated tables: IDs dense and
// ordered, nodes in range, buffers wired to real ports, and — the heart of
// the striping logic — that for every buffer each destination thread's
// partition is exactly tiled by its incoming transfers (full coverage, no
// overlap, no spill). Both Generate and plan.Build call it, so it visits
// each transfer once: a buffer's transfers are grouped by destination thread
// up front instead of being searched again for every thread.
func (t *Tables) Verify() error {
	var errs []error
	add := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }

	if t.NumNodes < 1 {
		add("gluegen: tables declare %d nodes", t.NumNodes)
	}
	if len(t.Functions) == 0 {
		add("gluegen: tables contain no functions (generator emitted nothing?)")
	}
	for i, f := range t.Functions {
		if f.ID != i {
			add("gluegen: function %q has ID %d at index %d", f.Name, f.ID, i)
		}
		if f.Threads < 1 || len(f.Nodes) != f.Threads {
			add("gluegen: function %q has %d threads and %d nodes", f.Name, f.Threads, len(f.Nodes))
		}
		for _, n := range f.Nodes {
			if n < 0 || n >= t.NumNodes {
				add("gluegen: function %q mapped to node %d of %d", f.Name, n, t.NumNodes)
			}
		}
		if _, err := funclib.Lookup(f.Kind); err != nil {
			add("gluegen: function %q: %v", f.Name, err)
		}
	}
	if len(t.Order) != len(t.Functions) {
		add("gluegen: order lists %d of %d functions", len(t.Order), len(t.Functions))
	}
	seen := map[int]bool{}
	for _, id := range t.Order {
		if id < 0 || id >= len(t.Functions) || seen[id] {
			add("gluegen: bad or duplicate ID %d in order", id)
			continue
		}
		seen[id] = true
	}

	var sorted []Transfer // a buffer's transfers put in thread order, when they are not
	var grid regionGrid
	for i := range t.Buffers {
		b := &t.Buffers[i]
		if b.ID != i {
			add("gluegen: buffer %d has ID %d", i, b.ID)
			continue
		}
		src, err := t.Function(b.SrcFn)
		if err != nil {
			add("gluegen: buffer %d: %v", b.ID, err)
			continue
		}
		dst, err := t.Function(b.DstFn)
		if err != nil {
			add("gluegen: buffer %d: %v", b.ID, err)
			continue
		}
		srcPort := findPort(src.Outs, b.SrcPort)
		dstPort := findPort(dst.Ins, b.DstPort)
		if srcPort == nil {
			add("gluegen: buffer %d: source port %s.%s missing", b.ID, src.Name, b.SrcPort)
			continue
		}
		if dstPort == nil {
			add("gluegen: buffer %d: destination port %s.%s missing", b.ID, dst.Name, b.DstPort)
			continue
		}
		if !slices.Contains(srcPort.Buffers, b.ID) || !slices.Contains(dstPort.Buffers, b.ID) {
			add("gluegen: buffer %d not referenced by both its ports", b.ID)
		}
		// Per-destination-thread coverage, over each thread's transfers as
		// one run: in place when the table lists them thread by thread, as
		// the generator emits them; otherwise from a copy put in that order,
		// table order kept within a thread, without the transfers bound for
		// a thread this function lacks (plan.Build refuses those).
		xs := b.Transfers
		if !slices.IsSortedFunc(xs, byDstThread) || (len(xs) > 0 && (xs[0].DstThread < 0 || xs[len(xs)-1].DstThread >= dst.Threads)) {
			sorted = sorted[:0]
			for _, x := range xs {
				if x.DstThread >= 0 && x.DstThread < dst.Threads {
					sorted = append(sorted, x)
				}
			}
			slices.SortStableFunc(sorted, byDstThread)
			xs = sorted
		}
		next := 0
		for j := 0; j < dst.Threads; j++ {
			end := next
			for end < len(xs) && xs[end].DstThread == j {
				end++
			}
			mine := xs[next:end]
			next = end
			want, err := model.Partition(dstPort.Striping, b.Rows, b.Cols, dst.Threads, j)
			if err != nil {
				add("gluegen: buffer %d dst thread %d: %v", b.ID, j, err)
				continue
			}
			covered := 0
			for k := range mine {
				x := &mine[k]
				if x.SrcThread < 0 || x.SrcThread >= src.Threads {
					add("gluegen: buffer %d: transfer from thread %d of %d", b.ID, x.SrcThread, src.Threads)
				}
				if x.Region.Intersect(want) != x.Region {
					add("gluegen: buffer %d: transfer region %v spills outside dst partition %v", b.ID, x.Region, want)
				}
				if x.Bytes != x.Region.Elems()*b.ElemBytes {
					add("gluegen: buffer %d: transfer bytes %d != region %v x %d", b.ID, x.Bytes, x.Region, b.ElemBytes)
				}
				covered += x.Region.Elems()
			}
			if grid.mayOverlap(mine) {
				for a := range mine {
					ra := mine[a].Region
					for c := range mine[a+1:] {
						if rc := mine[a+1+c].Region; !ra.Intersect(rc).Empty() {
							add("gluegen: buffer %d dst thread %d: overlapping transfers %v and %v", b.ID, j, ra, rc)
						}
					}
				}
			}
			if covered != want.Elems() {
				add("gluegen: buffer %d dst thread %d: transfers cover %d of %d elements", b.ID, j, covered, want.Elems())
			}
		}
	}
	return errors.Join(errs...)
}

// regionGrid holds mayOverlap's buffers, reused across one Verify's threads.
type regionGrid struct {
	rows, cols []int
	cells      []bool
}

// mayOverlap reports whether the regions of two of the transfers mine might
// intersect. It paints each non-empty region on the grid the regions' own
// row and column bounds cut the plane into — a region is a block of whole
// cells, so two regions intersect iff they share one — and answers false if
// no cell is painted twice. It answers true when it finds a shared cell, and
// without painting when the grid has more cells than there are pairs.
func (g *regionGrid) mayOverlap(mine []Transfer) bool {
	g.rows, g.cols = slices.Grow(g.rows[:0], 2*len(mine)), slices.Grow(g.cols[:0], 2*len(mine))
	for k := range mine {
		if r := mine[k].Region; !r.Empty() {
			g.rows = append(g.rows, r.R0, r.R0+r.Rows)
			g.cols = append(g.cols, r.C0, r.C0+r.Cols)
		}
	}
	n := len(g.rows) / 2
	if n < 2 {
		return false
	}
	slices.Sort(g.rows)
	slices.Sort(g.cols)
	g.rows, g.cols = slices.Compact(g.rows), slices.Compact(g.cols)
	w := len(g.cols) - 1
	cells := (len(g.rows) - 1) * w
	if cells > n*(n-1)/2 {
		return true
	}
	// Grown, not appended from a make: a -race build allocates the make.
	g.cells = slices.Grow(g.cells[:0], cells)[:cells]
	clear(g.cells)
	for k := range mine {
		r := mine[k].Region
		if r.Empty() {
			continue
		}
		r0, _ := slices.BinarySearch(g.rows, r.R0)
		r1, _ := slices.BinarySearch(g.rows, r.R0+r.Rows)
		c0, _ := slices.BinarySearch(g.cols, r.C0)
		c1, _ := slices.BinarySearch(g.cols, r.C0+r.Cols)
		for i := r0; i < r1; i++ {
			for c := i*w + c0; c < i*w+c1; c++ {
				if g.cells[c] {
					return true
				}
				g.cells[c] = true
			}
		}
	}
	return false
}

// byDstThread orders transfers by destination thread.
func byDstThread(a, c Transfer) int { return cmp.Compare(a.DstThread, c.DstThread) }

func findPort(ports []PortEntry, name string) *PortEntry {
	for i := range ports {
		if ports[i].Name == name {
			return &ports[i]
		}
	}
	return nil
}

// Input is everything the generator needs: a flattened, validated
// application, a validated mapping, and the target platform.
type Input struct {
	App      *model.App
	Mapping  *model.Mapping
	Platform machine.Platform
	NumNodes int
}

// validate checks the generator preconditions.
func (in *Input) validate() error {
	if in.App == nil || in.Mapping == nil {
		return fmt.Errorf("gluegen: nil app or mapping")
	}
	if in.NumNodes < 1 {
		return fmt.Errorf("gluegen: %d nodes", in.NumNodes)
	}
	if err := in.App.Validate(); err != nil {
		return err
	}
	if err := funclib.ValidateApp(in.App); err != nil {
		return err
	}
	return in.Mapping.Validate(in.App, in.NumNodes)
}

// Output bundles the generation artifacts.
type Output struct {
	// Tables is the parsed, verified runtime configuration.
	Tables *Tables
	// TableSource is the machine-readable s-expression source the Alter
	// script emitted (Figure 1.0's "source files"; parsing it yields
	// Tables).
	TableSource string
	// GlueSource is the human-readable glue listing.
	GlueSource string
}

// Package model implements the SAGE Designer's three editors as data
// structures: the data type editor (types and striping/parallelisation
// relationships), the application editor (hierarchical dataflow graphs of
// functional blocks connected through ports), and the hardware editor
// (processors composed into boards, boards into systems). It also defines
// the mapping of application threads onto processors, validation for all of
// it, and a textual serialisation so models can be stored on "shelves" and
// reused, as the paper describes.
//
// The port-striping semantics follow §2 of the paper: a port is either
// replicated (every thread of the host function sees the whole data set) or
// striped (the data set is sliced among the threads). Striping here is
// two-dimensional — by rows or by columns of a matrix type — because the
// benchmark applications redistribute matrices; a row-striped producer
// feeding a column-striped consumer is precisely the distributed corner
// turn, and the glue-code generator turns that striping relationship into
// the runtime's transfer schedule.
package model

import "fmt"

// ElemKind enumerates scalar element kinds for data types.
type ElemKind string

const (
	ElemComplex ElemKind = "complex" // complex sample, 8 wire bytes (single precision)
	ElemFloat   ElemKind = "float"   // real sample, 4 wire bytes
	ElemByte    ElemKind = "byte"    // raw byte
)

// WireBytes returns the on-the-wire size of one element of kind k on the
// simulated 1999-era targets.
func (k ElemKind) WireBytes() (int, error) {
	switch k {
	case ElemComplex:
		return 8, nil
	case ElemFloat:
		return 4, nil
	case ElemByte:
		return 1, nil
	default:
		return 0, fmt.Errorf("model: unknown element kind %q", k)
	}
}

// DataType is an entry from the data type editor: a named matrix (or vector,
// when Cols == 1) of scalar elements.
type DataType struct {
	Name string
	Rows int
	Cols int
	Elem ElemKind
}

// Validate checks the type's shape and element kind.
func (t *DataType) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("model: data type with empty name")
	}
	if t.Rows < 1 || t.Cols < 1 {
		return fmt.Errorf("model: data type %q has shape %dx%d, want >= 1x1", t.Name, t.Rows, t.Cols)
	}
	if _, err := t.Elem.WireBytes(); err != nil {
		return fmt.Errorf("model: data type %q: %w", t.Name, err)
	}
	return nil
}

// Elems returns the total element count of the type.
func (t *DataType) Elems() int { return t.Rows * t.Cols }

// Bytes returns the total wire size of one data set of the type.
func (t *DataType) Bytes() int {
	b, err := t.Elem.WireBytes()
	if err != nil {
		panic(err) // validated at model load
	}
	return t.Elems() * b
}

// StripeKind is the port striping convention of §2: replicated ports carry
// the whole data set to every thread, striped ports slice it among threads.
type StripeKind string

const (
	// Replicated: every thread of the host function holds the entire data set.
	Replicated StripeKind = "replicated"
	// ByRows: thread i of T holds the contiguous row block [i*R/T, (i+1)*R/T).
	ByRows StripeKind = "rows"
	// ByCols: thread i of T holds the contiguous column block [i*C/T, (i+1)*C/T).
	ByCols StripeKind = "cols"
)

// ValidStripe reports whether s is a known striping kind.
func ValidStripe(s StripeKind) bool {
	switch s {
	case Replicated, ByRows, ByCols:
		return true
	}
	return false
}

// Region is a rectangular sub-block [R0, R0+Rows) x [C0, C0+Cols) of a data
// set; the unit of the glue code's striding computations.
type Region struct {
	R0, C0     int
	Rows, Cols int
}

// Empty reports whether the region covers no elements.
func (r Region) Empty() bool { return r.Rows <= 0 || r.Cols <= 0 }

// Elems returns the element count of the region (0 if empty).
func (r Region) Elems() int {
	if r.Empty() {
		return 0
	}
	return r.Rows * r.Cols
}

// String renders the region as rows x cols at (r0, c0).
func (r Region) String() string {
	return fmt.Sprintf("%dx%d@(%d,%d)", r.Rows, r.Cols, r.R0, r.C0)
}

// Intersect returns the overlap of two regions (possibly empty).
func (r Region) Intersect(o Region) Region {
	r0 := max(r.R0, o.R0)
	c0 := max(r.C0, o.C0)
	r1 := min(r.R0+r.Rows, o.R0+o.Rows)
	c1 := min(r.C0+r.Cols, o.C0+o.Cols)
	out := Region{R0: r0, C0: c0, Rows: r1 - r0, Cols: c1 - c0}
	if out.Empty() {
		return Region{}
	}
	return out
}

// blockRange computes the standard block distribution of n items over t
// parts: part i covers [i*n/t, (i+1)*n/t).
func blockRange(n, t, i int) (lo, hi int) {
	return i * n / t, (i + 1) * n / t
}

// Partition returns the region of a rows x cols data set held by thread i of
// t under striping s. Replicated (and any striping with t == 1) yields the
// whole data set.
func Partition(s StripeKind, rows, cols, t, i int) (Region, error) {
	if t < 1 {
		return Region{}, fmt.Errorf("model: partition over %d threads", t)
	}
	if i < 0 || i >= t {
		return Region{}, fmt.Errorf("model: partition index %d of %d threads", i, t)
	}
	whole := Region{Rows: rows, Cols: cols}
	switch s {
	case Replicated:
		return whole, nil
	case ByRows:
		lo, hi := blockRange(rows, t, i)
		return Region{R0: lo, Rows: hi - lo, Cols: cols}, nil
	case ByCols:
		lo, hi := blockRange(cols, t, i)
		return Region{C0: lo, Cols: hi - lo, Rows: rows}, nil
	default:
		return Region{}, fmt.Errorf("model: unknown striping %q", s)
	}
}

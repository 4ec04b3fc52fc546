// Package funclib is the function library — the "software shelf" of §1.1 —
// binding the Kind names used in application models to executable behaviour,
// port requirements, and operation-cost models. It stands in for the COTS
// functional libraries (CSPI ISSPL) the paper's applications link against;
// the numerical work itself lives in internal/isspl.
//
// Each library entry computes on Blocks: the dense, row-major sub-matrix a
// single thread of a function holds for one port, as carved out by the port
// striping conventions. The SAGE runtime calls Compute once per thread per
// iteration; Cost prices the same work for the simulated machine.
//
// Between two functions a region travels in the producer's own block
// (block.go): the send hands the block over, the lane names the region, and
// the receiver copies it out through the block's pitch — nothing packed,
// nothing allocated. Kinds never meet a pitched block — Assemble hands
// Compute dense blocks only, and the one other layout, a transposing kind's
// transposed input view, is its output block's own samples, already in place.
package funclib

import (
	"fmt"
	"sort"

	"repro/internal/model"
)

// Block is one thread's local view of one port's data set: the region it
// covers and its samples.
type Block struct {
	Region model.Region
	Data   []complex128
	// RowStride and ColStride place the sample at absolute coordinates
	// (r, c) at Data[(r-Region.R0)*RowStride + (c-Region.C0)*ColStride]. Both
	// zero means dense and row-major: (Region.Cols, 1). Only funclib's own
	// views set them: ExtractRegion pitches a region of a wider block
	// (RowStride the block's, ColStride 1), TransposedView lays a block's
	// samples out as the transpose's (RowStride 1). int32 keeps a Block at
	// 64 bytes.
	RowStride, ColStride int32
}

// NewBlock allocates a zeroed dense block covering region r.
func NewBlock(r model.Region) *Block {
	return &Block{Region: r, Data: make([]complex128, r.Elems())}
}

// strides returns the distances in Data between vertically and horizontally
// adjacent samples.
func (b *Block) strides() (rs, cs int) {
	if b.RowStride == 0 && b.ColStride == 0 {
		return b.Region.Cols, 1
	}
	return int(b.RowStride), int(b.ColStride)
}

// offset returns the index in Data of the sample at absolute coordinates
// (r, c).
func (b *Block) offset(r, c int) int {
	rs, cs := b.strides()
	return (r-b.Region.R0)*rs + (c-b.Region.C0)*cs
}

// At returns the sample at absolute coordinates (r, c), which must lie
// inside the block's region.
func (b *Block) At(r, c int) complex128 { return b.Data[b.offset(r, c)] }

// Set writes the sample at absolute coordinates (r, c).
func (b *Block) Set(r, c int, v complex128) { b.Data[b.offset(r, c)] = v }

// Context carries per-invocation information into a library function.
type Context struct {
	// FuncName is the model instance name (for error messages).
	FuncName string
	// Params are the function's model parameters.
	Params map[string]any
	// Thread and Threads identify this thread of the host function.
	Thread, Threads int
	// Iteration is the data-set sequence number (0-based).
	Iteration int
	// Sink, when non-nil, receives the blocks a sink-kind function
	// consumes: the sequential oracle collects its outputs through it. The
	// runtimes leave it nil — a sink port there holds no samples, its
	// payloads are stored once all of an iteration's have arrived
	// (StoreSink).
	Sink func(port string, b *Block)
}

// IntParam fetches an integer parameter with a default.
func (c *Context) IntParam(key string, def int) int {
	if v, ok := c.Params[key]; ok {
		switch n := v.(type) {
		case int:
			return n
		case float64:
			return int(n)
		}
	}
	return def
}

// FloatParam fetches a float parameter with a default.
func (c *Context) FloatParam(key string, def float64) float64 {
	if v, ok := c.Params[key]; ok {
		switch n := v.(type) {
		case float64:
			return n
		case int:
			return float64(n)
		}
	}
	return def
}

// StringParam fetches a string parameter with a default.
func (c *Context) StringParam(key string, def string) string {
	if v, ok := c.Params[key].(string); ok {
		return v
	}
	return def
}

// Cost is the priced work of one Compute call.
type Cost struct {
	Flops     float64
	CopyBytes int
}

// PortReq declares a port an implementation requires, with the striping
// kinds it supports.
type PortReq struct {
	Name    string
	Stripes []model.StripeKind
}

func anyStripe() []model.StripeKind {
	return []model.StripeKind{model.Replicated, model.ByRows, model.ByCols}
}

// Impl is a function library entry.
type Impl struct {
	Kind string
	Doc  string
	// In and Out declare the required ports.
	In, Out []PortReq
	// RequireSquare demands a square data type (redistribution kinds).
	RequireSquare bool
	// Check, when non-nil, performs kind-specific cross-port validation
	// (e.g. shape relationships between input and output types).
	Check func(f *model.Function) error
	// Compute runs one thread for one iteration. Inputs are read-only —
	// except the one an InPlace kind is handed as its output too. On a
	// function that passed ValidateFunction, with blocks covering its ports'
	// partitions, Compute does not fail: what it would refuse (a transform
	// length, a window name, a decimation factor) Check refuses first, which
	// is what lets a caller that reads no samples skip the call.
	Compute func(ctx *Context, in, out map[string]*Block) error
	// InPlace marks a one-input, one-output kind of matching shapes whose
	// Compute accepts out["out"] == in["in"] — the same *Block — and then
	// transforms the samples where they lie instead of copying them across
	// first. A runtime may pass such a pair only for an input block nobody
	// else reads (block.go: the thread owns it).
	InPlace bool
	// Transposes marks a one-input, one-output kind whose output is the
	// transpose of its input, thread by thread: input region (r0, c0, h, w)
	// of X is output region (c0, r0, w, h) of X^T. A runtime may hand its
	// Compute as in["in"] the transposed view of out["out"]
	// (TransposedView): the payloads landed there are the output already,
	// and Compute has nothing left to do.
	Transposes bool
	// Cost prices that Compute call on the abstract machine.
	Cost func(ctx *Context, in, out map[string]*Block) Cost
}

// registry of library entries, keyed by kind.
var registry = map[string]*Impl{}

// register installs an entry, panicking on duplicates (program bug).
func register(im *Impl) {
	if _, dup := registry[im.Kind]; dup {
		panic("funclib: duplicate kind " + im.Kind)
	}
	registry[im.Kind] = im
}

// Lookup returns the implementation of a kind.
func Lookup(kind string) (*Impl, error) {
	im, ok := registry[kind]
	if !ok {
		return nil, fmt.Errorf("funclib: unknown function kind %q (have %v)", kind, Kinds())
	}
	return im, nil
}

// Kinds lists the registered kinds in sorted order.
func Kinds() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ValidateFunction checks a model function instance against its library
// entry: required ports present with allowed striping, no extras, square
// shape where demanded.
func ValidateFunction(f *model.Function) error {
	im, err := Lookup(f.Kind)
	if err != nil {
		return fmt.Errorf("funclib: function %q: %w", f.Name, err)
	}
	checkSide := func(side string, reqs []PortReq, ports []*model.Port) error {
		if len(ports) != len(reqs) {
			return fmt.Errorf("funclib: function %q (kind %s) has %d %s ports, want %d",
				f.Name, f.Kind, len(ports), side, len(reqs))
		}
		for _, req := range reqs {
			p := f.Port(req.Name)
			if p == nil {
				return fmt.Errorf("funclib: function %q (kind %s) is missing %s port %q",
					f.Name, f.Kind, side, req.Name)
			}
			ok := false
			for _, s := range req.Stripes {
				if p.Striping == s {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("funclib: function %q port %q striping %q not supported by kind %s (want one of %v)",
					f.Name, req.Name, p.Striping, f.Kind, req.Stripes)
			}
			if im.RequireSquare && p.Type.Rows != p.Type.Cols {
				return fmt.Errorf("funclib: function %q (kind %s) requires a square type, got %dx%d",
					f.Name, f.Kind, p.Type.Rows, p.Type.Cols)
			}
		}
		return nil
	}
	if err := checkSide("input", im.In, f.Inputs); err != nil {
		return err
	}
	if err := checkSide("output", im.Out, f.Outputs); err != nil {
		return err
	}
	if im.Check != nil {
		return im.Check(f)
	}
	return nil
}

// ValidateApp runs ValidateFunction over every leaf function of an app.
func ValidateApp(a *model.App) error {
	for _, f := range a.Functions {
		if f.IsComposite() {
			continue
		}
		if err := ValidateFunction(f); err != nil {
			return err
		}
	}
	return nil
}

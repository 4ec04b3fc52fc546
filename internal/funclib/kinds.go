package funclib

import (
	"fmt"

	"repro/internal/isspl"
	"repro/internal/model"
)

// SourceValue is the deterministic per-element generator used by the
// source_matrix kind: any (seed, iteration, row, col) maps to a fixed
// complex sample in [-1, 1) + [-1, 1)i. Because it is addressable per
// element, any thread can fill any region independently, and verification
// code can recompute expected inputs without sharing state. (It stands in
// for the benchmark data set CSPI supplied to the paper's authors.)
//
// The hash is three chained splitmix64 finalisers: over the data set, then
// the row, then the column.
func SourceValue(seed int64, iteration, row, col int) complex128 {
	return sourceSample(sourceRowHash(sourceSetHash(seed, iteration), row), col)
}

func splitmix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func sourceSetHash(seed int64, iteration int) uint64 {
	return splitmix(uint64(seed)*0x9e3779b97f4a7c15 + uint64(iteration+1))
}

func sourceRowHash(set uint64, row int) uint64 {
	return splitmix(set ^ uint64(row)*0xd6e8feb86659fd93)
}

func sourceSample(rowHash uint64, col int) complex128 {
	h := splitmix(rowHash ^ uint64(col)*0xa0761d6478bd642f)
	toUnit := func(bits uint32) float64 { return float64(bits)/float64(1<<31) - 1 }
	return complex(toUnit(uint32(h>>32)), toUnit(uint32(h)))
}

// FillSource fills a row-major block with SourceValue samples, hashing the
// data set once per block and the row once per row.
func FillSource(b *Block, seed int64, iteration int) {
	r := b.Region
	pitch, _ := b.strides()
	set := sourceSetHash(seed, iteration)
	for i := 0; i < r.Rows; i++ {
		rowHash := sourceRowHash(set, r.R0+i)
		row := b.Data[i*pitch : i*pitch+r.Cols]
		for j := range row {
			row[j] = sourceSample(rowHash, r.C0+j)
		}
	}
}

func blockBytes(b *Block) int { return b.Region.Elems() * 8 } // single-precision wire size

// checkMatchedPorts is the cross-port Check shared by every kind that
// computes thread-locally and elementwise (or row/column-wise) from one port
// onto another of the same shape: both ports must carry the same striping,
// or a thread's input and output regions diverge and the computation is not
// expressible locally. Striping *changes* belong on arcs (redistribution by
// the runtime), not across a single function.
func checkMatchedPorts(in, out string) func(f *model.Function) error {
	return func(f *model.Function) error {
		ip, op := f.Port(in), f.Port(out)
		if ip.Type.Rows != op.Type.Rows || ip.Type.Cols != op.Type.Cols || ip.Type.Elem != op.Type.Elem {
			return fmt.Errorf("funclib: %s (kind %s): ports %s and %s must share one shape, got %dx%d vs %dx%d",
				f.Name, f.Kind, in, out, ip.Type.Rows, ip.Type.Cols, op.Type.Rows, op.Type.Cols)
		}
		if ip.Striping != op.Striping {
			return fmt.Errorf("funclib: %s (kind %s): ports %s and %s must share one striping (got %q -> %q); express redistribution on the arc, not across the function",
				f.Name, f.Kind, in, out, ip.Striping, op.Striping)
		}
		return nil
	}
}

// checkFFT is the Check of the two FFT kinds: matched ports, and a transform
// length — a row of the port's type for fft_rows, a column for fft_cols —
// that is a power of two, the condition isspl.FFTRows/FFTCols would otherwise
// report from inside the first data set.
func checkFFT(alongRows bool) func(f *model.Function) error {
	matched := checkMatchedPorts("in", "out")
	return func(f *model.Function) error {
		if err := matched(f); err != nil {
			return err
		}
		n := f.Port("in").Type.Rows
		if alongRows {
			n = f.Port("in").Type.Cols
		}
		if !isspl.IsPow2(n) {
			return fmt.Errorf("funclib: %s (kind %s): transform length %d is not a power of two", f.Name, f.Kind, n)
		}
		return nil
	}
}

// checkWindowRows is window_rows' Check: matched ports, and a window name
// isspl.Window knows — the one thing about the window Compute can refuse.
func checkWindowRows(f *model.Function) error {
	if err := checkMatchedPorts("in", "out")(f); err != nil {
		return err
	}
	if _, err := isspl.Window(isspl.WindowKind(paramContext(f).StringParam("window", "hann")), 1); err != nil {
		return fmt.Errorf("funclib: %s (kind %s): %w", f.Name, f.Kind, err)
	}
	return nil
}

// paramContext reads a model function's parameters the way Compute and Cost
// will: a Check that goes through it cannot disagree with them about a
// default or a numeric spelling.
func paramContext(f *model.Function) *Context { return &Context{Params: f.Params} }

func init() {
	register(&Impl{
		Kind: "source_matrix",
		Doc:  "Data source: synthesises a deterministic matrix data set each iteration (param seed).",
		Out:  []PortReq{{Name: "out", Stripes: anyStripe()}},
		Compute: func(ctx *Context, in, out []*Block) error {
			FillSource(out[0], int64(ctx.IntParam("seed", 1)), ctx.Iteration)
			return nil
		},
		Cost: func(ctx *Context, in, out []*Block) Cost {
			// Generation priced as one pass over the data.
			return Cost{CopyBytes: blockBytes(out[0])}
		},
	})

	register(&Impl{
		Kind: "sink_matrix",
		Doc:  "Data sink: consumes the final data set; hands blocks to the experiment collector.",
		In:   []PortReq{{Name: "in", Stripes: anyStripe()}},
		Compute: func(ctx *Context, in, out []*Block) error {
			if ctx.Sink != nil {
				ctx.Sink("in", in[0])
			}
			return nil
		},
		Cost: func(ctx *Context, in, out []*Block) Cost {
			// Latency is measured "to the time the final result is output
			// to the data sink" (§3.3): arrival is the endpoint, so the
			// sink itself only posts a completion descriptor.
			return Cost{CopyBytes: 64}
		},
	})

	register(&Impl{
		Kind:  "identity",
		Doc:   "Copies input to output unchanged (pipeline plumbing).",
		In:    []PortReq{{Name: "in", Stripes: anyStripe()}},
		Out:   []PortReq{{Name: "out", Stripes: anyStripe()}},
		Check: checkMatchedPorts("in", "out"),
		Compute: func(ctx *Context, in, out []*Block) error {
			ib, ob := in[0], out[0]
			if ib.Region != ob.Region {
				return fmt.Errorf("funclib: %s: identity regions differ: %v vs %v", ctx.FuncName, ib.Region, ob.Region)
			}
			if ob != ib {
				copy(ob.Data, ib.Data)
			}
			return nil
		},
		InPlace: true,
		Cost: func(ctx *Context, in, out []*Block) Cost {
			return Cost{CopyBytes: blockBytes(in[0])}
		},
	})

	register(&Impl{
		Kind:  "scale",
		Doc:   "Multiplies every sample by the real parameter factor.",
		In:    []PortReq{{Name: "in", Stripes: anyStripe()}},
		Out:   []PortReq{{Name: "out", Stripes: anyStripe()}},
		Check: checkMatchedPorts("in", "out"),
		Compute: func(ctx *Context, in, out []*Block) error {
			if in[0].Region != out[0].Region {
				return fmt.Errorf("funclib: %s: scale regions differ: %v vs %v",
					ctx.FuncName, in[0].Region, out[0].Region)
			}
			f := complex(ctx.FloatParam("factor", 1), 0)
			isspl.VScale(out[0].Data, in[0].Data, f)
			return nil
		},
		InPlace: true,
		Cost: func(ctx *Context, in, out []*Block) Cost {
			return Cost{Flops: isspl.VectorOpFlops(in[0].Region.Elems())}
		},
	})

	register(&Impl{
		Kind:  "mag2",
		Doc:   "Writes |x|^2 into the real part of the output (detection stage).",
		In:    []PortReq{{Name: "in", Stripes: anyStripe()}},
		Out:   []PortReq{{Name: "out", Stripes: anyStripe()}},
		Check: checkMatchedPorts("in", "out"),
		Compute: func(ctx *Context, in, out []*Block) error {
			if in[0].Region != out[0].Region {
				return fmt.Errorf("funclib: %s: mag2 regions differ: %v vs %v",
					ctx.FuncName, in[0].Region, out[0].Region)
			}
			src, dst := in[0].Data, out[0].Data
			for i := range src {
				re, im := real(src[i]), imag(src[i])
				dst[i] = complex(re*re+im*im, 0)
			}
			return nil
		},
		InPlace: true,
		Cost: func(ctx *Context, in, out []*Block) Cost {
			return Cost{Flops: 3 * float64(in[0].Region.Elems())}
		},
	})

	register(&Impl{
		Kind:  "fft_rows",
		Doc:   "In-order FFT of every local row (row-striped matrix FFT stage).",
		In:    []PortReq{{Name: "in", Stripes: []model.StripeKind{model.ByRows, model.Replicated}}},
		Out:   []PortReq{{Name: "out", Stripes: []model.StripeKind{model.ByRows, model.Replicated}}},
		Check: checkFFT(true),
		Compute: func(ctx *Context, in, out []*Block) error {
			ib, ob := in[0], out[0]
			if ib.Region != ob.Region {
				return fmt.Errorf("funclib: %s: fft_rows regions differ: %v vs %v", ctx.FuncName, ib.Region, ob.Region)
			}
			if ob != ib {
				copy(ob.Data, ib.Data)
			}
			return isspl.FFTRows(ob.Data, ob.Region.Rows, ob.Region.Cols)
		},
		InPlace: true,
		Cost: func(ctx *Context, in, out []*Block) Cost {
			r := in[0].Region
			return Cost{
				Flops:     isspl.FFTRowsFlops(r.Rows, r.Cols),
				CopyBytes: blockBytes(in[0]),
			}
		},
	})

	register(&Impl{
		Kind:  "fft_cols",
		Doc:   "FFT of every local column of a column-striped block (all columns at once, as row sweeps on row-major storage).",
		In:    []PortReq{{Name: "in", Stripes: []model.StripeKind{model.ByCols, model.Replicated}}},
		Out:   []PortReq{{Name: "out", Stripes: []model.StripeKind{model.ByCols, model.Replicated}}},
		Check: checkFFT(false),
		Compute: func(ctx *Context, in, out []*Block) error {
			ib, ob := in[0], out[0]
			if ib.Region != ob.Region {
				return fmt.Errorf("funclib: %s: fft_cols regions differ: %v vs %v", ctx.FuncName, ib.Region, ob.Region)
			}
			if ob != ib {
				CopyRegion(ob, ib, ib.Region)
			}
			rs, _ := ob.strides()
			return isspl.FFTCols(ob.Data, ob.Region.Rows, ob.Region.Cols, rs)
		},
		InPlace: true,
		Strided: true,
		Cost: func(ctx *Context, in, out []*Block) Cost {
			r := in[0].Region
			return Cost{
				Flops: isspl.FFTRowsFlops(r.Cols, r.Rows),
				// Input-to-output buffer copy plus the cache penalty of the
				// modelled library's column-strided access, priced as one
				// extra pass (the host's isspl.FFTCols sweeps rows instead).
				CopyBytes: 2 * blockBytes(in[0]),
			}
		},
	})

	register(&Impl{
		Kind:          "transpose_block",
		Doc:           "Locally transposes a column-striped block of X into a row-striped block of X^T (finishing stage of a corner turn).",
		In:            []PortReq{{Name: "in", Stripes: []model.StripeKind{model.ByCols}}},
		Out:           []PortReq{{Name: "out", Stripes: []model.StripeKind{model.ByRows}}},
		RequireSquare: true,
		Compute: func(ctx *Context, in, out []*Block) error {
			ib, ob := in[0], out[0]
			// in: all rows x c cols of X at column offset k.
			// out: c rows x all cols of X^T at row offset k.
			if ob.Region != transposed(ib.Region) {
				return fmt.Errorf("funclib: %s: transpose_block regions misaligned: in %v out %v",
					ctx.FuncName, ib.Region, ob.Region)
			}
			// Handed the transposed view of out (Transposes), in lies at its
			// place already and nothing is copied.
			CopyRegion(TransposedView(ob, ib.Region), ib, ib.Region)
			return nil
		},
		Transposes: true,
		Cost: func(ctx *Context, in, out []*Block) Cost {
			return Cost{CopyBytes: blockBytes(in[0])}
		},
	})

	register(&Impl{
		Kind:  "window_rows",
		Doc:   "Applies a tapering window (param window: rect|hann|hamming|blackman|kaiser) across every local row.",
		In:    []PortReq{{Name: "in", Stripes: []model.StripeKind{model.ByRows, model.Replicated}}},
		Out:   []PortReq{{Name: "out", Stripes: []model.StripeKind{model.ByRows, model.Replicated}}},
		Check: checkWindowRows,
		Compute: func(ctx *Context, in, out []*Block) error {
			ib, ob := in[0], out[0]
			if ib.Region != ob.Region {
				return fmt.Errorf("funclib: %s: window_rows regions differ", ctx.FuncName)
			}
			w, err := isspl.Window(isspl.WindowKind(ctx.StringParam("window", "hann")), ib.Region.Cols)
			if err != nil {
				return err
			}
			for r := 0; r < ib.Region.Rows; r++ {
				isspl.VApplyWindow(ob.Data[r*ib.Region.Cols:(r+1)*ib.Region.Cols],
					ib.Data[r*ib.Region.Cols:(r+1)*ib.Region.Cols], w)
			}
			return nil
		},
		InPlace: true,
		Cost: func(ctx *Context, in, out []*Block) Cost {
			return Cost{Flops: isspl.WindowFlops(in[0].Region.Elems())}
		},
	})

	register(&Impl{
		Kind:  "fir_rows",
		Doc:   "FIR-filters every local row with a generated lowpass (param ntaps).",
		In:    []PortReq{{Name: "in", Stripes: []model.StripeKind{model.ByRows, model.Replicated}}},
		Out:   []PortReq{{Name: "out", Stripes: []model.StripeKind{model.ByRows, model.Replicated}}},
		Check: checkMatchedPorts("in", "out"),
		Compute: func(ctx *Context, in, out []*Block) error {
			ib, ob := in[0], out[0]
			if ib.Region != ob.Region {
				return fmt.Errorf("funclib: %s: fir_rows regions differ", ctx.FuncName)
			}
			taps := LowpassTaps(ctx.IntParam("ntaps", 8))
			cols := ib.Region.Cols
			for r := 0; r < ib.Region.Rows; r++ {
				isspl.FIR(ob.Data[r*cols:(r+1)*cols], ib.Data[r*cols:(r+1)*cols], taps)
			}
			return nil
		},
		Cost: func(ctx *Context, in, out []*Block) Cost {
			return Cost{Flops: isspl.FIRFlops(in[0].Region.Elems(), ctx.IntParam("ntaps", 8))}
		},
	})
}

func init() {
	register(&Impl{
		Kind: "fir_decimate_rows",
		Doc:  "FIR-filters and decimates every local row (params ntaps, factor); output type has cols/factor columns.",
		In:   []PortReq{{Name: "in", Stripes: []model.StripeKind{model.ByRows, model.Replicated}}},
		Out:  []PortReq{{Name: "out", Stripes: []model.StripeKind{model.ByRows, model.Replicated}}},
		Check: func(f *model.Function) error {
			factor := paramContext(f).IntParam("factor", 2)
			if factor < 1 {
				return fmt.Errorf("funclib: %s: factor %d < 1", f.Name, factor)
			}
			in, out := f.Port("in").Type, f.Port("out").Type
			if in.Cols%factor != 0 || out.Cols != in.Cols/factor || out.Rows != in.Rows {
				return fmt.Errorf("funclib: %s: fir_decimate_rows wants out %dx%d for in %dx%d at factor %d",
					f.Name, in.Rows, in.Cols/factor, in.Rows, in.Cols, factor)
			}
			if f.Port("in").Striping != f.Port("out").Striping {
				return fmt.Errorf("funclib: %s: fir_decimate_rows requires matching port striping", f.Name)
			}
			return nil
		},
		Compute: func(ctx *Context, in, out []*Block) error {
			ib, ob := in[0], out[0]
			factor := ctx.IntParam("factor", 2)
			if ib.Region.Rows != ob.Region.Rows || ib.Region.R0 != ob.Region.R0 ||
				ob.Region.Cols*factor != ib.Region.Cols {
				return fmt.Errorf("funclib: %s: fir_decimate_rows regions misaligned: in %v out %v factor %d",
					ctx.FuncName, ib.Region, ob.Region, factor)
			}
			taps := LowpassTaps(ctx.IntParam("ntaps", 8))
			inCols, outCols := ib.Region.Cols, ob.Region.Cols
			for r := 0; r < ib.Region.Rows; r++ {
				n := isspl.FIRDecimate(ob.Data[r*outCols:(r+1)*outCols],
					ib.Data[r*inCols:(r+1)*inCols], taps, factor)
				if n != outCols {
					return fmt.Errorf("funclib: %s: decimation produced %d of %d samples", ctx.FuncName, n, outCols)
				}
			}
			return nil
		},
		Cost: func(ctx *Context, in, out []*Block) Cost {
			return Cost{Flops: isspl.FIRFlops(out[0].Region.Elems(), ctx.IntParam("ntaps", 8))}
		},
	})
}

func init() {
	register(&Impl{
		Kind: "add2",
		Doc:  "Elementwise sum of two equally-typed inputs (fan-in combiner for DAG applications).",
		In:   []PortReq{{Name: "a", Stripes: anyStripe()}, {Name: "b", Stripes: anyStripe()}},
		Out:  []PortReq{{Name: "out", Stripes: anyStripe()}},
		Check: func(f *model.Function) error {
			a, b, out := f.Port("a"), f.Port("b"), f.Port("out")
			for _, p := range []*model.Port{b, out} {
				if p.Type.Rows != a.Type.Rows || p.Type.Cols != a.Type.Cols || p.Type.Elem != a.Type.Elem {
					return fmt.Errorf("funclib: %s: add2 ports must share one shape, got %dx%d vs %dx%d",
						f.Name, a.Type.Rows, a.Type.Cols, p.Type.Rows, p.Type.Cols)
				}
				if p.Striping != a.Striping {
					return fmt.Errorf("funclib: %s: add2 ports must share one striping (threads combine their local regions), got %q vs %q",
						f.Name, a.Striping, p.Striping)
				}
			}
			return nil
		},
		Compute: func(ctx *Context, in, out []*Block) error {
			a, b, ob := in[0], in[1], out[0]
			if a.Region != ob.Region || b.Region != ob.Region {
				return fmt.Errorf("funclib: %s: add2 regions differ: a %v b %v out %v",
					ctx.FuncName, a.Region, b.Region, ob.Region)
			}
			isspl.VAdd(ob.Data, a.Data, b.Data)
			return nil
		},
		Cost: func(ctx *Context, in, out []*Block) Cost {
			return Cost{Flops: isspl.VectorOpFlops(out[0].Region.Elems())}
		},
	})
}

// LowpassTaps generates a deterministic n-tap Hamming-windowed moving
// average used by the fir_rows kind (the exact response is irrelevant to the
// benchmarks; determinism is what matters).
func LowpassTaps(n int) []float64 {
	if n < 1 {
		n = 1
	}
	w, err := isspl.Window(isspl.WindowHamming, n)
	if err != nil {
		panic(err)
	}
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

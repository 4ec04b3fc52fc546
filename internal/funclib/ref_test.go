package funclib

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/model"
)

// Table-driven verification of every primitive op against naive references
// written directly from the defining formulas (an O(n^2) DFT sum, a direct
// convolution, the window equations), over edge shapes: 1x1, single row,
// single column, and non-power-of-two extents wherever the kind permits them.

// refShapes are the elementwise edge shapes.
var refShapes = []struct{ rows, cols int }{
	{1, 1}, {1, 7}, {7, 1}, {5, 6}, {4, 4},
}

// refInput builds a whole-matrix block with deterministic, irregular values.
func refInput(rows, cols int) *Block {
	b := NewBlock(model.Region{Rows: rows, Cols: cols})
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.Set(r, c, SourceValue(7, 0, r, c))
		}
	}
	return b
}

// computeWhole runs one kind single-threaded on whole matrices.
func computeWhole(t *testing.T, kind string, params map[string]any, in []*Block, outRows, outCols int) *Block {
	t.Helper()
	im, err := Lookup(kind)
	if err != nil {
		t.Fatal(err)
	}
	out := NewBlock(model.Region{Rows: outRows, Cols: outCols})
	ctx := &Context{FuncName: "ref_" + kind, Params: params, Thread: 0, Threads: 1}
	if err := im.Compute(ctx, in, []*Block{out}); err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	return out
}

func wantClose(t *testing.T, kind string, got, want *Block, tol float64) {
	t.Helper()
	if got.Region != want.Region {
		t.Fatalf("%s: region %v, want %v", kind, got.Region, want.Region)
	}
	for i := range want.Data {
		if d := cmplx.Abs(got.Data[i] - want.Data[i]); d > tol {
			t.Fatalf("%s %dx%d: sample %d = %v, want %v (|diff| %g > %g)",
				kind, want.Region.Rows, want.Region.Cols, i, got.Data[i], want.Data[i], d, tol)
		}
	}
}

func TestIdentityRef(t *testing.T) {
	for _, s := range refShapes {
		in := refInput(s.rows, s.cols)
		got := computeWhole(t, "identity", nil, []*Block{in}, s.rows, s.cols)
		wantClose(t, "identity", got, in, 0)
	}
}

func TestScaleRef(t *testing.T) {
	for _, s := range refShapes {
		for _, factor := range []float64{0, 1, -2.5} {
			in := refInput(s.rows, s.cols)
			got := computeWhole(t, "scale", map[string]any{"factor": factor},
				[]*Block{in}, s.rows, s.cols)
			want := NewBlock(in.Region)
			for i, v := range in.Data {
				want.Data[i] = complex(factor, 0) * v
			}
			wantClose(t, "scale", got, want, 0)
		}
	}
}

func TestMag2Ref(t *testing.T) {
	for _, s := range refShapes {
		in := refInput(s.rows, s.cols)
		got := computeWhole(t, "mag2", nil, []*Block{in}, s.rows, s.cols)
		want := NewBlock(in.Region)
		for i, v := range in.Data {
			want.Data[i] = complex(real(v)*real(v)+imag(v)*imag(v), 0)
		}
		wantClose(t, "mag2", got, want, 0)
	}
}

func TestAdd2Ref(t *testing.T) {
	for _, s := range refShapes {
		a := refInput(s.rows, s.cols)
		b := NewBlock(a.Region)
		for i := range b.Data {
			b.Data[i] = SourceValue(11, 0, i, i+1)
		}
		got := computeWhole(t, "add2", nil, []*Block{a, b}, s.rows, s.cols)
		want := NewBlock(a.Region)
		for i := range want.Data {
			want.Data[i] = a.Data[i] + b.Data[i]
		}
		wantClose(t, "add2", got, want, 0)
	}
}

// naiveDFT is the O(n^2) definition X[k] = sum_n x[n] e^{-2πi kn/N}.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for j := 0; j < n; j++ {
			angle := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			acc += x[j] * cmplx.Exp(complex(0, angle))
		}
		out[k] = acc
	}
	return out
}

func TestFFTRowsRef(t *testing.T) {
	// Rows may be anything; cols must be a power of two (including 1).
	for _, s := range []struct{ rows, cols int }{{1, 1}, {1, 8}, {4, 1}, {3, 4}, {5, 8}, {7, 2}} {
		in := refInput(s.rows, s.cols)
		got := computeWhole(t, "fft_rows", nil, []*Block{in}, s.rows, s.cols)
		want := NewBlock(in.Region)
		for r := 0; r < s.rows; r++ {
			copy(want.Data[r*s.cols:(r+1)*s.cols], naiveDFT(in.Data[r*s.cols:(r+1)*s.cols]))
		}
		wantClose(t, "fft_rows", got, want, 1e-9*float64(s.cols))
	}
}

func TestFFTColsRef(t *testing.T) {
	// Cols may be anything; rows must be a power of two (including 1).
	for _, s := range []struct{ rows, cols int }{{1, 1}, {8, 1}, {1, 5}, {4, 3}, {2, 7}, {8, 6}} {
		in := refInput(s.rows, s.cols)
		got := computeWhole(t, "fft_cols", nil, []*Block{in}, s.rows, s.cols)
		want := NewBlock(in.Region)
		for c := 0; c < s.cols; c++ {
			col := make([]complex128, s.rows)
			for r := 0; r < s.rows; r++ {
				col[r] = in.At(r, c)
			}
			for r, v := range naiveDFT(col) {
				want.Set(r, c, v)
			}
		}
		wantClose(t, "fft_cols", got, want, 1e-9*float64(s.rows))
	}
}

func TestTransposeBlockRef(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		in := refInput(n, n)
		got := computeWhole(t, "transpose_block", nil, []*Block{in}, n, n)
		want := NewBlock(in.Region)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				want.Set(c, r, in.At(r, c))
			}
		}
		wantClose(t, "transpose_block", got, want, 0)
	}
}

// refWindow evaluates the periodic window equations straight from their
// definitions (independently of isspl.Window).
func refWindow(kind string, n, i int) float64 {
	t := 2 * math.Pi * float64(i) / float64(n)
	switch kind {
	case "rect":
		return 1
	case "hann":
		return 0.5 - 0.5*math.Cos(t)
	case "hamming":
		return 0.54 - 0.46*math.Cos(t)
	case "blackman":
		return 0.42 - 0.5*math.Cos(t) + 0.08*math.Cos(2*t)
	}
	panic("unknown window " + kind)
}

func TestWindowRowsRef(t *testing.T) {
	for _, kind := range []string{"rect", "hann", "hamming", "blackman"} {
		for _, s := range []struct{ rows, cols int }{{1, 1}, {1, 5}, {3, 1}, {4, 6}} {
			in := refInput(s.rows, s.cols)
			got := computeWhole(t, "window_rows", map[string]any{"window": kind},
				[]*Block{in}, s.rows, s.cols)
			want := NewBlock(in.Region)
			for r := 0; r < s.rows; r++ {
				for c := 0; c < s.cols; c++ {
					want.Set(r, c, in.At(r, c)*complex(refWindow(kind, s.cols, c), 0))
				}
			}
			wantClose(t, "window_rows("+kind+")", got, want, 1e-12)
		}
	}
}

// naiveFIR is y[n] = sum_k taps[k] * x[n-k] with zero-padded history,
// accumulated in the same k-ascending order the library uses so agreement is
// exact.
func naiveFIR(x []complex128, taps []float64) []complex128 {
	out := make([]complex128, len(x))
	for n := range x {
		var acc complex128
		for k, tap := range taps {
			if n-k >= 0 {
				acc += complex(tap, 0) * x[n-k]
			}
		}
		out[n] = acc
	}
	return out
}

func TestFIRRowsRef(t *testing.T) {
	for _, ntaps := range []int{1, 3, 8} {
		for _, s := range []struct{ rows, cols int }{{1, 1}, {2, 5}, {3, 9}, {1, 12}} {
			in := refInput(s.rows, s.cols)
			got := computeWhole(t, "fir_rows", map[string]any{"ntaps": ntaps},
				[]*Block{in}, s.rows, s.cols)
			taps := LowpassTaps(ntaps)
			want := NewBlock(in.Region)
			for r := 0; r < s.rows; r++ {
				copy(want.Data[r*s.cols:(r+1)*s.cols], naiveFIR(in.Data[r*s.cols:(r+1)*s.cols], taps))
			}
			wantClose(t, fmt.Sprintf("fir_rows(ntaps=%d)", ntaps), got, want, 0)
		}
	}
}

func TestFIRDecimateRowsRef(t *testing.T) {
	for _, tc := range []struct{ rows, cols, factor, ntaps int }{
		{2, 6, 2, 3}, {1, 8, 4, 5}, {3, 6, 3, 8}, {1, 1, 1, 2}, {4, 4, 4, 1},
	} {
		in := refInput(tc.rows, tc.cols)
		outCols := tc.cols / tc.factor
		got := computeWhole(t, "fir_decimate_rows",
			map[string]any{"ntaps": tc.ntaps, "factor": tc.factor},
			[]*Block{in}, tc.rows, outCols)
		taps := LowpassTaps(tc.ntaps)
		want := NewBlock(model.Region{Rows: tc.rows, Cols: outCols})
		for r := 0; r < tc.rows; r++ {
			full := naiveFIR(in.Data[r*tc.cols:(r+1)*tc.cols], taps)
			for j := 0; j < outCols; j++ {
				want.Data[r*outCols+j] = full[j*tc.factor]
			}
		}
		wantClose(t, fmt.Sprintf("fir_decimate_rows(f=%d)", tc.factor), got, want, 0)
	}
}

// TestStripedMatchesWhole runs the row-local kinds thread-by-thread over
// ByRows partitions and demands bitwise agreement with the single-threaded
// whole-matrix result — the property the distributed runtime leans on when it
// splits a function across nodes.
func TestStripedMatchesWhole(t *testing.T) {
	const rows, cols = 7, 8
	kinds := []struct {
		kind   string
		params map[string]any
	}{
		{"identity", nil},
		{"scale", map[string]any{"factor": 1.5}},
		{"mag2", nil},
		{"fft_rows", nil},
		{"window_rows", map[string]any{"window": "hamming"}},
		{"fir_rows", map[string]any{"ntaps": 4}},
	}
	for _, k := range kinds {
		whole := computeWhole(t, k.kind, k.params,
			[]*Block{refInput(rows, cols)}, rows, cols)
		for _, threads := range []int{2, 3, 7} {
			im, err := Lookup(k.kind)
			if err != nil {
				t.Fatal(err)
			}
			got := NewBlock(model.Region{Rows: rows, Cols: cols})
			for th := 0; th < threads; th++ {
				reg, err := model.Partition(model.ByRows, rows, cols, threads, th)
				if err != nil {
					t.Fatal(err)
				}
				in := NewBlock(reg)
				for r := reg.R0; r < reg.R0+reg.Rows; r++ {
					for c := 0; c < cols; c++ {
						in.Set(r, c, SourceValue(7, 0, r, c))
					}
				}
				out := NewBlock(reg)
				ctx := &Context{FuncName: "striped", Params: k.params, Thread: th, Threads: threads}
				if err := im.Compute(ctx, []*Block{in}, []*Block{out}); err != nil {
					t.Fatalf("%s threads=%d: %v", k.kind, threads, err)
				}
				for r := reg.R0; r < reg.R0+reg.Rows; r++ {
					for c := 0; c < cols; c++ {
						got.Set(r, c, out.At(r, c))
					}
				}
			}
			wantClose(t, fmt.Sprintf("%s striped x%d", k.kind, threads), got, whole, 0)
		}
	}
}

// TestStripingMismatchRejected locks the validation fix for the class of
// model the runtime cannot execute: an elementwise kind whose input and
// output ports declare different stripings (the per-thread regions diverge;
// mag2 used to panic at dispatch). Redistribution belongs on arcs.
func TestStripingMismatchRejected(t *testing.T) {
	for _, kind := range []string{"identity", "scale", "mag2", "fft_rows", "window_rows", "fir_rows"} {
		app := model.NewApp("mismatch")
		mt, err := app.AddType(&model.DataType{Name: "m4x4", Rows: 4, Cols: 4, Elem: model.ElemComplex})
		if err != nil {
			t.Fatal(err)
		}
		f := app.AddFunction(&model.Function{Name: "f", Kind: kind, Threads: 2})
		inStripe, outStripe := model.ByRows, model.Replicated
		f.AddInput("in", mt, inStripe)
		f.AddOutput("out", mt, outStripe)
		if err := ValidateFunction(f); err == nil {
			t.Errorf("%s: striping mismatch %s -> %s not rejected", kind, inStripe, outStripe)
		}
	}
	// add2 demands one striping across all three ports.
	app := model.NewApp("mismatch2")
	mt, _ := app.AddType(&model.DataType{Name: "m4x4", Rows: 4, Cols: 4, Elem: model.ElemComplex})
	f := app.AddFunction(&model.Function{Name: "f", Kind: "add2", Threads: 2})
	f.AddInput("a", mt, model.ByRows)
	f.AddInput("b", mt, model.ByCols)
	f.AddOutput("out", mt, model.ByRows)
	if err := ValidateFunction(f); err == nil {
		t.Error("add2: operand striping mismatch not rejected")
	}
}

// TestElementwiseShapeMismatchRejected locks the companion shape rule.
func TestElementwiseShapeMismatchRejected(t *testing.T) {
	app := model.NewApp("shape")
	t4, _ := app.AddType(&model.DataType{Name: "m4x4", Rows: 4, Cols: 4, Elem: model.ElemComplex})
	t8, _ := app.AddType(&model.DataType{Name: "m4x8", Rows: 4, Cols: 8, Elem: model.ElemComplex})
	f := app.AddFunction(&model.Function{Name: "f", Kind: "scale", Threads: 1})
	f.AddInput("in", t4, model.Replicated)
	f.AddOutput("out", t8, model.Replicated)
	if err := ValidateFunction(f); err == nil {
		t.Error("scale: in 4x4 -> out 4x8 not rejected")
	}
}

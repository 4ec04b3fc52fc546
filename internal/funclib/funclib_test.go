package funclib

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isspl"
	"repro/internal/model"
)

func TestKindsRegistered(t *testing.T) {
	want := []string{"add2", "fft_cols", "fft_rows", "fir_decimate_rows", "fir_rows", "identity",
		"mag2", "scale", "sink_matrix", "source_matrix", "transpose_block", "window_rows"}
	got := Kinds()
	if len(got) != len(want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", got, want)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("warp_drive"); err == nil {
		t.Fatal("unknown kind accepted")
	}
	im, err := Lookup("fft_rows")
	if err != nil || im.Kind != "fft_rows" {
		t.Fatalf("lookup fft_rows: %v", err)
	}
}

func TestSourceValueDeterministicAndBounded(t *testing.T) {
	a := SourceValue(7, 3, 10, 20)
	b := SourceValue(7, 3, 10, 20)
	if a != b {
		t.Fatal("SourceValue not deterministic")
	}
	if SourceValue(7, 3, 10, 21) == a && SourceValue(7, 4, 10, 20) == a {
		t.Fatal("SourceValue ignores coordinates")
	}
	check := func(seed int64, it, r, c uint16) bool {
		v := SourceValue(seed, int(it), int(r), int(c))
		return real(v) >= -1 && real(v) < 1 && imag(v) >= -1 && imag(v) < 1 &&
			!math.IsNaN(real(v)) && !math.IsNaN(imag(v))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFillSourceRegionIndependence(t *testing.T) {
	// Filling a sub-region yields the same values as the corresponding
	// part of the whole: threads can generate their slices independently.
	whole := NewBlock(model.Region{Rows: 8, Cols: 8})
	FillSource(whole, 5, 2)
	part := NewBlock(model.Region{R0: 2, C0: 4, Rows: 3, Cols: 2})
	FillSource(part, 5, 2)
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			if part.At(2+i, 4+j) != whole.At(2+i, 4+j) {
				t.Fatalf("region fill differs at (%d,%d)", 2+i, 4+j)
			}
		}
	}
}

func TestBlockAtSet(t *testing.T) {
	b := NewBlock(model.Region{R0: 4, C0: 2, Rows: 2, Cols: 3})
	if len(b.Data) != 6 {
		t.Fatalf("block data len %d", len(b.Data))
	}
	b.Set(5, 4, 9i)
	if b.At(5, 4) != 9i || b.Data[1*3+2] != 9i {
		t.Fatal("At/Set addressing wrong")
	}
}

func computeKind(t *testing.T, kind string, ctx *Context, in, out []*Block) {
	t.Helper()
	im, err := Lookup(kind)
	if err != nil {
		t.Fatal(err)
	}
	if err := im.Compute(ctx, in, out); err != nil {
		t.Fatal(err)
	}
	c := im.Cost(ctx, in, out)
	if c.Flops < 0 || c.CopyBytes < 0 {
		t.Fatalf("negative cost %+v", c)
	}
	if c.Flops == 0 && c.CopyBytes == 0 {
		t.Fatalf("kind %s has zero cost", kind)
	}
}

func TestFFTRowsKind(t *testing.T) {
	reg := model.Region{R0: 2, Rows: 3, Cols: 8}
	in, out := NewBlock(reg), NewBlock(reg)
	FillSource(in, 1, 0)
	computeKind(t, "fft_rows", &Context{FuncName: "f"}, []*Block{in}, []*Block{out})
	for r := 0; r < 3; r++ {
		want := isspl.DFT(in.Data[r*8 : (r+1)*8])
		if isspl.MaxDiff(out.Data[r*8:(r+1)*8], want) > 1e-9 {
			t.Fatalf("row %d FFT wrong", r)
		}
	}
}

func TestFFTColsKind(t *testing.T) {
	reg := model.Region{C0: 4, Rows: 8, Cols: 3}
	in, out := NewBlock(reg), NewBlock(reg)
	FillSource(in, 2, 0)
	computeKind(t, "fft_cols", &Context{FuncName: "f"}, []*Block{in}, []*Block{out})
	col := make([]complex128, 8)
	for j := 0; j < 3; j++ {
		for i := 0; i < 8; i++ {
			col[i] = in.Data[i*3+j]
		}
		want := isspl.DFT(col)
		for i := 0; i < 8; i++ {
			if d := out.Data[i*3+j] - want[i]; real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
				t.Fatalf("col %d FFT wrong at %d", j, i)
			}
		}
	}
}

func TestTransposeBlockKind(t *testing.T) {
	// 8x8 matrix, thread 1 of 2: in = all rows, cols [4,8); out = rows
	// [4,8) of X^T, all cols.
	inReg := model.Region{C0: 4, Rows: 8, Cols: 4}
	outReg := model.Region{R0: 4, Rows: 4, Cols: 8}
	in, out := NewBlock(inReg), NewBlock(outReg)
	FillSource(in, 3, 0)
	computeKind(t, "transpose_block", &Context{FuncName: "f"}, []*Block{in}, []*Block{out})
	for i := 0; i < 8; i++ {
		for j := 4; j < 8; j++ {
			// X^T[j][i] == X[i][j]
			if out.At(j, i) != in.At(i, j) {
				t.Fatalf("transpose wrong at in(%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeBlockMisalignedRegions(t *testing.T) {
	im, _ := Lookup("transpose_block")
	in := NewBlock(model.Region{C0: 0, Rows: 8, Cols: 4})
	out := NewBlock(model.Region{R0: 4, Rows: 4, Cols: 8}) // wrong offset
	err := im.Compute(&Context{FuncName: "f"}, []*Block{in}, []*Block{out})
	if err == nil {
		t.Fatal("misaligned regions accepted")
	}
}

func TestIdentityAndScaleAndMag2(t *testing.T) {
	reg := model.Region{Rows: 4, Cols: 4}
	in := NewBlock(reg)
	FillSource(in, 4, 0)

	out := NewBlock(reg)
	computeKind(t, "identity", &Context{}, []*Block{in}, []*Block{out})
	if isspl.MaxDiff(out.Data, in.Data) != 0 {
		t.Fatal("identity changed data")
	}

	out2 := NewBlock(reg)
	computeKind(t, "scale", &Context{Params: map[string]any{"factor": 2.0}},
		[]*Block{in}, []*Block{out2})
	for i := range in.Data {
		if out2.Data[i] != 2*in.Data[i] {
			t.Fatal("scale wrong")
		}
	}

	out3 := NewBlock(reg)
	computeKind(t, "mag2", &Context{}, []*Block{in}, []*Block{out3})
	for i := range in.Data {
		re, im := real(in.Data[i]), imag(in.Data[i])
		if math.Abs(real(out3.Data[i])-(re*re+im*im)) > 1e-15 || imag(out3.Data[i]) != 0 {
			t.Fatal("mag2 wrong")
		}
	}
}

func TestWindowAndFIRKinds(t *testing.T) {
	reg := model.Region{Rows: 2, Cols: 16}
	in := NewBlock(reg)
	FillSource(in, 5, 0)

	out := NewBlock(reg)
	computeKind(t, "window_rows", &Context{Params: map[string]any{"window": "hamming"}},
		[]*Block{in}, []*Block{out})
	w, _ := isspl.Window(isspl.WindowHamming, 16)
	if out.Data[0] != in.Data[0]*complex(w[0], 0) {
		t.Fatal("window_rows wrong")
	}

	out2 := NewBlock(reg)
	computeKind(t, "fir_rows", &Context{Params: map[string]any{"ntaps": 4}},
		[]*Block{in}, []*Block{out2})
	taps := LowpassTaps(4)
	want := make([]complex128, 16)
	isspl.FIR(want, in.Data[:16], taps)
	if isspl.MaxDiff(out2.Data[:16], want) > 1e-12 {
		t.Fatal("fir_rows wrong")
	}
}

func TestWindowRowsBadWindowErrors(t *testing.T) {
	im, _ := Lookup("window_rows")
	reg := model.Region{Rows: 1, Cols: 4}
	err := im.Compute(&Context{Params: map[string]any{"window": "bogus"}},
		[]*Block{NewBlock(reg)}, []*Block{NewBlock(reg)})
	if err == nil {
		t.Fatal("bogus window accepted")
	}
}

func TestFIRDecimateRowsKind(t *testing.T) {
	inReg := model.Region{R0: 2, Rows: 2, Cols: 16}
	outReg := model.Region{R0: 2, Rows: 2, Cols: 4}
	in, out := NewBlock(inReg), NewBlock(outReg)
	FillSource(in, 8, 0)
	ctx := &Context{FuncName: "d", Params: map[string]any{"ntaps": 3, "factor": 4}}
	computeKind(t, "fir_decimate_rows", ctx, []*Block{in}, []*Block{out})
	taps := LowpassTaps(3)
	want := make([]complex128, 4)
	isspl.FIRDecimate(want, in.Data[:16], taps, 4)
	if isspl.MaxDiff(out.Data[:4], want) > 1e-12 {
		t.Fatal("decimated output wrong")
	}
	// Misaligned regions rejected.
	im, _ := Lookup("fir_decimate_rows")
	bad := NewBlock(model.Region{R0: 2, Rows: 2, Cols: 5})
	if err := im.Compute(ctx, []*Block{in}, []*Block{bad}); err == nil {
		t.Fatal("misaligned decimation accepted")
	}
}

func TestFIRDecimateRowsValidation(t *testing.T) {
	a := model.NewApp("x")
	inT, _ := a.AddType(&model.DataType{Name: "in", Rows: 8, Cols: 16, Elem: model.ElemComplex})
	outT, _ := a.AddType(&model.DataType{Name: "out", Rows: 8, Cols: 4, Elem: model.ElemComplex})
	good := &model.Function{Name: "d", Kind: "fir_decimate_rows", Threads: 2,
		Params: map[string]any{"factor": 4}}
	good.AddInput("in", inT, model.ByRows)
	good.AddOutput("out", outT, model.ByRows)
	if err := ValidateFunction(good); err != nil {
		t.Fatal(err)
	}
	// Wrong output width for the factor.
	bad := &model.Function{Name: "e", Kind: "fir_decimate_rows", Threads: 2,
		Params: map[string]any{"factor": 2}}
	bad.AddInput("in", inT, model.ByRows)
	bad.AddOutput("out", outT, model.ByRows)
	if err := ValidateFunction(bad); err == nil {
		t.Fatal("wrong decimated shape accepted")
	}
	// Mismatched striping.
	bad2 := &model.Function{Name: "f", Kind: "fir_decimate_rows", Threads: 1,
		Params: map[string]any{"factor": 4}}
	bad2.AddInput("in", inT, model.ByRows)
	bad2.AddOutput("out", outT, model.Replicated)
	if err := ValidateFunction(bad2); err == nil {
		t.Fatal("mismatched striping accepted")
	}
	// Non-positive factor.
	bad3 := &model.Function{Name: "g", Kind: "fir_decimate_rows", Threads: 1,
		Params: map[string]any{"factor": 0}}
	bad3.AddInput("in", inT, model.ByRows)
	bad3.AddOutput("out", outT, model.ByRows)
	if err := ValidateFunction(bad3); err == nil {
		t.Fatal("factor 0 accepted")
	}
}

func TestSinkDeliversToCollector(t *testing.T) {
	im, _ := Lookup("sink_matrix")
	reg := model.Region{Rows: 2, Cols: 2}
	in := NewBlock(reg)
	FillSource(in, 6, 0)
	var got *Block
	ctx := &Context{Sink: func(port string, b *Block) {
		if port == "in" {
			got = b
		}
	}}
	if err := im.Compute(ctx, []*Block{in}, nil); err != nil {
		t.Fatal(err)
	}
	if got != in {
		t.Fatal("sink did not deliver block")
	}
	// Without a collector it must not crash.
	if err := im.Compute(&Context{}, []*Block{in}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLowpassTapsNormalised(t *testing.T) {
	taps := LowpassTaps(8)
	sum := 0.0
	for _, v := range taps {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("taps sum to %v", sum)
	}
	if len(LowpassTaps(0)) != 1 {
		t.Fatal("degenerate tap count not clamped")
	}
}

func TestContextParamHelpers(t *testing.T) {
	ctx := &Context{Params: map[string]any{"i": 5, "f": 2.5, "s": "hi", "fi": 3.0}}
	if ctx.IntParam("i", 0) != 5 || ctx.IntParam("fi", 0) != 3 || ctx.IntParam("missing", 7) != 7 {
		t.Fatal("IntParam")
	}
	if ctx.FloatParam("f", 0) != 2.5 || ctx.FloatParam("i", 0) != 5 || ctx.FloatParam("missing", 1.5) != 1.5 {
		t.Fatal("FloatParam")
	}
	if ctx.StringParam("s", "") != "hi" || ctx.StringParam("missing", "d") != "d" {
		t.Fatal("StringParam")
	}
}

func TestValidateFunction(t *testing.T) {
	a := model.NewApp("x")
	mt, _ := a.AddType(&model.DataType{Name: "m", Rows: 8, Cols: 8, Elem: model.ElemComplex})

	good := &model.Function{Name: "f", Kind: "fft_rows", Threads: 2}
	good.AddInput("in", mt, model.ByRows)
	good.AddOutput("out", mt, model.ByRows)
	if err := ValidateFunction(good); err != nil {
		t.Fatal(err)
	}

	badStripe := &model.Function{Name: "g", Kind: "fft_rows", Threads: 2}
	badStripe.AddInput("in", mt, model.ByCols)
	badStripe.AddOutput("out", mt, model.ByRows)
	if err := ValidateFunction(badStripe); err == nil || !strings.Contains(err.Error(), "striping") {
		t.Fatalf("err = %v", err)
	}

	missingPort := &model.Function{Name: "h", Kind: "fft_rows", Threads: 2}
	missingPort.AddInput("in", mt, model.ByRows)
	if err := ValidateFunction(missingPort); err == nil {
		t.Fatal("missing port accepted")
	}

	wrongName := &model.Function{Name: "i", Kind: "fft_rows", Threads: 2}
	wrongName.AddInput("data", mt, model.ByRows)
	wrongName.AddOutput("out", mt, model.ByRows)
	if err := ValidateFunction(wrongName); err == nil {
		t.Fatal("wrong port name accepted")
	}

	unknown := &model.Function{Name: "j", Kind: "nope", Threads: 1}
	if err := ValidateFunction(unknown); err == nil {
		t.Fatal("unknown kind accepted")
	}

	rect, _ := a.AddType(&model.DataType{Name: "r", Rows: 8, Cols: 4, Elem: model.ElemComplex})
	nonSquare := &model.Function{Name: "k", Kind: "transpose_block", Threads: 2}
	nonSquare.AddInput("in", rect, model.ByCols)
	nonSquare.AddOutput("out", rect, model.ByRows)
	if err := ValidateFunction(nonSquare); err == nil || !strings.Contains(err.Error(), "square") {
		t.Fatalf("err = %v", err)
	}
}

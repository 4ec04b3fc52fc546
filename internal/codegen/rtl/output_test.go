package rtl

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/isspl"
)

// referenceText is the renderer WriteText replaced, kept as the definition of
// the "sage-exec-output v1" format: one fmt.Fprintf per sample.
func referenceText(w io.Writer, r *Result) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s\napp %s\niterations %d\n", outputHeader, r.App, len(r.Iters))
	for i, outputs := range r.Iters {
		fmt.Fprintf(bw, "iteration %d\n", i)
		names := make([]string, 0, len(outputs))
		for name := range outputs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := outputs[name]
			fmt.Fprintf(bw, "sink %s %d %d\n", name, m.Rows, m.Cols)
			for _, v := range m.Data {
				fmt.Fprintf(bw, "%016x %016x\n", math.Float64bits(real(v)), math.Float64bits(imag(v)))
			}
		}
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

// awkwardBits are the float64 patterns a decimal rendering would lose — signed
// zeros, infinities, quiet and signalling NaNs with payload bits, the
// smallest and largest subnormals, the extremes — and the ones an encoder
// working on eight digits at once could get wrong: every digit in both
// orders, and words that sit on the '9'/'a' boundary in every position.
var awkwardBits = []uint64{
	0x0000000000000000, 0x8000000000000000, // +0, -0
	0x7ff0000000000000, 0xfff0000000000000, // +Inf, -Inf
	0x7ff8000000000001, 0xfff8dead0000beef, 0x7ff0000000000001, // NaN payloads
	0x0000000000000001, 0x800fffffffffffff, 0x000123456789abcd, // subnormals
	0x7fefffffffffffff, 0x0010000000000000, 0xffffffffffffffff,
	0x0123456789abcdef, 0xfedcba9876543210, // every digit, ascending and descending
	0x9999999999999999, 0xaaaaaaaaaaaaaaaa, 0x9a9a9a9aa9a9a9a9, 0x0f0f0f0ff0f0f0f0,
}

// awkwardResult pairs every awkward pattern with every other, once as the
// real and once as the imaginary part.
func awkwardResult() *Result {
	n := len(awkwardBits)
	m := isspl.NewMatrix(n, n)
	for i, re := range awkwardBits {
		for j, im := range awkwardBits {
			m.Data[i*n+j] = complex(math.Float64frombits(re), math.Float64frombits(im))
		}
	}
	return &Result{App: "awkward", Iters: []map[string]*isspl.Matrix{{"snk": m}}}
}

// randomResult builds a multi-sink, multi-iteration result whose samples mix
// uniform random bit patterns with the awkward ones.
func randomResult(rng *rand.Rand, iters int) *Result {
	bits := func() float64 {
		if rng.Intn(4) == 0 {
			return math.Float64frombits(awkwardBits[rng.Intn(len(awkwardBits))])
		}
		return math.Float64frombits(rng.Uint64())
	}
	res := &Result{App: "format lock"}
	for i := 0; i < iters; i++ {
		outputs := map[string]*isspl.Matrix{}
		for _, name := range []string{"zeta", "alpha", "mid"}[:1+rng.Intn(3)] {
			m := isspl.NewMatrix(1+rng.Intn(70), 1+rng.Intn(70))
			for s := range m.Data {
				m.Data[s] = complex(bits(), bits())
			}
			outputs[name] = m
		}
		res.Iters = append(res.Iters, outputs)
	}
	return res
}

// TestWriteTextFormatLock holds the hex encoder to the fmt renderer byte for
// byte — across chunk-buffer boundaries — and the text to a bitwise round
// trip through ParseText.
func TestWriteTextFormatLock(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 21; trial++ {
		res := awkwardResult() // trial 0; the rest are random
		if trial > 0 {
			res = randomResult(rng, rng.Intn(4))
		}
		var want, got bytes.Buffer
		if err := referenceText(&want, res); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteText(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("trial %d: WriteText differs from the fmt reference (%d vs %d bytes)", trial, got.Len(), want.Len())
		}
		back, err := ParseText(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if back.App != res.App || len(back.Iters) != len(res.Iters) {
			t.Fatalf("trial %d: round trip lost identity: %q, %d iterations", trial, back.App, len(back.Iters))
		}
		for i, outputs := range res.Iters {
			if len(back.Iters[i]) != len(outputs) {
				t.Fatalf("trial %d iteration %d: %d sinks, want %d", trial, i, len(back.Iters[i]), len(outputs))
			}
			for name, m := range outputs {
				b := back.Iters[i][name]
				if b == nil || b.Rows != m.Rows || b.Cols != m.Cols {
					t.Fatalf("trial %d iteration %d sink %s: shape lost", trial, i, name)
				}
				for s, v := range m.Data {
					if math.Float64bits(real(v)) != math.Float64bits(real(b.Data[s])) ||
						math.Float64bits(imag(v)) != math.Float64bits(imag(b.Data[s])) {
						t.Fatalf("trial %d iteration %d sink %s sample %d: bits changed in round trip", trial, i, name, s)
					}
				}
			}
		}
	}
}

// failAfter accepts n writes and fails the next.
type failAfter struct{ n int }

var errSinkFull = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n == 0 {
		return 0, errSinkFull
	}
	f.n--
	return len(p), nil
}

func TestWriteTextReportsWriteErrors(t *testing.T) {
	res := &Result{App: "big", Iters: []map[string]*isspl.Matrix{{"snk": isspl.NewMatrix(64, 64)}}}
	for n := 0; n < 3; n++ { // two full chunks, then the final partial one
		if err := res.WriteText(&failAfter{n: n}); !errors.Is(err, errSinkFull) {
			t.Fatalf("write %d failed but WriteText returned %v", n, err)
		}
	}
}

// TestAllocCeilingWriteText: rendering costs a chunk buffer, a name list and
// the header arguments, not an allocation per sample.
func TestAllocCeilingWriteText(t *testing.T) {
	res := &Result{App: "alloc"}
	for i := 0; i < 2; i++ {
		res.Iters = append(res.Iters, map[string]*isspl.Matrix{"snk": isspl.NewMatrix(128, 128)})
	}
	avg := testing.AllocsPerRun(5, func() {
		if err := res.WriteText(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 16 { // 5 measured, about twice that under the race detector
		t.Fatalf("WriteText of %d samples allocates %.0f times, want <= 16", 2*128*128, avg)
	}
}

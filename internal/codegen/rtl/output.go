package rtl

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/isspl"
)

// outputHeader identifies the canonical text format; bump on change.
const outputHeader = "sage-exec-output v1"

// WriteText renders the result in the canonical machine-readable form the
// differential drivers byte-compare: sinks in sorted name order, one sample
// per line as the hex IEEE-754 bit patterns of the real and imaginary parts.
// Bit patterns — not decimal renderings — so equality of the text is exactly
// bitwise equality of the samples. Wall-clock time is deliberately excluded:
// everything written here must be identical between the in-process and the
// compiled execution of the same program.
func (r *Result) WriteText(w io.Writer) error {
	// One chunk buffer for the whole rendering, handed to w each time it
	// fills: 1.3 M sample lines cost a handful of allocations.
	buf := make([]byte, 0, sampleLineLen*2048)
	buf = fmt.Appendf(buf, "%s\napp %s\niterations %d\n", outputHeader, r.App, len(r.Iters))
	var names []string
	for i, outputs := range r.Iters {
		buf = fmt.Appendf(buf, "iteration %d\n", i)
		names = names[:0]
		for name := range outputs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := outputs[name]
			buf = fmt.Appendf(buf, "sink %s %d %d\n", name, m.Rows, m.Cols)
			for _, v := range m.Data {
				if len(buf)+sampleLineLen > cap(buf) {
					if _, err := w.Write(buf); err != nil {
						return err
					}
					buf = buf[:0]
				}
				buf = appendSampleLine(buf, v)
			}
		}
	}
	_, err := w.Write(append(buf, "end\n"...))
	return err
}

// sampleLineLen is the length of one sample line: two 16-digit hex words, a
// space between them and a newline.
const sampleLineLen = 34

// appendSampleLine appends "%016x %016x\n" of v's real and imaginary bit
// patterns.
func appendSampleLine(buf []byte, v complex128) []byte {
	const digits = "0123456789abcdef"
	n := len(buf)
	buf = buf[:n+sampleLineLen]
	line := buf[n:]
	re, im := math.Float64bits(real(v)), math.Float64bits(imag(v))
	for i := 15; i >= 0; i-- {
		line[i] = digits[re&0xf]
		line[17+i] = digits[im&0xf]
		re >>= 4
		im >>= 4
	}
	line[16], line[33] = ' ', '\n'
	return buf
}

// lineReader is a scanner with one line of pushback, for the sink-list
// lookahead in ParseText.
type lineReader struct {
	sc    *bufio.Scanner
	stash string
	has   bool
}

func (lr *lineReader) next() (string, bool) {
	if lr.has {
		lr.has = false
		return lr.stash, true
	}
	if !lr.sc.Scan() {
		return "", false
	}
	return lr.sc.Text(), true
}

func (lr *lineReader) unread(s string) { lr.stash, lr.has = s, true }

// ParseText reads the canonical form back into a Result (Wall is zero).
func ParseText(r io.Reader) (*Result, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	lr := &lineReader{sc: sc}
	fail := func(format string, args ...any) (*Result, error) {
		return nil, fmt.Errorf("rtl: parse output: "+format, args...)
	}

	line, ok := lr.next()
	if !ok || line != outputHeader {
		return fail("missing header %q (got %q)", outputHeader, line)
	}
	res := &Result{}
	line, ok = lr.next()
	if !ok || !strings.HasPrefix(line, "app ") {
		return fail("missing app line (got %q)", line)
	}
	res.App = strings.TrimPrefix(line, "app ")
	line, ok = lr.next()
	if !ok {
		return fail("missing iterations line")
	}
	var iters int
	if _, err := fmt.Sscanf(line, "iterations %d", &iters); err != nil || iters < 0 {
		return fail("bad iterations line %q", line)
	}

	for i := 0; i < iters; i++ {
		line, ok = lr.next()
		if want := fmt.Sprintf("iteration %d", i); !ok || line != want {
			return fail("expected %q, got %q", want, line)
		}
		outputs := map[string]*isspl.Matrix{}
		for {
			line, ok = lr.next()
			if !ok {
				return fail("truncated inside iteration %d", i)
			}
			if line == "end" || strings.HasPrefix(line, "iteration ") {
				lr.unread(line)
				break
			}
			var name string
			var rows, cols int
			if _, err := fmt.Sscanf(line, "sink %s %d %d", &name, &rows, &cols); err != nil {
				return fail("bad sink line %q", line)
			}
			if rows < 1 || cols < 1 || rows*cols > 1<<24 {
				return fail("implausible sink shape %dx%d", rows, cols)
			}
			if _, dup := outputs[name]; dup {
				return fail("duplicate sink %q in iteration %d", name, i)
			}
			m := isspl.NewMatrix(rows, cols)
			for s := 0; s < rows*cols; s++ {
				line, ok = lr.next()
				if !ok {
					return fail("sink %s: truncated at sample %d", name, s)
				}
				re, im, found := strings.Cut(line, " ")
				if !found {
					return fail("sink %s: bad sample line %q", name, line)
				}
				rb, err := strconv.ParseUint(re, 16, 64)
				if err != nil {
					return fail("sink %s sample %d: %v", name, s, err)
				}
				ib, err := strconv.ParseUint(im, 16, 64)
				if err != nil {
					return fail("sink %s sample %d: %v", name, s, err)
				}
				m.Data[s] = complex(math.Float64frombits(rb), math.Float64frombits(ib))
			}
			outputs[name] = m
		}
		res.Iters = append(res.Iters, outputs)
	}
	line, ok = lr.next()
	if !ok || line != "end" {
		return fail("missing end marker (got %q)", line)
	}
	return res, sc.Err()
}

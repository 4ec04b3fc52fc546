package rtl

import (
	"bufio"
	"encoding/binary"
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
//
// Measured and rejected: formatting the next chunk while a second goroutine writes the last (5×512² into sha-256: ~57 ms sequential, ~59 ms pipelined on a 2-vCPU host, where two sha-256 streams take 1.5× one).
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
			for data := m.Data; len(data) > 0; {
				room := (cap(buf) - len(buf)) / sampleLineLen
				if room == 0 {
					if _, err := w.Write(buf); err != nil {
						return err
					}
					buf = buf[:0]
					continue
				}
				n := min(room, len(data))
				buf = appendSampleLines(buf, data[:n])
				data = data[n:]
			}
		}
	}
	_, err := w.Write(append(buf, "end\n"...))
	return err
}

// sampleLineLen is the length of one sample line: two 16-digit hex words, a
// space between them and a newline.
const sampleLineLen = 34

// appendSampleLines appends one "%016x %016x\n" line per sample: the real and
// imaginary bit patterns. buf must have room for them.
func appendSampleLines(buf []byte, data []complex128) []byte {
	n := len(buf)
	buf = buf[:n+len(data)*sampleLineLen]
	for _, v := range data {
		line := buf[n : n+sampleLineLen : n+sampleLineLen]
		re, im := math.Float64bits(real(v)), math.Float64bits(imag(v))
		binary.BigEndian.PutUint64(line[0:8], hex8(uint32(re>>32)))
		binary.BigEndian.PutUint64(line[8:16], hex8(uint32(re)))
		binary.BigEndian.PutUint64(line[17:25], hex8(uint32(im>>32)))
		binary.BigEndian.PutUint64(line[25:33], hex8(uint32(im)))
		line[16], line[33] = ' ', '\n'
		n += sampleLineLen
	}
	return buf
}

// hex8 returns the eight lower-case hex digits of x as ASCII bytes, the most
// significant digit in the most significant byte. It works on all eight at
// once: spread the nibbles one to a byte, then add '0' to each and a further
// 'a'-'9'-1 to those above nine.
func hex8(x uint32) uint64 {
	v := uint64(x)
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	letters := (v + 0x0606060606060606) >> 4 & 0x0101010101010101
	return v + 0x3030303030303030 + letters*('a'-'9'-1)
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
			if rows < 1 || cols < 1 || rows > (1<<24)/cols { // rows*cols can wrap
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

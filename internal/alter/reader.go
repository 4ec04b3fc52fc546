package alter

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The reader turns source text into Values. Syntax: parenthesised lists,
// 'x quote shorthand, "strings" with Go escapes, ; line comments, integers,
// floats, #t/#f booleans, nil, and symbols.
//
// It works on the source string itself: every delimiter is ASCII or a
// Unicode space, so it scans bytes and decodes a rune only at a byte >= 0x80;
// symbols and escape-free strings are slices of the source (which they keep
// alive), not copies.

type reader struct {
	src   string
	pos   int
	line  int
	depth int
	// stack holds the elements of every list still open, innermost last; a
	// closing parenthesis copies its list out at exact capacity.
	stack List
}

// maxReadDepth bounds list/quote nesting so hostile input (e.g. a few
// kilobytes of '(' characters) fails with a parse error instead of
// overflowing the goroutine stack through read's recursion.
const maxReadDepth = 1000

// ReadAll parses every top-level form in src. Each byte that is not part of
// a valid UTF-8 sequence reads as U+FFFD.
func ReadAll(src string) (List, error) {
	if !utf8.ValidString(src) {
		src = string([]rune(src))
	}
	r := &reader{src: src, line: 1}
	for {
		r.skipSpace()
		if r.eof() {
			return r.pop(0), nil
		}
		form, err := r.read()
		if err != nil {
			return nil, err
		}
		r.stack = append(r.stack, form)
	}
}

// ReadOne parses a single form, failing on trailing garbage.
func ReadOne(src string) (Value, error) {
	forms, err := ReadAll(src)
	if err != nil {
		return nil, err
	}
	if len(forms) != 1 {
		return nil, fmt.Errorf("alter: expected one form, got %d", len(forms))
	}
	return forms[0], nil
}

// pop removes the elements above base from the stack and returns them as a
// list of their own (the nil list when there are none).
func (r *reader) pop(base int) List {
	var items List
	if n := len(r.stack) - base; n > 0 {
		items = make(List, n)
		copy(items, r.stack[base:])
		r.stack = r.stack[:base]
	}
	return items
}

func (r *reader) eof() bool { return r.pos >= len(r.src) }

func (r *reader) errf(format string, args ...any) error {
	return fmt.Errorf("alter: line %d: %s", r.line, fmt.Sprintf(format, args...))
}

// space and delim mark the ASCII characters that separate tokens and that
// end an atom; beyond ASCII only the Unicode spaces do either.
var (
	space = [utf8.RuneSelf]bool{' ': true, '\t': true, '\n': true, '\v': true, '\f': true, '\r': true}
	delim = [utf8.RuneSelf]bool{' ': true, '\t': true, '\n': true, '\v': true, '\f': true, '\r': true,
		'(': true, ')': true, '"': true, ';': true, '\'': true}
)

func (r *reader) skipSpace() {
	for !r.eof() {
		switch c := r.src[r.pos]; {
		case c == '\n':
			r.line++
			r.pos++
		case c == ';':
			for !r.eof() && r.src[r.pos] != '\n' {
				r.pos++
			}
		case c < utf8.RuneSelf:
			if !space[c] {
				return
			}
			r.pos++
		default:
			c, w := utf8.DecodeRuneInString(r.src[r.pos:])
			if !unicode.IsSpace(c) {
				return
			}
			r.pos += w
		}
	}
}

func (r *reader) read() (Value, error) {
	r.skipSpace()
	if r.eof() {
		return nil, r.errf("unexpected end of input")
	}
	if r.depth >= maxReadDepth {
		return nil, r.errf("nesting deeper than %d", maxReadDepth)
	}
	r.depth++
	defer func() { r.depth-- }()
	switch c := r.src[r.pos]; c {
	case '(':
		r.pos++
		base := len(r.stack)
		for {
			r.skipSpace()
			if r.eof() {
				return nil, r.errf("unterminated list")
			}
			if r.src[r.pos] == ')' {
				r.pos++
				return r.pop(base), nil
			}
			item, err := r.read()
			if err != nil {
				return nil, err
			}
			r.stack = append(r.stack, item)
		}
	case ')':
		return nil, r.errf("unexpected ')'")
	case '\'':
		r.pos++
		quoted, err := r.read()
		if err != nil {
			return nil, err
		}
		return List{Symbol("quote"), quoted}, nil
	case '"':
		return r.readString()
	default:
		return r.readAtom(), nil
	}
}

func (r *reader) readString() (Value, error) {
	start := r.line
	r.pos++ // opening quote
	// Without an escape the value is the source text between the quotes.
	for i := r.pos; i < len(r.src); i++ {
		switch r.src[i] {
		case '"':
			s := r.src[r.pos:i]
			r.line += strings.Count(s, "\n")
			r.pos = i + 1
			return s, nil
		case '\\':
			return r.readEscapedString(start)
		}
	}
	return nil, fmt.Errorf("alter: line %d: unterminated string", start)
}

func (r *reader) readEscapedString(start int) (Value, error) {
	var b strings.Builder
	for {
		if r.eof() {
			return nil, fmt.Errorf("alter: line %d: unterminated string", start)
		}
		c := r.src[r.pos]
		r.pos++
		switch c {
		default:
			b.WriteByte(c)
		case '\n':
			r.line++
			b.WriteByte(c)
		case '"':
			return b.String(), nil
		case '\\':
			if r.eof() {
				return nil, fmt.Errorf("alter: line %d: unterminated escape", start)
			}
			e, w := utf8.DecodeRuneInString(r.src[r.pos:])
			r.pos += w
			switch e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case 'a':
				b.WriteByte('\a')
			case 'b':
				b.WriteByte('\b')
			case 'f':
				b.WriteByte('\f')
			case 'v':
				b.WriteByte('\v')
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case '\'':
				b.WriteByte('\'')
			case 'x', 'u', 'U':
				// Hex escapes, so Format (which quotes with the full Go
				// escape set) always round-trips through the reader.
				digits := 2
				if e == 'u' {
					digits = 4
				} else if e == 'U' {
					digits = 8
				}
				var code rune
				for i := 0; i < digits; i++ {
					if r.eof() {
						return nil, fmt.Errorf("alter: line %d: unterminated escape", start)
					}
					d, ok := hexVal(r.src[r.pos])
					if !ok {
						return nil, fmt.Errorf("alter: line %d: bad hex digit in \\%c escape", start, e)
					}
					r.pos++
					code = code<<4 | d
				}
				if e == 'x' {
					b.WriteByte(byte(code))
				} else {
					b.WriteRune(code)
				}
			default:
				return nil, fmt.Errorf("alter: line %d: unknown escape \\%c", start, e)
			}
		}
	}
}

func hexVal(c byte) (rune, bool) {
	switch {
	case c >= '0' && c <= '9':
		return rune(c - '0'), true
	case c >= 'a' && c <= 'f':
		return rune(c-'a') + 10, true
	case c >= 'A' && c <= 'F':
		return rune(c-'A') + 10, true
	}
	return 0, false
}

func (r *reader) readAtom() Value {
	start := r.pos
	for !r.eof() {
		if c := r.src[r.pos]; c < utf8.RuneSelf {
			if delim[c] {
				break
			}
			r.pos++
		} else if c, w := utf8.DecodeRuneInString(r.src[r.pos:]); unicode.IsSpace(c) {
			break
		} else {
			r.pos += w
		}
	}
	tok := r.src[start:r.pos]
	switch tok {
	case "#t", "true":
		return true
	case "#f", "false":
		return false
	case "nil":
		return nil
	case "NaN", "+Inf", "-Inf":
		// The spellings Format prints for non-finite floats. Every other
		// word ParseFloat would take — inf, Infinity, nan, in any case —
		// is an identifier.
		f, _ := strconv.ParseFloat(tok, 64)
		return f
	}
	if numberLike(tok) {
		if i, err := strconv.ParseInt(tok, 10, 64); err == nil {
			return i
		}
		if f, err := strconv.ParseFloat(tok, 64); err == nil {
			return f
		}
	}
	return Symbol(tok)
}

// numberLike reports whether tok starts like a number — an optional sign, an
// optional point, a digit — which is what makes it worth parsing as one.
func numberLike(tok string) bool {
	i := 0
	if tok[0] == '+' || tok[0] == '-' {
		i++
	}
	if i < len(tok) && tok[i] == '.' {
		i++
	}
	return i < len(tok) && '0' <= tok[i] && tok[i] <= '9'
}

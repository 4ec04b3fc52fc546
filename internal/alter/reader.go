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

// Scanner reads source one datum, list bracket or typed atom at a time.
// ReadAll is a loop of Reads on one; a reader of a fixed grammar (gluegen's
// table source) walks the same text with Open, Close and the typed reads and
// builds no Values for the atoms it wants as Go ints, strings and symbols.
// Both see one lexical language: comments, escapes, Unicode spaces, invalid
// UTF-8 read as U+FFFD, the nesting bound and the atom rules.
type Scanner struct {
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
// overflowing the goroutine stack through Read's recursion.
const maxReadDepth = 1000

// NewScanner scans src. Each byte that is not part of a valid UTF-8 sequence
// reads as U+FFFD.
func NewScanner(src string) *Scanner {
	if !utf8.ValidString(src) {
		src = string([]rune(src))
	}
	return &Scanner{src: src, line: 1}
}

// ReadAll parses every top-level form in src, reading invalid UTF-8 as
// NewScanner does.
func ReadAll(src string) (List, error) {
	s := NewScanner(src)
	for s.More() {
		form, err := s.Read()
		if err != nil {
			return nil, err
		}
		s.stack = append(s.stack, form)
	}
	return s.pop(0), nil
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
func (s *Scanner) pop(base int) List {
	var items List
	if n := len(s.stack) - base; n > 0 {
		items = make(List, n)
		copy(items, s.stack[base:])
		s.stack = s.stack[:base]
	}
	return items
}

// Line is the line the scanner is on, counting from 1.
func (s *Scanner) Line() int { return s.line }

// More skips spaces and comments and reports whether any source is left.
func (s *Scanner) More() bool {
	s.skipSpace()
	return !s.eof()
}

func (s *Scanner) eof() bool { return s.pos >= len(s.src) }

func (s *Scanner) errf(format string, args ...any) error {
	return fmt.Errorf("alter: line %d: %s", s.line, fmt.Sprintf(format, args...))
}

// space and delim mark the ASCII characters that separate tokens and that
// end an atom; beyond ASCII only the Unicode spaces do either.
var (
	space = [utf8.RuneSelf]bool{' ': true, '\t': true, '\n': true, '\v': true, '\f': true, '\r': true}
	delim = [utf8.RuneSelf]bool{' ': true, '\t': true, '\n': true, '\v': true, '\f': true, '\r': true,
		'(': true, ')': true, '"': true, ';': true, '\'': true}
)

func (s *Scanner) skipSpace() {
	for !s.eof() {
		switch c := s.src[s.pos]; {
		case c == '\n':
			s.line++
			s.pos++
		case c == ';':
			for !s.eof() && s.src[s.pos] != '\n' {
				s.pos++
			}
		case c < utf8.RuneSelf:
			if !space[c] {
				return
			}
			s.pos++
		default:
			c, w := utf8.DecodeRuneInString(s.src[s.pos:])
			if !unicode.IsSpace(c) {
				return
			}
			s.pos += w
		}
	}
}

// begin moves to the next datum, failing at the end of input or the nesting
// bound.
func (s *Scanner) begin() error {
	s.skipSpace()
	if s.eof() {
		return s.errf("unexpected end of input")
	}
	if s.depth >= maxReadDepth {
		return s.errf("nesting deeper than %d", maxReadDepth)
	}
	return nil
}

// Read reads one whole datum.
func (s *Scanner) Read() (Value, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	switch c := s.src[s.pos]; c {
	case '(':
		s.pos++
		s.depth++
		base := len(s.stack)
		for {
			closed, err := s.Close()
			if err != nil {
				return nil, err
			}
			if closed {
				return s.pop(base), nil
			}
			item, err := s.Read()
			if err != nil {
				return nil, err
			}
			s.stack = append(s.stack, item)
		}
	case ')':
		return nil, s.errf("unexpected ')'")
	case '\'':
		s.pos++
		s.depth++
		quoted, err := s.Read()
		if err != nil {
			return nil, err
		}
		s.depth--
		return List{Symbol("quote"), quoted}, nil
	case '"':
		return s.readString()
	default:
		return atom(s.scanAtom()), nil
	}
}

// Open reads the start of a list: a '(' it consumes, reporting true, or the
// atom nil — AsList's empty list — reporting false. It refuses anything else
// as AsList would, and a quoted form 'x too, although (quote x) is a list:
// a typed reader wants the list's elements, not the symbol quote.
func (s *Scanner) Open() (bool, error) {
	switch tok, err := s.typed("list"); {
	case err != nil:
		return false, err
	case tok != "":
		_, err = AsList(atom(tok))
		return false, err
	}
	s.pos++
	s.depth++
	return true, nil
}

// Close reads the end of a list: it consumes a ')' and reports true, or
// reports false when the list goes on.
func (s *Scanner) Close() (bool, error) {
	if !s.More() {
		return false, s.errf("unterminated list")
	}
	if s.src[s.pos] != ')' {
		return false, nil
	}
	s.pos++
	s.depth--
	return true, nil
}

// Int reads an integer by AsInt's rule: an integral float such as 2.0 or 1e3
// is one.
func (s *Scanner) Int() (int64, error) {
	tok, err := s.typed("integer")
	if err != nil {
		return 0, err
	}
	// What ParseInt takes is numberLike, so atom would make it an integer.
	if n, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return n, nil
	}
	return AsInt(atom(tok))
}

// Str reads a string.
func (s *Scanner) Str() (string, error) {
	switch tok, err := s.typed("string"); {
	case err != nil:
		return "", err
	case tok != "":
		return AsString(atom(tok))
	}
	return s.readString()
}

// Symbol reads a symbol.
func (s *Scanner) Symbol() (Symbol, error) {
	tok, err := s.typed("symbol")
	if err != nil {
		return "", err
	}
	if v, ok := literal(tok); ok {
		return AsSymbol(v)
	}
	return Symbol(tok), nil
}

// Bool reads a boolean.
func (s *Scanner) Bool() (bool, error) {
	tok, err := s.typed("boolean")
	if err != nil {
		return false, err
	}
	if b, ok := atom(tok).(bool); ok {
		return b, nil
	}
	return false, fmt.Errorf("alter: expected boolean, got %s", TypeName(atom(tok)))
}

// typed moves to the datum a typed read of a want finds and reads it when it
// is an atom. A list for a want of "list" or a string for "string" it leaves
// to the caller, returning the empty token (an atom never is one); any other
// list, quoted form or string it refuses in the value rules' words.
func (s *Scanner) typed(want string) (string, error) {
	if err := s.begin(); err != nil {
		return "", err
	}
	var got string
	switch s.src[s.pos] {
	case ')':
		return "", s.errf("unexpected ')'")
	case '\'':
		got = "quoted form"
	case '(':
		got = "list"
	case '"':
		got = "string"
	default:
		return s.scanAtom(), nil
	}
	if got != want {
		return "", fmt.Errorf("alter: expected %s, got %s", want, got)
	}
	return "", nil
}

func (s *Scanner) readString() (string, error) {
	start := s.line
	s.pos++ // opening quote
	// Without an escape the value is the source text between the quotes.
	for i := s.pos; i < len(s.src); i++ {
		switch s.src[i] {
		case '"':
			str := s.src[s.pos:i]
			s.line += strings.Count(str, "\n")
			s.pos = i + 1
			return str, nil
		case '\\':
			return s.readEscapedString(start)
		}
	}
	return "", fmt.Errorf("alter: line %d: unterminated string", start)
}

func (s *Scanner) readEscapedString(start int) (string, error) {
	var b strings.Builder
	for {
		if s.eof() {
			return "", fmt.Errorf("alter: line %d: unterminated string", start)
		}
		c := s.src[s.pos]
		s.pos++
		switch c {
		default:
			b.WriteByte(c)
		case '\n':
			s.line++
			b.WriteByte(c)
		case '"':
			return b.String(), nil
		case '\\':
			if s.eof() {
				return "", fmt.Errorf("alter: line %d: unterminated escape", start)
			}
			e, w := utf8.DecodeRuneInString(s.src[s.pos:])
			s.pos += w
			if i := strings.IndexRune(escapes, e); i >= 0 {
				b.WriteByte(escaped[i])
				continue
			}
			switch e {
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
					if s.eof() {
						return "", fmt.Errorf("alter: line %d: unterminated escape", start)
					}
					d, ok := hexVal(s.src[s.pos])
					if !ok {
						return "", fmt.Errorf("alter: line %d: bad hex digit in \\%c escape", start, e)
					}
					s.pos++
					code = code<<4 | d
				}
				if e == 'x' {
					b.WriteByte(byte(code))
				} else {
					b.WriteRune(code)
				}
			default:
				return "", fmt.Errorf("alter: line %d: unknown escape \\%c", start, e)
			}
		}
	}
}

// escapes are the one-character escapes after a backslash, and escaped what
// each stands for.
const escapes, escaped = "ntrabfv\\\"'", "\n\t\r\a\b\f\v\\\"'"

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

// scanAtom reads the token of an atom.
func (s *Scanner) scanAtom() string {
	start := s.pos
	for !s.eof() {
		if c := s.src[s.pos]; c < utf8.RuneSelf {
			if delim[c] {
				break
			}
			s.pos++
		} else if c, w := utf8.DecodeRuneInString(s.src[s.pos:]); unicode.IsSpace(c) {
			break
		} else {
			s.pos += w
		}
	}
	return s.src[start:s.pos]
}

// atom is the value of the atom token tok.
func atom(tok string) Value {
	if v, ok := literal(tok); ok {
		return v
	}
	return Symbol(tok)
}

// literal is the value of the atom token tok when tok is not a symbol.
func literal(tok string) (Value, bool) {
	switch tok {
	case "#t", "true":
		return true, true
	case "#f", "false":
		return false, true
	case "nil":
		return nil, true
	case "NaN", "+Inf", "-Inf":
		// The spellings Format prints for non-finite floats. Every other
		// word ParseFloat would take — inf, Infinity, nan, in any case —
		// is an identifier.
		f, _ := strconv.ParseFloat(tok, 64)
		return f, true
	}
	if numberLike(tok) {
		if i, err := strconv.ParseInt(tok, 10, 64); err == nil {
			return i, true
		}
		if f, err := strconv.ParseFloat(tok, 64); err == nil {
			return f, true
		}
	}
	return nil, false
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

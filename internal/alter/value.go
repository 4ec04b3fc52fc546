// Package alter implements the Alter language: the Lisp-like programming
// language the SAGE glue-code generator is written in (§2: "a programming
// language similar to Lisp in its syntax and style, which provides a direct
// interface to the contents of a SAGE model"). The interpreter provides the
// constructs the paper enumerates — procedure encapsulation, conditionals,
// looping, variable declaration, and recursion — plus a Library of builtins
// that the embedding tool (internal/gluegen) extends, once per process, with
// the "standard calls" for traversing model objects, reading and setting
// properties, and emitting output.
//
// Values are s-expressions: nil, booleans, integers, floats, strings,
// symbols, proper lists, regions, procedures (lambdas and builtins) and
// opaque host objects (model functions, ports, arcs). Lists are Go slices,
// which keeps traversal code simple and garbage-collector friendly. No
// builtin mutates a list in place, so a value may be shared freely — between
// variables, and between interpreters running one compiled Program.
//
// Execution is compile once, run on slots (DESIGN.md §16): Compile turns
// the reader's forms into a tree of Go closures in which every special form
// is already decided and every variable already resolved to a frame slot or
// a global cell; an Interp holds everything a run changes (globals, frames,
// step and depth counters), so one Program serves any number of Interps at
// once. The builtins are one immutable Library, built once per process and
// shared by every Interp over it; an Interp holds only what its runs define
// or set!. The tree-walking evaluator this replaced is kept in
// eval_ref_test.go as the language's reference semantics; the two are held
// equal on values, error texts and emitted bytes.
package alter

import (
	"fmt"
	"strconv"
	"strings"
)

// Symbol is an interned identifier.
type Symbol string

// Value is any Alter datum: nil, bool, int64, float64, string, Symbol,
// List, Region, *Lambda, *Builtin, or an opaque host object.
type Value any

// List is a proper list.
type List []Value

// Lambda is a user-defined procedure with lexical scope: compiled code
// closed over the frame it was created in.
type Lambda struct {
	Name  string // for error messages; "" for anonymous
	code  *lambdaCode
	env   *frame
	cells []*Value // the globals of the program that created it, linked
}

// Region is a rectangle of a data set — rows [R0, R0+Rows), columns
// [C0, C0+Cols) — as one datum rather than a list of four numbers: the value
// the striping standard calls compute with. It prints as (r0 c0 rows cols).
type Region struct {
	R0, C0     int
	Rows, Cols int
}

// Builtin is a host procedure. Args arrive already evaluated and belong to
// the interpreter: Fn may read them until it returns and may keep any
// element, but must not keep or return the slice itself. A builtin lives in
// a Library that every Interp over it shares, so it keeps no run state of
// its own: what it needs of the run it reads from in, the Interp calling it
// (its Apply, or the embedder's Host).
type Builtin struct {
	Name string
	Fn   func(in *Interp, args List) (Value, error)
}

// Truthy implements Lisp truth: everything except nil and false is true.
// (The empty list is a value, and it is true, as in Scheme.)
func Truthy(v Value) bool {
	if v == nil {
		return false
	}
	b, ok := v.(bool)
	return !ok || b
}

// Format renders a value in external (write) form: strings are quoted.
func Format(v Value) string {
	var b strings.Builder
	writeValue(&b, v, true)
	return b.String()
}

// Display renders a value in display form: strings appear bare.
func Display(v Value) string {
	var b strings.Builder
	writeValue(&b, v, false)
	return b.String()
}

// WriteDisplay appends v's display form to b, for output streams that would
// otherwise build a string per value only to copy it.
func WriteDisplay(b *strings.Builder, v Value) { writeValue(b, v, false) }

func writeValue(b *strings.Builder, v Value, write bool) {
	switch x := v.(type) {
	case nil:
		b.WriteString("nil")
	case bool:
		if x {
			b.WriteString("#t")
		} else {
			b.WriteString("#f")
		}
	case int64:
		var buf [20]byte
		b.Write(strconv.AppendInt(buf[:0], x, 10))
	case float64:
		var buf [32]byte
		b.Write(strconv.AppendFloat(buf[:0], x, 'g', -1, 64))
	case string:
		if write {
			var buf [64]byte
			b.Write(strconv.AppendQuote(buf[:0], x))
		} else {
			b.WriteString(x)
		}
	case Symbol:
		b.WriteString(string(x))
	case List:
		b.WriteByte('(')
		for i, e := range x {
			if i > 0 {
				b.WriteByte(' ')
			}
			writeValue(b, e, write)
		}
		b.WriteByte(')')
	case Region:
		var buf [20]byte
		b.WriteByte('(')
		for i, n := range [...]int{x.R0, x.C0, x.Rows, x.Cols} {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.Write(strconv.AppendInt(buf[:0], int64(n), 10))
		}
		b.WriteByte(')')
	case *Lambda:
		name := x.Name
		if name == "" {
			name = "anonymous"
		}
		fmt.Fprintf(b, "#<lambda %s>", name)
	case *Builtin:
		fmt.Fprintf(b, "#<builtin %s>", x.Name)
	default:
		fmt.Fprintf(b, "#<object %T>", v)
	}
}

// TypeName names a value's type for error messages.
func TypeName(v Value) string {
	switch v.(type) {
	case nil:
		return "nil"
	case bool:
		return "boolean"
	case int64:
		return "integer"
	case float64:
		return "float"
	case string:
		return "string"
	case Symbol:
		return "symbol"
	case List:
		return "list"
	case Region:
		return "region"
	case *Lambda, *Builtin:
		return "procedure"
	default:
		return fmt.Sprintf("object(%T)", v)
	}
}

// AsInt coerces integers (and integral floats) to int64.
func AsInt(v Value) (int64, error) {
	switch x := v.(type) {
	case int64:
		return x, nil
	case float64:
		if x == float64(int64(x)) {
			return int64(x), nil
		}
		return 0, fmt.Errorf("alter: %v is not an integer", x)
	default:
		return 0, fmt.Errorf("alter: expected integer, got %s", TypeName(v))
	}
}

// AsFloat coerces numbers to float64.
func AsFloat(v Value) (float64, error) {
	switch x := v.(type) {
	case int64:
		return float64(x), nil
	case float64:
		return x, nil
	default:
		return 0, fmt.Errorf("alter: expected number, got %s", TypeName(v))
	}
}

// AsString extracts a string value.
func AsString(v Value) (string, error) {
	if s, ok := v.(string); ok {
		return s, nil
	}
	return "", fmt.Errorf("alter: expected string, got %s", TypeName(v))
}

// AsSymbol extracts a symbol.
func AsSymbol(v Value) (Symbol, error) {
	if s, ok := v.(Symbol); ok {
		return s, nil
	}
	return "", fmt.Errorf("alter: expected symbol, got %s", TypeName(v))
}

// AsList extracts a list (nil is the empty list).
func AsList(v Value) (List, error) {
	switch x := v.(type) {
	case nil:
		return nil, nil
	case List:
		return x, nil
	default:
		return nil, fmt.Errorf("alter: expected list, got %s", TypeName(v))
	}
}

// Equal implements structural equality across Alter values (numbers compare
// across int/float; lists compare elementwise; regions by value; host
// objects by identity).
func Equal(a, b Value) bool {
	if af, aok := numeric(a); aok {
		bf, bok := numeric(b)
		return bok && af == bf
	}
	switch x := a.(type) {
	case nil:
		return b == nil
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	case string:
		y, ok := b.(string)
		return ok && x == y
	case Symbol:
		y, ok := b.(Symbol)
		return ok && x == y
	case List:
		y, ok := b.(List)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !Equal(x[i], y[i]) {
				return false
			}
		}
		return true
	default:
		return a == b
	}
}

func numeric(v Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

package alter

import (
	"strings"
	"testing"
	"testing/quick"
)

// evalStr evaluates source and returns the last value.
func evalStr(t *testing.T, src string) Value {
	t.Helper()
	v, err := New().RunString(src)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

// evalErr evaluates source expecting failure.
func evalErr(t *testing.T, src string) error {
	t.Helper()
	_, err := New().RunString(src)
	if err == nil {
		t.Fatalf("eval %q: expected error", src)
	}
	return err
}

func TestReaderBasics(t *testing.T) {
	cases := map[string]string{
		"42":                  "42",
		"-17":                 "-17",
		"3.5":                 "3.5",
		`"hi\nthere"`:         `"hi\nthere"`,
		"#t":                  "#t",
		"#f":                  "#f",
		"nil":                 "nil",
		"foo-bar":             "foo-bar",
		"(1 2 3)":             "(1 2 3)",
		"(a (b c) d)":         "(a (b c) d)",
		"'x":                  "(quote x)",
		"'(1 2)":              "(quote (1 2))",
		"( a ; comment\n b )": "(a b)",
		"()":                  "()",
	}
	for src, want := range cases {
		v, err := ReadOne(src)
		if err != nil {
			t.Errorf("read %q: %v", src, err)
			continue
		}
		if got := Format(v); got != want {
			t.Errorf("read %q = %s, want %s", src, got, want)
		}
	}
}

func TestReaderErrors(t *testing.T) {
	for _, src := range []string{"(1 2", ")", `"unterminated`, `"bad \q escape"`, "(1) (2)"} {
		if _, err := ReadOne(src); err == nil {
			t.Errorf("read %q: expected error", src)
		}
	}
}

func TestReaderMultipleForms(t *testing.T) {
	forms, err := ReadAll("(a) (b) 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(forms) != 3 {
		t.Fatalf("got %d forms", len(forms))
	}
}

func TestArithmetic(t *testing.T) {
	cases := map[string]Value{
		"(+ 1 2 3)":   int64(6),
		"(+)":         int64(0),
		"(- 10 3 2)":  int64(5),
		"(- 5)":       int64(-5),
		"(* 2 3 4)":   int64(24),
		"(/ 7 2)":     int64(3),
		"(/ 7.0 2)":   3.5,
		"(+ 1 2.5)":   3.5,
		"(mod 7 3)":   int64(1),
		"(min 3 1 2)": int64(1),
		"(max 3 1 2)": int64(3),
		"(max 1.5 2)": float64(2),
	}
	for src, want := range cases {
		if got := evalStr(t, src); !Equal(got, want) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
	evalErr(t, "(/ 1 0)")
	evalErr(t, "(mod 1 0)")
	evalErr(t, `(+ 1 "x")`)
}

func TestComparisons(t *testing.T) {
	cases := map[string]bool{
		"(< 1 2 3)":              true,
		"(< 1 3 2)":              false,
		"(<= 1 1 2)":             true,
		"(> 3 2 1)":              true,
		"(>= 2 2 1)":             true,
		"(= 2 2 2)":              true,
		"(= 2 2.0)":              true,
		"(equal? '(1 2) '(1 2))": true,
		"(equal? '(1 2) '(1 3))": false,
		`(equal? "a" "a")`:       true,
		"(not #f)":               true,
		"(not 0)":                false, // 0 is truthy, Lisp-style
	}
	for src, want := range cases {
		if got := evalStr(t, src); got != want {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestDefineAndSet(t *testing.T) {
	if got := evalStr(t, "(define x 10) (set! x (+ x 5)) x"); !Equal(got, int64(15)) {
		t.Fatalf("got %v", got)
	}
	evalErr(t, "(set! nosuch 1)")
	evalErr(t, "nosuch")
}

func TestLambdaAndRecursion(t *testing.T) {
	fact := `
	  (define (fact n)
	    (if (<= n 1) 1 (* n (fact (- n 1)))))
	  (fact 10)`
	if got := evalStr(t, fact); !Equal(got, int64(3628800)) {
		t.Fatalf("fact = %v", got)
	}
	fib := `
	  (define fib (lambda (n)
	    (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))))
	  (fib 15)`
	if got := evalStr(t, fib); !Equal(got, int64(610)) {
		t.Fatalf("fib = %v", got)
	}
}

func TestLexicalClosure(t *testing.T) {
	src := `
	  (define (make-counter)
	    (let ((n 0))
	      (lambda () (set! n (+ n 1)) n)))
	  (define c1 (make-counter))
	  (define c2 (make-counter))
	  (c1) (c1) (c1)
	  (list (c1) (c2))`
	if got := Format(evalStr(t, src)); got != "(4 1)" {
		t.Fatalf("closure = %s", got)
	}
}

func TestVariadicLambda(t *testing.T) {
	src := `(define (f a &rest more) (list a more)) (f 1 2 3 4)`
	if got := Format(evalStr(t, src)); got != "(1 (2 3 4))" {
		t.Fatalf("got %s", got)
	}
	if got := Format(evalStr(t, `(define (f a &rest more) (list a more)) (f 1)`)); got != "(1 ())" {
		t.Fatalf("got %s", got)
	}
	evalErr(t, `(define (f a &rest more) more) (f)`)
}

func TestArityErrors(t *testing.T) {
	evalErr(t, "((lambda (x) x))")
	evalErr(t, "((lambda (x) x) 1 2)")
	evalErr(t, "(1 2 3)") // calling a number
}

func TestLetAndLetStar(t *testing.T) {
	if got := evalStr(t, "(let ((a 1) (b 2)) (+ a b))"); !Equal(got, int64(3)) {
		t.Fatalf("let = %v", got)
	}
	// let evaluates bindings in the outer scope; let* sequentially.
	if got := evalStr(t, "(define a 10) (let ((a 1) (b a)) b)"); !Equal(got, int64(10)) {
		t.Fatalf("let scoping = %v", got)
	}
	if got := evalStr(t, "(let* ((a 1) (b (+ a 1))) b)"); !Equal(got, int64(2)) {
		t.Fatalf("let* = %v", got)
	}
	evalErr(t, "(let ((a)) a)")
}

func TestCondWhenUnless(t *testing.T) {
	src := `(define (classify n)
	          (cond ((< n 0) "neg") ((= n 0) "zero") (else "pos")))
	        (list (classify -5) (classify 0) (classify 9))`
	if got := Format(evalStr(t, src)); got != `("neg" "zero" "pos")` {
		t.Fatalf("cond = %s", got)
	}
	if got := evalStr(t, "(when (> 2 1) 5)"); !Equal(got, int64(5)) {
		t.Fatalf("when = %v", got)
	}
	if got := evalStr(t, "(when (< 2 1) 5)"); got != nil {
		t.Fatalf("when false = %v", got)
	}
	if got := evalStr(t, "(unless (< 2 1) 7)"); !Equal(got, int64(7)) {
		t.Fatalf("unless = %v", got)
	}
}

func TestWhileLoop(t *testing.T) {
	src := `
	  (define i 0)
	  (define sum 0)
	  (while (< i 10)
	    (set! sum (+ sum i))
	    (set! i (+ i 1)))
	  sum`
	if got := evalStr(t, src); !Equal(got, int64(45)) {
		t.Fatalf("while = %v", got)
	}
}

func TestAndOrShortCircuit(t *testing.T) {
	// The undefined variable must never be evaluated.
	if got := evalStr(t, "(and #f nosuch)"); got != false {
		t.Fatalf("and = %v", got)
	}
	if got := evalStr(t, "(or 5 nosuch)"); !Equal(got, int64(5)) {
		t.Fatalf("or = %v", got)
	}
	if got := evalStr(t, "(and 1 2 3)"); !Equal(got, int64(3)) {
		t.Fatalf("and all true = %v", got)
	}
	if got := evalStr(t, "(or #f nil)"); got != nil {
		t.Fatalf("or all false = %v", got)
	}
}

func TestListOps(t *testing.T) {
	cases := map[string]string{
		"(list 1 2 3)":              "(1 2 3)",
		"(cons 1 '(2 3))":           "(1 2 3)",
		"(cons 1 nil)":              "(1)",
		"(first '(1 2))":            "1",
		"(first '())":               "nil",
		"(rest '(1 2 3))":           "(2 3)",
		"(rest '())":                "()",
		"(nth '(a b c) 1)":          "b",
		"(length '(1 2 3))":         "3",
		`(length "abcd")`:           "4",
		"(append '(1) '(2 3) '())":  "(1 2 3)",
		"(reverse '(1 2 3))":        "(3 2 1)",
		"(range 4)":                 "(0 1 2 3)",
		"(range 2 5)":               "(2 3 4)",
		"(range 5 2)":               "()",
		"(assoc 'b '((a 1) (b 2)))": "(b 2)",
		"(assoc 'z '((a 1)))":       "nil",
	}
	for src, want := range cases {
		if got := Format(evalStr(t, src)); got != want {
			t.Errorf("%s = %s, want %s", src, got, want)
		}
	}
	evalErr(t, "(nth '(1) 5)")
	evalErr(t, "(nth '(1) -1)")
}

func TestHigherOrder(t *testing.T) {
	cases := map[string]string{
		"(map (lambda (x) (* x x)) '(1 2 3))":      "(1 4 9)",
		"(filter (lambda (x) (> x 1)) '(0 1 2 3))": "(2 3)",
		"(fold + 0 '(1 2 3 4))":                    "10",
		"(apply + '(1 2 3))":                       "6",
		"(sort-by (lambda (x) (- x)) '(1 3 2))":    "(3 2 1)",
		`(sort-by (lambda (x) x) '("b" "a" "c"))`:  `("a" "b" "c")`,
	}
	for src, want := range cases {
		if got := Format(evalStr(t, src)); got != want {
			t.Errorf("%s = %s, want %s", src, got, want)
		}
	}
	src := `
	  (define total 0)
	  (for-each (lambda (x) (set! total (+ total x))) '(1 2 3))
	  total`
	if got := evalStr(t, src); !Equal(got, int64(6)) {
		t.Fatalf("for-each = %v", got)
	}
	evalErr(t, "(sort-by (lambda (x) x) '(1 \"a\"))")
}

func TestStringOps(t *testing.T) {
	cases := map[string]string{
		`(string-append "a" "b" 3)`:             `"ab3"`,
		`(format "fn ~a has ~a threads" "f" 4)`: `"fn f has 4 threads"`,
		`(format "write: ~s" "x")`:              `"write: \"x\""`,
		`(format "~~ and ~%")`:                  "\"~ and \\n\"",
		`(symbol->string 'abc)`:                 `"abc"`,
		`(string->symbol "abc")`:                "abc",
		`(string-upcase "abc")`:                 `"ABC"`,
		`(string-join '(1 2 3) ", ")`:           `"1, 2, 3"`,
	}
	for src, want := range cases {
		if got := Format(evalStr(t, src)); got != want {
			t.Errorf("%s = %s, want %s", src, got, want)
		}
	}
	evalErr(t, `(format "~a")`)
	evalErr(t, `(format "~q" 1)`)
}

func TestExtraBuiltins(t *testing.T) {
	cases := map[string]string{
		`(string-split "a,b,c" ",")`:       `("a" "b" "c")`,
		`(string-split "abc" "x")`:         `("abc")`,
		`(string-contains? "hello" "ell")`: "#t",
		`(string-contains? "hello" "z")`:   "#f",
		`(number->string 42)`:              `"42"`,
		`(number->string 2.5)`:             `"2.5"`,
		`(string->number "17")`:            "17",
		`(string->number "-3.5")`:          "-3.5",
		"(abs -5)":                         "5",
		"(abs 5)":                          "5",
		"(abs -2.5)":                       "2.5",
		"(even? 4)":                        "#t",
		"(even? 3)":                        "#f",
		"(odd? 3)":                         "#t",
	}
	for src, want := range cases {
		if got := Format(evalStr(t, src)); got != want {
			t.Errorf("%s = %s, want %s", src, got, want)
		}
	}
	evalErr(t, `(string->number "banana")`)
	evalErr(t, `(number->string "x")`)
	evalErr(t, `(abs "x")`)
	evalErr(t, `(even? 2.5)`)
}

func TestPredicates(t *testing.T) {
	cases := map[string]bool{
		"(null? '())":                 true,
		"(null? nil)":                 true,
		"(null? '(1))":                false,
		"(list? '(1))":                true,
		`(list? "x")`:                 false,
		"(number? 3)":                 true,
		"(number? 3.5)":               true,
		`(number? "3")`:               false,
		`(string? "x")`:               true,
		"(symbol? 'x)":                true,
		"(procedure? (lambda (x) x))": true,
		"(procedure? +)":              true,
		"(procedure? 3)":              false,
	}
	for src, want := range cases {
		if got := evalStr(t, src); got != want {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestRecursionDepthLimit(t *testing.T) {
	in := New()
	in.MaxDepth = 100
	_, err := in.RunString("(define (loop n) (loop (+ n 1))) (loop 0)")
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("err = %v", err)
	}
}

func TestStepLimit(t *testing.T) {
	in := New()
	in.MaxSteps = 1000
	_, err := in.RunString("(while #t 1)")
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("err = %v", err)
	}
}

func TestCustomBuiltinAndHostObjects(t *testing.T) {
	type widget struct{ name string }
	lib := Stdlib().With(&Builtin{Name: "get-widget", Fn: func(in *Interp, args List) (Value, error) {
		return in.Host, nil
	}}, &Builtin{Name: "widget-name", Fn: func(_ *Interp, args List) (Value, error) {
		if err := wantArgs(args, 1); err != nil {
			return nil, err
		}
		wd, ok := args[0].(*widget)
		if !ok {
			return nil, errFor(args[0])
		}
		return wd.name, nil
	}})
	w := &widget{name: "w1"}
	in := lib.New()
	in.Host = w
	got, err := in.RunString(`(widget-name (get-widget))`)
	if err != nil {
		t.Fatal(err)
	}
	if got != "w1" {
		t.Fatalf("got %v", got)
	}
	// Host objects display opaquely but safely.
	if s := Format(w); !strings.Contains(s, "object") {
		t.Fatalf("host object formats as %s", s)
	}
}

func errFor(v Value) error { return &hostTypeError{TypeName(v)} }

type hostTypeError struct{ got string }

func (e *hostTypeError) Error() string { return "expected widget, got " + e.got }

func TestFormatAndDisplayForms(t *testing.T) {
	v := List{int64(1), "two", Symbol("three"), true, nil, 2.5}
	if got := Format(v); got != `(1 "two" three #t nil 2.5)` {
		t.Fatalf("Format = %s", got)
	}
	if got := Display(v); got != "(1 two three #t nil 2.5)" {
		t.Fatalf("Display = %s", got)
	}
}

func TestEqualAcrossNumericTypes(t *testing.T) {
	check := func(n int32) bool {
		return Equal(int64(n), float64(n)) && Equal(List{int64(n)}, List{float64(n)})
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
	if Equal(int64(1), "1") {
		t.Fatal("number equals string")
	}
}

func TestReadEvalRoundTripProperty(t *testing.T) {
	// Property: formatting a parsed literal list and re-reading it yields
	// an Equal value.
	check := func(xs []int16) bool {
		items := make([]string, len(xs))
		for i, x := range xs {
			items[i] = Format(int64(x))
		}
		src := "(" + strings.Join(items, " ") + ")"
		v1, err := ReadOne(src)
		if err != nil {
			return false
		}
		v2, err := ReadOne(Format(v1))
		if err != nil {
			return false
		}
		return Equal(v1, v2)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBeginAndEmptyList(t *testing.T) {
	if got := evalStr(t, "(begin 1 2 3)"); !Equal(got, int64(3)) {
		t.Fatalf("begin = %v", got)
	}
	if got := Format(evalStr(t, "()")); got != "()" {
		t.Fatalf("() = %s", got)
	}
}

func TestDefineNamesAnonymousLambda(t *testing.T) {
	in := New()
	if _, err := in.RunString("(define f (lambda (x) x))"); err != nil {
		t.Fatal(err)
	}
	v, err := in.RunString("f")
	if err != nil {
		t.Fatal(err)
	}
	if lam := v.(*Lambda); lam.Name != "f" {
		t.Fatalf("lambda name = %q", lam.Name)
	}
}

// TestNumericAtoms pins which atoms read as numbers: those that start like
// one (an optional sign, an optional point, a digit) and parse, plus exactly
// the three spellings Format prints for non-finite floats. The words
// ParseFloat also takes — inf, infinity, nan in any case — are identifiers.
func TestNumericAtoms(t *testing.T) {
	cases := []struct{ src, typ, formatted string }{
		{"inf", "symbol", "inf"},
		{"Inf", "symbol", "Inf"},
		{"nan", "symbol", "nan"},
		{"NaN", "float", "NaN"},
		{"infinity", "symbol", "infinity"},
		{"+Inf", "float", "+Inf"},
		{"-Inf", "float", "-Inf"},
		{"-inf", "symbol", "-inf"},
		{"-", "symbol", "-"},
		{"+", "symbol", "+"},
		{".", "symbol", "."},
		{".5", "float", "0.5"},
		{"-.5", "float", "-0.5"},
		{"+.5", "float", "0.5"},
		{"1e3", "float", "1000"},
		{"1x", "symbol", "1x"},
		{"-17", "integer", "-17"},
		{"+4", "integer", "4"},
		{"0x10", "symbol", "0x10"},
		{"9223372036854775808", "float", "9.223372036854776e+18"},
	}
	for _, c := range cases {
		v, err := ReadOne(c.src)
		if err != nil {
			t.Errorf("read %q: %v", c.src, err)
			continue
		}
		if TypeName(v) != c.typ || Format(v) != c.formatted {
			t.Errorf("read %q = %s %s, want %s %s", c.src, TypeName(v), Format(v), c.typ, c.formatted)
		}
		// Format -> ReadAll gives the same text again, and the same type
		// unless an integral float printed without a point: symbols stay
		// symbols and non-finite floats stay floats.
		again, err := ReadOne(Format(v))
		if err != nil || Format(again) != c.formatted || (TypeName(again) != c.typ && TypeName(again) != "integer") {
			t.Errorf("%q formats as %s, which reads back as %s %s (%v)", c.src, Format(v), TypeName(again), Format(again), err)
		}
	}
	if got := evalStr(t, "(define inf 3) (define (f nan) (+ nan inf)) (f 1)"); !Equal(got, int64(4)) {
		t.Fatalf("inf and nan as identifiers: got %v", got)
	}
}

// TestInvalidUTF8ReadsAsReplacement pins what bytes that are not UTF-8 read
// as, in a symbol, in a string and on their own: U+FFFD each, as when the
// reader worked on a []rune copy of the source.
func TestInvalidUTF8ReadsAsReplacement(t *testing.T) {
	v, err := ReadOne("(a\xffb \"s\xfe\xfdt\" \xe2\x82 ok)")
	if err != nil {
		t.Fatal(err)
	}
	want := List{Symbol("a\ufffdb"), "s\ufffd\ufffdt", Symbol("\ufffd\ufffd"), Symbol("ok")}
	if !Equal(v, want) {
		t.Fatalf("got %s, want %s", Format(v), Format(want))
	}
	// Unicode spaces separate tokens; other non-ASCII text does not.
	forms, err := ReadAll("x\u0085y\u00a0z\u2003é(λ)")
	if err != nil {
		t.Fatal(err)
	}
	if got := Format(forms); got != "(x y z é (λ))" {
		t.Fatalf("got %s", got)
	}
}

// TestReaderLineNumbers: errors name the line the reader is on, counting the
// newlines inside strings and comments.
func TestReaderLineNumbers(t *testing.T) {
	cases := map[string]string{
		"(a\n b\n":               "line 3: unterminated list",
		"\"two\nlines\" ; c\n )": "line 3: unexpected ')'",
		"\n\n\"open":             "line 3: unterminated string",
		"\"esc\\n\nmore\" \n\n)": "line 4: unexpected ')'",
		"\n\"bad \\q\"":          "line 2: unknown escape \\q",
		"\"bad \\xZ\"":           "line 1: bad hex digit in \\x escape",
	}
	for src, want := range cases {
		_, err := ReadAll(src)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("read %q: error %v, want %s", src, err, want)
		}
	}
}

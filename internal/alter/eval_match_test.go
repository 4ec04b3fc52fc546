package alter

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// outcome is everything a script can be observed to do: the value of its
// last form (formatted — procedures differ by identity), the error it
// stopped with, and the bytes it emitted on the way.
type outcome struct {
	value, err, emitted string
}

func (o outcome) String() string {
	return fmt.Sprintf("value %s\nerror %q\nemitted %q", o.value, o.err, o.emitted)
}

// observe runs src on a fresh interpreter of each kind under the same
// limits (0 keeps the default) and reports what each did.
func observe(src string, maxSteps, maxDepth int) (compiled, reference outcome) {
	prepare := func(out *strings.Builder) *Interp {
		in := New()
		in.MaxSteps = maxSteps
		if maxDepth > 0 {
			in.MaxDepth = maxDepth
		}
		in.Define("emit", &Builtin{Name: "emit", Fn: func(_ *Interp, args List) (Value, error) {
			if !printable(args) {
				return nil, errors.New("value too large")
			}
			for _, a := range args {
				WriteDisplay(out, a)
			}
			out.WriteByte('\n')
			return nil, nil
		}})
		return in
	}
	finish := func(v Value, err error, out *strings.Builder) outcome {
		o := outcome{value: "too large", emitted: out.String()}
		if printable(v) {
			o.value = Format(v)
		}
		if err != nil {
			o.err = err.Error()
		}
		return o
	}
	var cout, rout strings.Builder
	v, err := prepare(&cout).RunString(src)
	compiled = finish(v, err, &cout)
	v, err = NewReference(prepare(&rout)).RunString(src)
	reference = finish(v, err, &rout)
	return compiled, reference
}

// printable reports whether v is small enough to write out. A generated
// program can build a list that shares its halves forty levels deep in
// forty steps; its text is 2^40 elements long.
func printable(v Value) bool {
	budget := 1 << 12
	var within func(v Value) bool
	within = func(v Value) bool {
		budget--
		if l, ok := v.(List); ok {
			for _, e := range l {
				if !within(e) {
					return false
				}
			}
		}
		return budget > 0
	}
	return within(v)
}

// matchPrograms exercises every special form and every way a name can be
// bound, found late, shadowed or missing. want pins what the reference says
// where it is worth reading; "" only requires the two evaluators to agree.
var matchPrograms = []struct {
	name         string
	src          string
	steps, depth int
	want         string // value, or "error: <text>"
}{
	// --- special forms ---
	{name: "quote", src: `(quote (a 1 "s"))`, want: `(a 1 "s")`},
	{name: "quote shorthand", src: `'(1 (2 3))`, want: "(1 (2 3))"},
	{name: "if two arms", src: "(list (if #t 1 2) (if #f 1 2) (if nil 1))", want: "(1 2 nil)"},
	{name: "if zero is true", src: "(if 0 'yes 'no)", want: "yes"},
	{name: "cond", src: `(define (k n) (cond ((< n 0) "neg") ((= n 0)) (else "pos" n))) (list (k -1) (k 0) (k 5))`, want: `("neg" #t 5)`},
	{name: "cond no match", src: "(cond (#f 1) (nil 2))", want: "nil"},
	{name: "cond empty else", src: "(cond (else))", want: "nil"},
	{name: "define value and procedure", src: "(define x 4) (define (sq n) (* n n)) (sq x)", want: "16"},
	{name: "define yields nil", src: "(list (define q 1) q)", want: "(nil 1)"},
	{name: "set!", src: "(define x 1) (list (set! x (+ x 1)) x)", want: "(2 2)"},
	{name: "lambda", src: "((lambda (a b) (- a b)) 9 4)", want: "5"},
	{name: "lambda formats", src: "(define f (lambda () 1)) (list f (lambda () 2) +)", want: "(#<lambda f> #<lambda anonymous> #<builtin +>)"},
	{name: "let", src: "(define a 10) (let ((a 1) (b a)) (list a b))", want: "(1 10)"},
	{name: "let*", src: "(let* ((a 1) (b (+ a 1)) (c (* b 3))) (list a b c))", want: "(1 2 6)"},
	{name: "let* falls through to outer", src: "(define a 10) (let* ((b a) (a 1)) (list a b))", want: "(1 10)"},
	{name: "let* closure sees later name", src: "(define a 10) (let* ((f (lambda () a)) (early (f)) (a 1)) (list early (f)))", want: "(10 1)"},
	{name: "let repeated name", src: "(let ((a 1) (a 2)) a)", want: "2"},
	{name: "let empty bindings", src: "(list (let () 1) (let nil 2))", want: "(1 2)"},
	{name: "begin", src: "(list (begin 1 2 3) (begin))", want: "(3 nil)"},
	{name: "while", src: "(define i 0) (define s 0) (list (while (< i 4) (set! s (+ s i)) (set! i (+ i 1))) s)", want: "(4 6)"},
	{name: "while never", src: "(while #f 1)", want: "nil"},
	{name: "and or", src: "(list (and) (and 1 2) (and 1 #f 2) (or) (or #f 3) (or nil #f))", want: "(#t 2 #f nil 3 nil)"},
	{name: "and or short circuit", src: "(list (and #f nosuch) (or 1 nosuch))", want: "(#f 1)"},
	{name: "when unless", src: "(list (when 1 2 3) (when #f 2) (unless #f 4 5) (unless 1 4))", want: "(3 nil 5 nil)"},
	{name: "empty list", src: "()", want: "()"},

	// --- closures ---
	{name: "counter", src: `(define (mk) (let ((n 0)) (lambda () (set! n (+ n 1)) n))) (define c (mk)) (define d (mk)) (c) (c) (list (c) (d))`, want: "(3 1)"},
	{name: "closures captured in a while loop", src: `
		(define fs '()) (define i 0)
		(while (< i 3) (let ((j i)) (set! fs (cons (lambda () j) fs))) (set! i (+ i 1)))
		(map (lambda (f) (f)) fs)`, want: "(2 1 0)"},
	{name: "closures captured in for-each", src: `
		(define fs '())
		(for-each (lambda (k) (set! fs (cons (lambda (x) (+ x k)) fs))) '(10 20 30))
		(map (lambda (f) (f 1)) fs)`, want: "(31 21 11)"},
	{name: "loop variable shared without let", src: `
		(define fs '()) (define i 0)
		(while (< i 3) (set! fs (cons (lambda () i) fs)) (set! i (+ i 1)))
		(map (lambda (f) (f)) fs)`, want: "(3 3 3)"},
	{name: "set! through two frames", src: `
		(define (mk) (let ((n 0)) (lambda (k) (let ((step k)) (set! n (+ n step)) n))))
		(define acc (mk)) (acc 5) (acc 7)`, want: "12"},
	{name: "curried", src: "(define (add a) (lambda (b) (lambda (c) (+ a b c)))) (((add 1) 2) 3)", want: "6"},
	{name: "late-bound global", src: "(define (f) (g)) (define (g) 3) (define early (f)) (define (g) 4) (list early (f))", want: "(3 4)"},
	{name: "recursion", src: "(define (sum n) (if (= n 0) 0 (+ n (sum (- n 1))))) (sum 500)", want: "125250"},
	{name: "mutual recursion", src: "(define (ev? n) (if (= n 0) #t (od? (- n 1)))) (define (od? n) (if (= n 0) #f (ev? (- n 1)))) (list (ev? 10) (od? 7) (ev? 3))", want: "(#t #t #f)"},

	// --- frame reuse: a frame no closure can reach is reused once its scope
	// returns, so each closure below must still see its own frames after
	// the call that made it is over and another call has run. Three wrong
	// evaluators fail here: one that marks only the innermost scope of a
	// lambda captured, one that releases captured frames too, and one that
	// does not reset late slots to unbound when it reuses a frame ---
	{name: "closure made in a let inside a lambda", src: `
		(define (mk x) (let ((y 1)) (lambda () (+ x y))))
		(define a (mk 10)) (define b (mk 20)) (list (a) (b))`, want: "(11 21)"},
	{name: "closure three scopes down", src: `
		(define (mk a) (let ((b (* a 2))) (let* ((c (+ b 1))) (lambda () (list a b c)))))
		(define p (mk 1)) (define q (mk 5)) (list (p) (q))`, want: "((1 2 3) (5 10 11))"},
	{name: "procedure define inside let*", src: `
		(define (mk x) (let* ((y (* x 2))) (define (get) (list x y)) get))
		(define a (mk 1)) (define b (mk 2)) (list (a) (b))`, want: "((1 2) (2 4))"},
	{name: "closure made in a let initialiser", src: `
		(define (mk x) (let ((y (+ x 1))) (let ((f (lambda () (list x y))) (z 0)) f)))
		(define a (mk 1)) (define b (mk 2)) (list (a) (b))`, want: "((1 2) (2 3))"},
	{name: "closures kept through map", src: `
		(define adders (map (lambda (k) (let ((k10 (* k 10))) (lambda (x) (+ x k k10)))) '(1 2 3)))
		(map (lambda (f) (f 100)) adders)`, want: "(111 122 133)"},
	{name: "closures kept through sort-by", src: `
		(define fs (sort-by (lambda (f) (f)) (map (lambda (n) (let ((m (- 10 n))) (lambda () (+ m n n)))) '(1 5 3))))
		(map (lambda (f) (f)) fs)`, want: "(11 13 15)"},
	{name: "closures built by recursion", src: `
		(define (build n) (if (= n 0) '() (let ((more (build (- n 1)))) (cons (lambda () n) more))))
		(map (lambda (f) (f)) (build 4))`, want: "(4 3 2 1)"},
	{name: "read before internal define on a second call", src: `
		(define x 10) (define (f) (define r x) (define x 1) (list r x))
		(list (f) (f))`, want: "((10 1) (10 1))"},
	{name: "read before define in a let body on a second call", src: `
		(define y 5) (define (g a) (let ((b a)) (define r y) (define y b) (list r y)))
		(list (g 1) (g 2))`, want: "((5 1) (5 2))"},
	{name: "frames of different sizes reused", src: `
		(define (big a b c d e f) (list a b c d e f)) (define (small a) (let ((b a)) b))
		(list (big 1 2 3 4 5 6) (small 7) (big 8 9 10 11 12 13) (small 14))`, want: "((1 2 3 4 5 6) 7 (8 9 10 11 12 13) 14)"},
	{name: "a returned &rest list outlives its frame", src: `
		(define (f &rest r) r) (define (g a) a) (list (f 1 2) (g 3) (f 4))`, want: "((1 2) 3 (4))"},
	{name: "error inside a released scope's callee", src: `
		(define (f n) (let ((m n)) (if (= m 2) (nosuch) m)))
		(list (f 1) (f 2))`, want: "error: alter: undefined variable nosuch"},

	// --- &rest and argument binding ---
	{name: "&rest", src: "(define (f a &rest r) (list a r)) (list (f 1) (f 1 2 3))", want: "((1 ()) (1 (2 3)))"},
	{name: "&rest only", src: "((lambda (&rest all) all) 1 2)", want: "(1 2)"},
	{name: "&rest through apply", src: "(define (f a &rest r) (length r)) (apply f '(1 2 3 4))", want: "3"},
	{name: "repeated parameter", src: "((lambda (x x) x) 1 2)", want: "2"},
	{name: "&rest named as a parameter", src: "((lambda (a &rest a) a) 1 2 3)", want: "(2 3)"},
	{name: "evaluation order", src: `((begin (emit "f") +) (begin (emit "a") 1) (begin (emit "b") 2))`, want: "3"},

	// --- internal and late defines ---
	{name: "reference before internal define", src: "(define x 10) (define (f) (define r x) (define x 1) (list r x)) (f)", want: "(10 1)"},
	{name: "conditional internal define", src: "(define x 10) (define (f flag) (if flag (define x 1)) x) (list (f #f) (f #t) x)", want: "(10 1 10)"},
	{name: "closure sees later internal define", src: "(define (f) (define (g) y) (define y 5) (g)) (f)", want: "5"},
	{name: "internal define across loop iterations", src: `
		(define x 100)
		(define (f) (define i 0) (define out '())
		  (while (< i 3) (set! out (cons x out)) (define x i) (set! i (+ i 1)))
		  out)
		(list (f) x)`, want: "((1 0 100) 100)"},
	{name: "set! before internal define hits outer", src: "(define x 1) (define (f) (set! x 5) (define x 2) (set! x (+ x 1)) x) (list (f) x)", want: "(3 5)"},
	{name: "define in a let body", src: "(define y 1) (let ((a 2)) (define y (+ a 1)) (set! y (+ y 1)) y)", want: "4"},
	{name: "let body define stays local", src: "(define y 1) (let ((a 2)) (define y 9)) y", want: "1"},
	{name: "define in a let initialiser binds outside", src: "(define (f) (let ((a (define z 7))) (list a z))) (f)", want: "(nil 7)"},
	{name: "define in an argument", src: "(define (f) (list (define z 2) z)) (f)", want: "(nil 2)"},
	{name: "define in let* initialiser is the let*'s", src: "(define z 1) (define (f) (let* ((a (define z 7)) (b z)) b) z) (list (f) z)", want: "(1 1)"},
	{name: "top-level conditional define", src: "(if #t (define y 1)) (when #f (define w 2)) y", want: "1"},
	{name: "internal define over a parameter", src: "(define (f x) (define x (+ x 1)) x) (f 1)", want: "2"},
	{name: "internal procedure define", src: "(define (f n) (define (twice k) (* 2 k)) (twice (twice n))) (f 3)", want: "12"},
	{name: "define names an anonymous lambda once", src: "(define f (lambda () 1)) (define g f) g", want: "#<lambda f>"},

	// --- shadowing and special-form names ---
	{name: "shadowed builtin global", src: "(define (list x) (* x 2)) (list 5)", want: "10"},
	{name: "shadowed builtin local", src: "(let ((+ -)) (+ 5 3))", want: "2"},
	{name: "builtin name as a parameter", src: "(define (f list) (+ list 1)) (f 1)", want: "2"},
	{name: "special-form name as a variable", src: "(define if 3) (list if (if #t if 0))", want: "(3 3)"},
	{name: "special-form name as a parameter", src: "(define (f quote) (+ quote 1)) (f 1)", want: "2"},
	{name: "special-form name in a let", src: "(let ((let 1) (define 2)) (list let define))", want: "(1 2)"},
	{name: "special form wins in head position", src: "(define (when x) 99) (list (when #f 1) when)", want: "(nil #<lambda when>)"},
	{name: "define a variable called define", src: "(define define 1) (define x 2) (list define x)", want: "(1 2)"},
	{name: "else is only special in cond", src: "(define else #f) (cond (else 7))", want: "7"},

	// --- builtins that apply procedures ---
	{name: "map filter fold", src: "(fold + 0 (map (lambda (x) (* x x)) (filter odd? (range 6))))", want: "35"},
	{name: "sort-by", src: "(sort-by (lambda (p) (nth p 1)) '((a 3) (b 1) (c 2)))", want: "((b 1) (c 2) (a 3))"},
	{name: "apply builtin and lambda", src: "(list (apply + '(1 2 3)) (apply (lambda (a b) (- a b)) '(5 3)))", want: "(6 2)"},
	{name: "nested applicatives", src: "(map (lambda (r) (fold + 0 r)) (map (lambda (n) (range n)) '(1 2 3 4)))", want: "(0 1 3 6)"},
	{name: "fold keeps its arguments", src: "(fold (lambda (acc x) (cons x acc)) '() '(1 2 3))", want: "(3 2 1)"},
	{name: "format", src: `(format "~a|~s|~a|~~~%" "x" "x" '(1 "y" z))`, want: `"x|\"x\"|(1 y z)|~\n"`},
	{name: "emit", src: `(emit "a" 1 '(2 "b")) (for-each (lambda (x) (emit x)) '(1 2))`, want: "nil"},

	// --- lambdas lent to those builtins, and closures that outlive a call ---
	{name: "lent lambda sees its scope", src: `(define (f n) (let ((k (* n 10))) (map (lambda (x) (+ k x)) '(1 2)))) (list (f 1) (f 2))`, want: "((11 12) (21 22))"},
	{name: "lent lambdas nest", src: `(define (g n) (fold + 0 (map (lambda (x) (fold + 0 (map (lambda (y) (* x y n)) '(1 2)))) '(1 2 3)))) (list (g 1) (g 2))`, want: "(18 36)"},
	{name: "defined lambda outlives its call", src: `(define (mk n) (let ((k n)) (for-each (lambda (x) x) '(1)) (define h (lambda () k)) h)) (define a (mk 1)) (define b (mk 2)) (list (a) (b))`, want: "(1 2)"},
	{name: "closure returned from map", src: `(define ks (map (lambda (n) (let ((m (* n 2))) (lambda () (list n m)))) '(1 2 3))) (map (lambda (k) (k)) ks)`, want: "((1 2) (2 4) (3 6))"},
	{name: "closure passed to a user function", src: `(define kept '()) (define (keep p) (set! kept (cons p kept))) (define (mk n) (let ((k n)) (keep (lambda () k)) (for-each (lambda (x) x) '(1 2)))) (mk 1) (mk 2) (map (lambda (p) (p)) kept)`, want: "(2 1)"},
	{name: "for-each rebound by define", src: `(define (for-each p l) p) (define (mk n) (let ((k n)) (for-each (lambda () k) '()))) (define a (mk 1)) (define b (mk 2)) (list (a) (b))`, want: "(1 2)"},
	{name: "filter rebound by set!", src: `(set! filter (lambda (p l) p)) (define (mk n) (let ((k n)) (filter (lambda () k) '()))) (define a (mk 1)) (define b (mk 2)) (list (a) (b))`, want: "(1 2)"},
	{name: "map rebound by a let", src: `(define (mk n) (let ((map (lambda (p l) p)) (k n)) (map (lambda () k) '()))) (define a (mk 1)) (define b (mk 2)) (list (a) (b))`, want: "(1 2)"},
	{name: "lender rebound after the call is compiled", src: `(define (mk n) (let ((k n)) (for-each (lambda () k) '()))) (define x (mk 0)) (define (for-each p l) p) (define a (mk 1)) (define b (mk 2)) (list x (a) (b))`, want: "(nil 1 2)"},

	// --- errors ---
	{name: "undefined variable", src: "(emit 1) nosuch", want: "error: alter: undefined variable nosuch"},
	{name: "undefined in a body", src: "(define (f) (emit 1) nosuch) (f)", want: "error: alter: undefined variable nosuch"},
	{name: "set! undefined", src: "(set! nosuch 1)", want: "error: alter: set! of undefined variable nosuch"},
	{name: "set! undefined evaluates the value first", src: `(set! nosuch (emit "v"))`, want: "error: alter: set! of undefined variable nosuch"},
	{name: "too few arguments", src: "(define (f a b) a) (f 1)", want: "error: alter: f wants 2 arguments, got 1"},
	{name: "too many arguments", src: "((lambda (a) a) 1 2)", want: "error: alter: lambda wants 1 arguments, got 2"},
	{name: "&rest too few", src: "(define (f a b &rest r) a) (f 1)", want: "error: alter: f wants at least 2 arguments, got 1"},
	{name: "argument error before arity error", src: "((lambda (a) a) 1 nosuch)", want: "error: alter: undefined variable nosuch"},
	{name: "arity through apply", src: "(apply (lambda (a) a) '(1 2))", want: "error: apply: alter: lambda wants 1 arguments, got 2"},
	{name: "call a number", src: "(1 2 3)", want: "error: alter: cannot call integer"},
	{name: "call nil", src: "((when #f 1))", want: "error: alter: cannot call nil"},
	{name: "builtin type error", src: `(+ 1 "x")`, want: "error: +: expected number, got string"},
	{name: "builtin error inside map", src: `(map (lambda (x) (/ 1 x)) '(1 0))`, want: "error: map: /: division by zero"},
	{name: "error after output", src: `(emit "before") (nth '(1) 5) (emit "after")`, want: "error: nth: index 5 out of range for list of 1"},
	{name: "malformed forms are lazy", src: "(define (f) (if)) (when #f (quote) (let 5) (set!)) 1", want: "1"},
	{name: "malformed if", src: "(define (f) (if)) (f)", want: "error: alter: if wants (if test then [else])"},
	{name: "malformed quote", src: "(quote 1 2)", want: "error: alter: quote wants 1 argument"},
	{name: "malformed cond clause", src: `(cond ((emit "t") 1) 5)`, want: "error: alter: cond clause must be a non-empty list"},
	{name: "malformed cond clause after a hit", src: "(cond (1 2) ())", want: "2"},
	{name: "define without value", src: "(define x)", want: "error: alter: define wants a name and a value"},
	{name: "define with two values", src: "(define x 1 2)", want: "error: alter: (define name value) wants exactly one value"},
	{name: "define nameless procedure", src: "(define () 1)", want: "error: alter: define procedure wants a name"},
	{name: "define procedure named by a number", src: "(define (1) 1)", want: "error: alter: expected symbol, got integer"},
	{name: "define a number", src: "(define 5 1)", want: "error: alter: cannot define integer"},
	{name: "malformed set!", src: "(list (set! x))", want: "error: alter: set! wants a name and a value"},
	{name: "set! a number", src: `(set! 5 (emit "v"))`, want: "error: alter: expected symbol, got integer"},
	{name: "lambda without body", src: "(lambda (x))", want: "error: alter: lambda wants parameters and a body"},
	{name: "lambda parameters not a list", src: "(lambda x x)", want: "error: alter: expected list, got symbol"},
	{name: "lambda parameter not a symbol", src: "(lambda (1) 1)", want: "error: alter: lambda parameter: alter: expected symbol, got integer"},
	{name: "&rest without a name", src: "(define (f a &rest) a)", want: "error: alter: &rest without a parameter name"},
	{name: "two &rest", src: "(lambda (&rest a &rest b) a)", want: "error: alter: multiple &rest parameters"},
	{name: "let without body", src: "(let ((a 1)))", want: "error: alter: let wants bindings and a body"},
	{name: "let bindings not a list", src: "(let 5 1)", want: "error: alter: expected list, got integer"},
	{name: "let binding malformed after a good one", src: `(let ((a (emit "a")) (b)) a)`, want: "error: alter: let binding must be (name value)"},
	{name: "let binding name not a symbol", src: `(let* ((1 (emit "never"))) 1)`, want: "error: alter: expected symbol, got integer"},
	{name: "while without test", src: "(while)", want: "error: alter: while wants a test"},
	{name: "when unless without test", src: "(list (unless))", want: "error: alter: unless wants a test"},

	// --- limits ---
	{name: "step limit in a loop", src: `(define i 0) (while #t (emit i) (set! i (+ i 1)))`, steps: 200, want: "error: alter: step limit 200 exceeded"},
	{name: "step limit in recursion", src: `(define (f n) (emit n) (f (+ n 1))) (f 0)`, steps: 157, want: "error: alter: step limit 157 exceeded"},
	{name: "step limit between arguments", src: `(emit 1) (emit 2) (list (emit 3) nosuch)`, steps: 11},
	{name: "step limit before an undefined variable", src: `(list 1 2 nosuch)`, steps: 4, want: "error: alter: step limit 4 exceeded"},
	{name: "undefined variable on the last step", src: `(list 1 2 nosuch)`, steps: 5, want: "error: alter: undefined variable nosuch"},
	{name: "step limit through for-each", src: `(for-each (lambda (x) (emit x)) (range 100))`, steps: 90, want: "error: for-each: alter: step limit 90 exceeded"},
	{name: "steps just enough", src: `(define (f n) (if (= n 0) 'done (f (- n 1)))) (f 3)`, steps: 43, want: "done"},
	{name: "steps one short", src: `(define (f n) (if (= n 0) 'done (f (- n 1)))) (f 3)`, steps: 42, want: "error: alter: step limit 42 exceeded"},
	{name: "depth limit", src: `(define (f n) (emit n) (f (+ n 1))) (f 0)`, depth: 20, want: "error: alter: recursion depth limit exceeded"},
	{name: "depth limit counts builtins", src: `(define (f n) (emit n) (apply f (list (+ n 1)))) (f 0)`, depth: 21},
	{name: "depth limit after arguments", src: `(define (f n) (f (begin (emit n) (+ n 1)))) (f 0)`, depth: 5, want: "error: alter: recursion depth limit exceeded"},
	{name: "depth limit before arity", src: `(define (f n) (f)) (f 0)`, depth: 1, want: "error: alter: recursion depth limit exceeded"},
	{name: "depth is released", src: `(define (f n) (if (= n 0) 0 (f (- n 1)))) (f 8) (f 8) (f 8)`, depth: 10, want: "0"},
	{name: "depth is released after an error", src: `(define (f n) (if (= n 0) (nosuch) (f (- n 1)))) (f 8)`, depth: 10, want: "error: alter: undefined variable nosuch"},
}

// TestEvalMatchesReference holds the compiled evaluator to the tree walker
// on value, error text and emitted bytes.
func TestEvalMatchesReference(t *testing.T) {
	if len(matchPrograms) < 60 {
		t.Fatalf("only %d programs", len(matchPrograms))
	}
	for _, p := range matchPrograms {
		t.Run(p.name, func(t *testing.T) {
			got, ref := observe(p.src, p.steps, p.depth)
			if got != ref {
				t.Fatalf("%s\n--- compiled\n%v\n--- reference\n%v", p.src, got, ref)
			}
			if p.want == "" {
				return
			}
			said := ref.value
			if ref.err != "" {
				said = "error: " + ref.err
			}
			if said != p.want {
				t.Fatalf("%s\nboth evaluators say %s, want %s", p.src, said, p.want)
			}
		})
	}
}

// TestInterpReuseMatchesReference runs several scripts on one interpreter,
// as the REPL does: globals, procedures from earlier scripts and the step
// count carry over, and an error leaves the interpreter usable.
func TestInterpReuseMatchesReference(t *testing.T) {
	scripts := []string{
		"(define n 0) (define (bump) (set! n (+ n 1)) n)",
		"(bump) (bump)",
		"(define (bump) (set! n (+ n 10)) n) (nosuch)",
		"(define (deep k) (if (= k 0) (bump) (deep (- k 1)))) (deep 5)",
		"(list n (bump))",
	}
	in, base := New(), New()
	in.MaxDepth, base.MaxDepth = 12, 12
	ref := NewReference(base)
	for _, src := range scripts {
		v, err := in.RunString(src)
		rv, rerr := ref.RunString(src)
		if Format(v) != Format(rv) || fmt.Sprint(err) != fmt.Sprint(rerr) {
			t.Fatalf("%s\ncompiled %s, %v\nreference %s, %v", src, Format(v), err, Format(rv), rerr)
		}
	}
	if in.steps != ref.steps || in.depth != 0 {
		t.Fatalf("after the session: %d steps at depth %d, reference %d steps", in.steps, in.depth, ref.steps)
	}
}

// TestProgramIsShared runs one compiled program on several interpreters,
// interleaved: each has its own globals and closures.
func TestProgramIsShared(t *testing.T) {
	p := MustCompile(`(define (next) (set! n (+ n step)) n) (next) (next)`)
	for i := 0; i < 2; i++ {
		a, b := New(), New()
		a.Define("n", int64(0))
		a.Define("step", int64(1))
		b.Define("n", int64(100))
		b.Define("step", int64(5))
		va, err := a.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := b.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		// A procedure made by one run of the program, called during another.
		va2, err := a.RunString("(next)")
		if err != nil {
			t.Fatal(err)
		}
		if got := Format(List{va, vb, va2}); got != "(2 110 3)" {
			t.Fatalf("got %s", got)
		}
	}
}

// --- generated programs --------------------------------------------------------

// progGen writes a well-formed program from a string of choices. It draws
// names from a small pool so that bindings shadow, precede and follow the
// references to them, and it runs dry gracefully: with no choices left
// every expression is the literal 0.
type progGen struct {
	choices []byte
	b       strings.Builder
}

func (g *progGen) pick(n int) int {
	if len(g.choices) == 0 {
		return 0
	}
	c := g.choices[0]
	g.choices = g.choices[1:]
	return int(c) % n
}

var (
	genNames    = []string{"a", "b", "c", "f", "g", "x", "list", "if", "+", "for-each", "filter"}
	genBuiltins = []string{"+", "-", "*", "<", "=", "list", "cons", "first", "rest", "length", "not", "null?", "emit"}
)

func (g *progGen) name() { g.b.WriteString(genNames[g.pick(len(genNames))]) }

// params writes a parameter list's names: up to two, and now and then a
// &rest.
func (g *progGen) params() {
	for i, n := 0, g.pick(3); i < n; i++ {
		g.b.WriteByte(' ')
		g.name()
	}
	if g.pick(6) == 5 {
		g.b.WriteString(" &rest ")
		g.name()
	}
}

// body writes one to three expressions.
func (g *progGen) body(depth int) {
	for i, n := 0, 1+g.pick(3); i < n; i++ {
		g.b.WriteByte(' ')
		g.expr(depth)
	}
}

func (g *progGen) form(head string, parts ...func()) {
	g.b.WriteByte('(')
	g.b.WriteString(head)
	for _, p := range parts {
		g.b.WriteByte(' ')
		p()
	}
	g.b.WriteByte(')')
}

func (g *progGen) expr(depth int) {
	sub := func() { g.expr(depth - 1) }
	body := func() { g.body(depth - 1) }
	kinds := 27
	if depth <= 0 {
		kinds = 4
	}
	switch g.pick(kinds) {
	case 0:
		fmt.Fprint(&g.b, g.pick(5))
	case 1, 2:
		g.name()
	case 3:
		g.b.WriteString([]string{`"s"`, "#t", "#f", "nil", "'(1 2)", "'sym", "()"}[g.pick(7)])
	case 4, 5, 6:
		g.form(genBuiltins[g.pick(len(genBuiltins))], sub, sub)
	case 7, 8:
		// A call: of a procedure the prelude defined (unless the program
		// has rebound it since), of any name, or of whatever an expression
		// yields.
		g.b.WriteByte('(')
		switch g.pick(6) {
		case 0:
			sub()
		case 1:
			g.name()
		default:
			g.b.WriteString([]string{"f", "g"}[g.pick(2)])
		}
		for i, n := 0, g.pick(3); i < n; i++ {
			g.b.WriteByte(' ')
			sub()
		}
		g.b.WriteByte(')')
	case 9:
		g.form("if", sub, sub, sub)
	case 10:
		g.form([]string{"when", "unless", "and", "or", "begin"}[g.pick(5)], sub, body)
	case 11:
		g.form("cond", func() { g.form("", sub, sub) }, func() {
			if g.pick(2) == 0 {
				g.form("else", sub)
			} else {
				g.form("", sub)
			}
		})
	case 12, 13:
		let := []string{"let", "let*"}[g.pick(2)]
		g.form(let, func() {
			g.b.WriteByte('(')
			for i, n := 0, g.pick(3); i < n; i++ {
				g.form("", g.name, sub)
			}
			g.b.WriteByte(')')
		}, body)
	case 14, 15:
		g.form("lambda", func() { g.form("", g.params) }, body)
	case 16, 17:
		g.form("define", g.name, sub)
	case 18:
		g.form("define", func() { g.form("", g.name, g.params) }, body)
	case 19, 20:
		g.form("set!", g.name, sub)
	case 21:
		// A loop that ends: the counter is the generator's own name.
		g.form("let", func() { g.b.WriteString("((i 0))") }, func() {
			g.form("while", func() { fmt.Fprintf(&g.b, "(< i %d)", 1+g.pick(3)) }, body,
				func() { g.b.WriteString("(set! i (+ i 1))") })
		})
	case 22:
		g.form([]string{"map", "for-each", "filter"}[g.pick(3)], sub, func() { g.b.WriteString("'(1 2 3)") })
	case 23:
		g.form("apply", sub, func() { g.form("list", sub, sub) })
	case 24:
		g.form("emit", sub)
	case 25:
		// A lambda that returns a closure made in a let inside it, called
		// three times before any closure runs: each must still see its own
		// parameter and let name once the next call has run.
		p, q := genNames[g.pick(len(genNames))], genNames[g.pick(len(genNames))]
		fmt.Fprintf(&g.b, "(map (lambda (k) (k)) (map (lambda (%s) (let ((%s ", p, q)
		sub()
		fmt.Fprintf(&g.b, ")) (lambda () (cons %s (cons %s (cons ", p, q)
		sub()
		g.b.WriteString(" nil)))))) '(1 2 3)))")
	case 26:
		// A lambda written as the procedure argument of map, for-each or
		// filter, closing over a let: lent to the builtin, or kept by what
		// the program rebound the name to. A kept one is called only after
		// a later call has run, in whatever frame its let's was.
		p, q := genNames[g.pick(len(genNames))], genNames[g.pick(len(genNames))]
		fmt.Fprintf(&g.b, "(let ((k (let ((%s ", p)
		sub()
		fmt.Fprintf(&g.b, ")) (%s (lambda (%s) (list %s %s)) '(1 2 3))))) (f 7) (if (procedure? k) (k ",
			[]string{"map", "for-each", "filter"}[g.pick(3)], q, p, q)
		sub()
		g.b.WriteString(") k))")
	}
}

// generateProgram turns a string of choices into a program: a few bindings
// for the pool's names, so that not every reference fails, then top-level
// forms for as long as choices remain.
func generateProgram(choices []byte) string {
	g := &progGen{choices: choices}
	g.b.WriteString(`(define a 1) (define b '(1 2)) (define c "s") (define x 5) (define (f x) (+ x 1)) (define (g &rest x) x)` + "\n")
	for i := 0; i < 8 && len(g.choices) > 0; i++ {
		g.expr(4)
		g.b.WriteByte('\n')
	}
	return g.b.String()
}

// FuzzEvalMatchesReference generates well-formed programs over the grammar
// TestEvalMatchesReference samples by hand and holds the two evaluators to
// the same value, error text and emitted bytes. The budgets are small so
// that generated loops and recursions end — by exhaustion, at the same step
// and depth, which the emitted bytes then show.
func FuzzEvalMatchesReference(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint8(0))
	f.Add([]byte("\x10\x03\x04\x00\x01\x02\x12\x05\x00\x02\x01\x02\a\x01\x03"), uint16(400), uint8(16))
	f.Add([]byte("\x15\x02\x01\f\x00\x01\x02\x03\x02\x02\b\x01\x02\x00\x13\x04\a"), uint16(120), uint8(8))
	f.Add([]byte("\x0e\x01\x05\x05\x02\x01\x02\a\x03\x01\x16\x02\x02\x01\x04\f\x01\x00"), uint16(60), uint8(30))
	f.Fuzz(func(t *testing.T, choices []byte, steps uint16, depth uint8) {
		src := generateProgram(choices)
		got, ref := observe(src, 1+int(steps)%3000, 1+int(depth)%40)
		if got != ref {
			t.Fatalf("%s\n--- compiled\n%v\n--- reference\n%v", src, got, ref)
		}
	})
}

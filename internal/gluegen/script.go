package gluegen

import "repro/internal/model"

// StandardScript is the stock glue-code generator, written in Alter as the
// paper describes: it traverses the model's functions, ports and arcs
// through the standard calls, computes the striping transfer schedule with
// the partition/intersect calls, and emits the runtime table source plus a
// human-readable listing. Users can supply their own script to GenerateWith.
const StandardScript = `
;; ---------------------------------------------------------------------------
;; SAGE standard glue-code generator.
;;
;; Emits, via (emit-format template args...) -- (emit (format ...)) without
;; the intermediate string -- one s-expression per line of runtime-table
;; source:
;;   (app "name" "platform" num-nodes)
;;   (function id "name" "kind" threads (node...) (params-alist) probe)
;;   (inport  fn-id "name" rows cols elem-bytes "striping" (buffer-id...))
;;   (outport fn-id "name" rows cols elem-bytes "striping" (buffer-id...))
;;   (buffer id src-fn "src-port" dst-fn "dst-port" rows cols elem-bytes)
;;   (xfer buffer-id src-thread dst-thread (r0 c0 rows cols))
;;   (order (id...))
;; and, via (emit-src ...) and (emit-src-format template args...), a
;; human-readable glue listing.
;; ---------------------------------------------------------------------------

(define all-arcs (arcs))
(define num-arcs (length all-arcs))
(define arc-ids (range num-arcs))

(emit-src ";; SAGE auto-generated glue code")
(emit-src-format ";; application: ~a   target: ~a (~a nodes)"
                 (app-name) (platform-name) (num-nodes))
(emit-src "")

(emit-format "(app ~s ~s ~a)" (app-name) (platform-name) (num-nodes))

;; --- function table ---------------------------------------------------------

(define (port-buffers p)
  ;; Logical buffer IDs are arc indices; a port's buffers are the arcs that
  ;; touch it.
  (filter (lambda (i)
            (let ((a (nth all-arcs i)))
              (or (equal? (arc-from a) p) (equal? (arc-to a) p))))
          arc-ids))

(define (emit-port label f p)
  (emit-format "(~a ~a ~s ~a ~a ~a ~s ~a)"
               label (function-id f) (port-name p)
               (port-rows p) (port-cols p) (port-elem-bytes p)
               (port-striping p) (port-buffers p)))

(emit-src ";; function table (runtime dispatches by ID = index)")
(for-each
 (lambda (f)
   (let ((nodes (map (lambda (i) (node-of f i))
                     (range (function-threads f)))))
     (emit-format "(function ~a ~s ~s ~a ~a ~s ~a)"
                  (function-id f) (function-name f) (function-kind f)
                  (function-threads f) nodes (function-params f)
                  (if (get-property f "probe" #f) "#t" "#f"))
     (for-each (lambda (p) (emit-port "inport" f p)) (inputs f))
     (for-each (lambda (p) (emit-port "outport" f p)) (outputs f))
     (emit-src-format ";;  [~a] ~a  kind=~a threads=~a nodes=~a"
                      (function-id f) (function-name f) (function-kind f)
                      (function-threads f) nodes)))
 (functions))
(emit-src "")

;; --- logical buffers and striding -------------------------------------------

(define (emit-xfer buf i j reg)
  (emit-format "(xfer ~a ~a ~a ~a)" buf i j reg))

(emit-src ";; logical buffers (one per arc) with striding schedules")
(for-each
 (lambda (bi)
   (let ((a (nth all-arcs bi)))
     (let ((sp (arc-from a)) (dp (arc-to a)))
       (let ((sf (port-fn sp)) (df (port-fn dp))
             (rows (port-rows sp)) (cols (port-cols sp))
             (eb (port-elem-bytes sp))
             (ss (port-striping sp)) (ds (port-striping dp)))
         (let ((st (function-threads sf)) (dt (function-threads df)))
           (emit-format "(buffer ~a ~a ~s ~a ~s ~a ~a ~a)"
                        bi (function-id sf) (port-name sp)
                        (function-id df) (port-name dp) rows cols eb)
           (emit-src-format ";;  buffer ~a: ~a.~a (~a) -> ~a.~a (~a), ~ax~a"
                            bi (function-name sf) (port-name sp) ss
                            (function-name df) (port-name dp) ds rows cols)
           ;; For each destination thread, tile its partition with source
           ;; regions. A replicated source holds the whole data set on every
           ;; thread, so one source thread is chosen round-robin; a striped
           ;; source contributes the (disjoint) intersections of its threads'
           ;; partitions, which are computed once per arc, not once per pair.
           (let* ((sthreads (range st))
                  (sregs (if (equal? ss "replicated")
                             nil
                             (map (lambda (i) (partition ss rows cols st i))
                                  sthreads))))
             (for-each
              (lambda (j)
                (let ((dreg (partition ds rows cols dt j)))
                  (if (equal? ss "replicated")
                      (emit-xfer bi (mod j st) j dreg)
                      (for-each
                       (lambda (i)
                         (let ((x (intersect (nth sregs i) dreg)))
                           (unless (null? x)
                             (emit-xfer bi i j x))))
                       sthreads))))
              (range dt))))))))
 arc-ids)
(emit-src "")

;; --- execution order ----------------------------------------------------------

(define order (topo-order))
(emit-format "(order ~a)" order)
(emit-src-format ";; execution order: ~a" order)
`

// standardSizes estimates the bytes StandardScript writes for in — its table
// source and its glue listing — line by line, from the thread, port and arc
// counts and the widths of the numbers each line prints, so that Generate
// allocates each text once instead of growing it by doubling. A number is
// counted at the width of the largest it can be, so the estimate errs high,
// by a few bytes a line.
func standardSizes(in Input) (table, glue int) {
	app := in.App
	roots := len(app.Name) + len(in.Platform.Name) + digits(in.NumNodes)
	table = 13 + roots
	glue = 33 + 37 + roots + 53 + 57 + 3
	nodeW := digits(in.NumNodes-1) + 1
	order := 2
	for _, f := range app.Functions {
		order += digits(f.ID) + 1
		line := digits(f.ID) + len(f.Name) + len(f.Kind) + digits(f.Threads) + 1 + f.Threads*nodeW
		table += 26 + line
		for k, v := range f.Params {
			table += len(k) + 6 + valueWidth(v)
		}
		glue += 31 + line
		for _, ports := range [2][]*model.Port{f.Inputs, f.Outputs} {
			for _, p := range ports {
				table += 24 + digits(f.ID) + len(p.Name) + digits(p.Type.Rows) + digits(p.Type.Cols) + len(p.Striping)
			}
		}
	}
	table += 9 + order
	glue += 21 + order
	for i, a := range app.Arcs {
		sp, dp := a.From, a.To
		sf, df := sp.Fn, dp.Fn
		rows, cols := sp.Type.Rows, sp.Type.Cols
		table += 2 * (digits(i) + 1) // i in both ports' buffer lists
		table += 22 + digits(i) + digits(sf.ID) + len(sp.Name) + digits(df.ID) + len(dp.Name) + digits(rows) + digits(cols)
		glue += 29 + digits(i) + len(sf.Name) + len(sp.Name) + len(sp.Striping) +
			len(df.Name) + len(dp.Name) + len(dp.Striping) + digits(rows) + digits(cols)
		xfer := 16 + digits(i) + digits(sf.Threads-1) + digits(df.Threads-1) +
			pieceWidth(rows, max(stripes(sp, model.ByRows), stripes(dp, model.ByRows))) +
			pieceWidth(cols, max(stripes(sp, model.ByCols), stripes(dp, model.ByCols)))
		table += xferCount(sp, dp) * xfer
	}
	return table, glue
}

// xferCount is how many transfers the standard script emits for an arc: one
// per destination thread from a replicated source, one per source thread
// into a replicated destination, one per piece of the two partitions of one
// axis merged, and one per pair of a row stripe and a column stripe.
func xferCount(src, dst *model.Port) int {
	st, dt := src.Fn.Threads, dst.Fn.Threads
	switch {
	case src.Striping == model.Replicated:
		return dt
	case dst.Striping == model.Replicated:
		return st
	case src.Striping == dst.Striping:
		return st + dt - gcd(st, dt)
	default:
		return st * dt
	}
}

// stripes is how many pieces port p's threads cut the axis striped by axis
// into.
func stripes(p *model.Port, axis model.StripeKind) int {
	if p.Striping == axis {
		return p.Fn.Threads
	}
	return 1
}

// pieceWidth is the width of the start and the length of a piece of n cut
// into k, as a region prints them, for the widest piece.
func pieceWidth(n, k int) int {
	start := 1
	if k > 1 {
		start = digits(n - n/k)
	}
	return start + digits((n+k-1)/k)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// digits is the width of n >= 0 printed in decimal.
func digits(n int) int {
	w := 1
	for ; n >= 10; n /= 10 {
		w++
	}
	return w
}

// valueWidth is about the width of a model parameter as the function table
// prints it.
func valueWidth(v any) int {
	switch x := v.(type) {
	case int:
		return digits(x)
	case string:
		return len(x) + 2
	default:
		return 24
	}
}

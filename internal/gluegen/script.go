package gluegen

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
;; and, via (emit-src ...), a human-readable glue listing.
;; ---------------------------------------------------------------------------

(define all-arcs (arcs))
(define num-arcs (length all-arcs))

(emit-src (format ";; SAGE auto-generated glue code"))
(emit-src (format ";; application: ~a   target: ~a (~a nodes)"
                  (app-name) (platform-name) (num-nodes)))
(emit-src "")

(emit-format "(app ~s ~s ~a)" (app-name) (platform-name) (num-nodes))

;; --- function table ---------------------------------------------------------

(define (port-buffers p)
  ;; Logical buffer IDs are arc indices; a port's buffers are the arcs that
  ;; touch it.
  (filter (lambda (i)
            (let ((a (nth all-arcs i)))
              (or (equal? (arc-from a) p) (equal? (arc-to a) p))))
          (range num-arcs)))

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
     (emit-src (format ";;  [~a] ~a  kind=~a threads=~a nodes=~a"
                       (function-id f) (function-name f) (function-kind f)
                       (function-threads f) nodes))))
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
           (emit-src (format ";;  buffer ~a: ~a.~a (~a) -> ~a.~a (~a), ~ax~a"
                             bi (function-name sf) (port-name sp) ss
                             (function-name df) (port-name dp) ds rows cols))
           ;; For each destination thread, tile its partition with source
           ;; regions. A replicated source holds the whole data set on every
           ;; thread, so one source thread is chosen round-robin; a striped
           ;; source contributes the (disjoint) intersections of its threads'
           ;; partitions, which are computed once per arc, not once per pair.
           (let ((sthreads (range st))
                 (sregs (if (equal? ss "replicated")
                            nil
                            (map (lambda (i) (partition ss rows cols st i))
                                 (range st)))))
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
 (range num-arcs))
(emit-src "")

;; --- execution order ----------------------------------------------------------

(emit-format "(order ~a)" (topo-order))
(emit-src (format ";; execution order: ~a" (topo-order)))
`

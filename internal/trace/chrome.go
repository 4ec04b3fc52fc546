package trace

import (
	"bufio"
	"cmp"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/sim"
)

// Event kinds, in their tie-break order at equal start time.
const (
	evSpan uint8 = iota
	evInstant
	evGauge
)

// evRef points at one recorded event of a run without copying it: kind
// selects the collector's spans, instants or gauges and idx the record.
type evRef struct {
	node       int
	track      string
	start, end sim.Time
	kind       uint8
	idx        int32
}

// eventRefs appends a reference to every span, instant and gauge of c.
func (c *Collector) eventRefs(refs []evRef) []evRef {
	refs = slices.Grow(refs, c.spans.len()+c.instants.len()+c.gauges.len())
	for i := range c.spans.len() {
		s := c.spans.at(i)
		refs = append(refs, evRef{s.Node, s.Track, s.Start, s.End, evSpan, int32(i)})
	}
	for i := range c.instants.len() {
		in := c.instants.at(i)
		refs = append(refs, evRef{in.Node, in.Track, in.At, in.At, evInstant, int32(i)})
	}
	for i := range c.gauges.len() {
		g := c.gauges.at(i)
		refs = append(refs, evRef{g.Node, g.Track, g.At, g.At, evGauge, int32(i)})
	}
	return refs
}

// compareRefs is the export order: by node, track and start time; at equal
// start spans come before instants and gauges, the outer (longer) span
// first. A track may carry both (the fault track mixes retry spans with
// drop instants), and ValidateChrome demands per-track monotonic
// timestamps. Kind and index make the order total: it is the order of
// appending spans, instants and gauges as recorded and sorting stably.
func compareRefs(a, b evRef) int {
	if a.node != b.node {
		return cmp.Compare(a.node, b.node)
	}
	if a.track != b.track {
		return strings.Compare(a.track, b.track)
	}
	if a.start != b.start {
		return cmp.Compare(a.start, b.start)
	}
	if aSpan, bSpan := a.kind == evSpan, b.kind == evSpan; aSpan != bSpan {
		if aSpan {
			return -1
		}
		return 1
	}
	if a.end != b.end {
		return cmp.Compare(b.end, a.end)
	}
	if a.kind != b.kind {
		return cmp.Compare(a.kind, b.kind)
	}
	return cmp.Compare(a.idx, b.idx)
}

// usec converts virtual nanoseconds to trace-event microseconds.
func usec(t sim.Time) float64 { return float64(t) / 1e3 }

// chromeWriter streams Chrome trace events, each appended by hand to one
// scratch buffer exactly as encoding/json renders the trace-event object
// {name, cat?, ph, ts, dur?, pid, tid, s?, args?} (ph is the phase: X
// complete, i instant, C counter, M metadata; ts/dur are microseconds).
// The first write error stops the export.
type chromeWriter struct {
	w    *bufio.Writer
	buf  []byte
	args bool // the current event's args object is open
	n    int  // events written
	err  error
}

// head starts an event with every field up to its args, leaving out an
// empty cat or s and a zero dur as omitempty does.
func (cw *chromeWriter) head(name string, cat Layer, ph byte, ts, dur float64, pid, tid int, s string) {
	b := cw.buf[:0]
	if cw.n > 0 {
		b = append(b, ",\n"...)
	}
	b = appendJSONString(append(b, `{"name":`...), name)
	if cat != "" {
		b = appendJSONString(append(b, `,"cat":`...), string(cat))
	}
	b = append(append(b, `,"ph":"`...), ph, '"')
	b = appendJSONFloat(append(b, `,"ts":`...), ts)
	if dur != 0 {
		b = appendJSONFloat(append(b, `,"dur":`...), dur)
	}
	b = strconv.AppendInt(append(b, `,"pid":`...), int64(pid), 10)
	b = strconv.AppendInt(append(b, `,"tid":`...), int64(tid), 10)
	if s != "" {
		b = appendJSONString(append(b, `,"s":`...), s)
	}
	cw.buf = b
}

// key appends one member key of the args object, opening it for the
// first. Members must come in sorted key order, as encoding/json sorts a
// map's keys.
func (cw *chromeWriter) key(k string) {
	if cw.args {
		cw.buf = append(cw.buf, ',')
	} else {
		cw.buf = append(cw.buf, `,"args":{`...)
		cw.args = true
	}
	cw.buf = append(append(append(cw.buf, '"'), k...), `":`...)
}

func (cw *chromeWriter) intArg(k string, v int64) {
	cw.key(k)
	cw.buf = strconv.AppendInt(cw.buf, v, 10)
}

func (cw *chromeWriter) stringArg(k, v string) {
	cw.key(k)
	cw.buf = appendJSONString(cw.buf, v)
}

// end closes the event and writes it.
func (cw *chromeWriter) end() {
	if cw.args {
		cw.buf = append(cw.buf, '}')
		cw.args = false
	}
	cw.buf = append(cw.buf, '}')
	_, cw.err = cw.w.Write(cw.buf)
	cw.n++
}

// appendJSONString appends s as encoding/json renders a string. Printable
// ASCII without <>&"\ and valid UTF-8 beyond it but U+2028/U+2029 — every
// name a trace records, a process name's "·" included — is copied as is;
// anything else is rendered by json.Marshal. Only such a name reaches
// encoding/json's pooled encoder, whose allocations the race detector makes
// random (it drops pooled items at will).
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf && c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if c < utf8.RuneSelf || r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
		i += size
	}
	return append(append(append(b, '"'), s...), '"')
}

// appendJSONFloat appends a finite f as encoding/json renders a float64:
// the shortest 'f' form, or the 'e' form below 1e-6 and from 1e21 on with
// a one-digit negative exponent unpadded (e-7, not e-07).
func appendJSONFloat(b []byte, f float64) []byte {
	if abs := math.Abs(f); abs == 0 || abs >= 1e-6 && abs < 1e21 {
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

func processName(label string, node int) string {
	if node == NodeKernel {
		return label + " · kernel"
	}
	return label + " · node " + strconv.Itoa(node)
}

// WriteChrome emits the merged trace as Chrome trace-event JSON (object
// form, with displayTimeUnit ns). Each run becomes its own group of
// processes — one per machine node plus a kernel process — so the
// per-run virtual clocks (which all start at zero) never interleave on a
// track. Within every track, events are emitted sorted by start time, so
// timestamps are monotonic per track (ValidateChrome checks this). Pids
// number the (run, node) processes and tids the tracks within a process,
// both from 1 in export order.
func (t *Trace) WriteChrome(w io.Writer) error {
	cw := &chromeWriter{w: bufio.NewWriter(w)}
	cw.w.WriteString("{\"traceEvents\":[\n")
	var refs []evRef
	pid := 0
	for runIdx, c := range t.Runs() {
		label := c.Label
		if label == "" {
			label = "run " + strconv.Itoa(runIdx)
		}
		refs = c.eventRefs(refs[:0])
		slices.SortFunc(refs, compareRefs)
		tid := 0
		for i, r := range refs {
			newNode := i == 0 || r.node != refs[i-1].node
			if newNode {
				pid, tid = pid+1, 0
				cw.head("process_name", "", 'M', 0, 0, pid, 0, "")
				cw.stringArg("name", processName(label, r.node))
				cw.end()
				cw.head("process_sort_index", "", 'M', 0, 0, pid, 0, "")
				cw.intArg("sort_index", int64(pid))
				cw.end()
			}
			if newNode || r.track != refs[i-1].track {
				tid++
				cw.head("thread_name", "", 'M', 0, 0, pid, tid, "")
				cw.stringArg("name", r.track)
				cw.end()
			}
			switch r.kind {
			case evSpan:
				s := c.spans.at(int(r.idx))
				cw.head(s.Name, s.Layer, 'X', usec(s.Start), float64(s.End.Sub(s.Start))/1e3, pid, tid, "")
				if s.Bytes >= 0 {
					cw.intArg("bytes", s.Bytes)
				}
				if s.Iter >= 0 {
					cw.intArg("iter", int64(s.Iter))
				}
				if s.Depth >= 0 {
					cw.intArg("queue_depth", int64(s.Depth))
				}
			case evInstant:
				in := c.instants.at(int(r.idx))
				cw.head(in.Name, in.Layer, 'i', usec(in.At), 0, pid, tid, "t")
				cw.intArg("value", int64(in.Value))
			default:
				g := c.gauges.at(int(r.idx))
				cw.head(g.Name, g.Layer, 'C', usec(g.At), 0, pid, tid, "")
				cw.intArg("value", int64(g.Value))
			}
			cw.end()
			if cw.err != nil {
				return cw.err
			}
		}
	}
	cw.w.WriteString("\n],\"displayTimeUnit\":\"ns\"}\n")
	return cw.w.Flush()
}

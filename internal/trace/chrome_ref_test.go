package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"repro/internal/sim"
)

// ReferenceChrome exposes the oracle to the package's external tests.
var ReferenceChrome = referenceChrome

// refChromeEvent is one trace event as the reference encoder marshals it.
type refChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// refChromeWriter assigns pid/tid numbers by map lookups and marshals every
// event with encoding/json.
type refChromeWriter struct {
	w    *bufio.Writer
	pids map[string]int // process key -> pid
	tids map[[2]any]int // (pid, track) -> tid
	n    int            // events written
	err  error
}

func (cw *refChromeWriter) emit(ev refChromeEvent) {
	if cw.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		cw.err = err
		return
	}
	if cw.n > 0 {
		cw.w.WriteString(",\n")
	}
	cw.w.Write(b)
	cw.n++
}

func (cw *refChromeWriter) pid(key, displayName string) int {
	if id, ok := cw.pids[key]; ok {
		return id
	}
	id := len(cw.pids) + 1
	cw.pids[key] = id
	cw.emit(refChromeEvent{Name: "process_name", Ph: "M", Pid: id, Tid: 0,
		Args: map[string]any{"name": displayName}})
	cw.emit(refChromeEvent{Name: "process_sort_index", Ph: "M", Pid: id, Tid: 0,
		Args: map[string]any{"sort_index": id}})
	return id
}

func (cw *refChromeWriter) tid(pid int, track string) int {
	key := [2]any{pid, track}
	if id, ok := cw.tids[key]; ok {
		return id
	}
	id := 0
	for k := range cw.tids {
		if k[0] == pid {
			id++
		}
	}
	id++ // tids are 1-based within the process
	cw.tids[key] = id
	cw.emit(refChromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: id,
		Args: map[string]any{"name": track}})
	return id
}

// referenceChrome is the Chrome exporter WriteChrome replaced: every span,
// instant and gauge copied into a per-track map, each track stably sorted
// and every event marshalled by reflection with a fresh args map. Its bytes
// are the specification WriteChrome's direct encoder must reproduce.
func referenceChrome(t *Trace, w io.Writer) error {
	cw := &refChromeWriter{w: bufio.NewWriter(w), pids: map[string]int{}, tids: map[[2]any]int{}}
	cw.w.WriteString("{\"traceEvents\":[\n")
	for runIdx, c := range t.Runs() {
		label := c.Label
		if label == "" {
			label = fmt.Sprintf("run %d", runIdx)
		}
		type trackKey struct {
			node  int
			track string
		}
		type trackEv struct {
			start, end sim.Time
			span       bool
			gauge      bool
			s          Span
			in         Instant
			g          Gauge
		}
		tracks := map[trackKey][]trackEv{}
		for _, s := range c.spans.appendTo(nil) {
			k := trackKey{s.Node, s.Track}
			tracks[k] = append(tracks[k], trackEv{start: s.Start, end: s.End, span: true, s: s})
		}
		for _, in := range c.instants.appendTo(nil) {
			k := trackKey{in.Node, in.Track}
			tracks[k] = append(tracks[k], trackEv{start: in.At, end: in.At, in: in})
		}
		for _, g := range c.gauges.appendTo(nil) {
			k := trackKey{g.Node, g.Track}
			tracks[k] = append(tracks[k], trackEv{start: g.At, end: g.At, gauge: true, g: g})
		}
		keys := make([]trackKey, 0, len(tracks))
		for k := range tracks {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].node != keys[j].node {
				return keys[i].node < keys[j].node
			}
			return keys[i].track < keys[j].track
		})
		for _, k := range keys {
			pid := cw.pid(fmt.Sprintf("r%d/n%d", runIdx, k.node), processName(label, k.node))
			tid := cw.tid(pid, k.track)
			evs := tracks[k]
			sort.SliceStable(evs, func(i, j int) bool {
				if evs[i].start != evs[j].start {
					return evs[i].start < evs[j].start
				}
				if evs[i].span != evs[j].span {
					return evs[i].span // spans before instants at equal time
				}
				return evs[i].end > evs[j].end // outer span first at equal start
			})
			for _, ev := range evs {
				if ev.gauge {
					cw.emit(refChromeEvent{Name: ev.g.Name, Cat: string(ev.g.Layer), Ph: "C",
						Ts: usec(ev.g.At), Pid: pid, Tid: tid,
						Args: map[string]any{"value": ev.g.Value}})
					continue
				}
				if !ev.span {
					cw.emit(refChromeEvent{Name: ev.in.Name, Cat: string(ev.in.Layer), Ph: "i",
						Ts: usec(ev.in.At), Pid: pid, Tid: tid, S: "t",
						Args: map[string]any{"value": ev.in.Value}})
					continue
				}
				s := ev.s
				args := map[string]any{}
				if s.Bytes >= 0 {
					args["bytes"] = s.Bytes
				}
				if s.Iter >= 0 {
					args["iter"] = s.Iter
				}
				if s.Depth >= 0 {
					args["queue_depth"] = s.Depth
				}
				if len(args) == 0 {
					args = nil
				}
				cw.emit(refChromeEvent{Name: s.Name, Cat: string(s.Layer), Ph: "X",
					Ts: usec(s.Start), Dur: float64(s.End.Sub(s.Start)) / 1e3, Pid: pid, Tid: tid, Args: args})
			}
		}
	}
	if cw.err != nil {
		return cw.err
	}
	cw.w.WriteString("\n],\"displayTimeUnit\":\"ns\"}\n")
	return cw.w.Flush()
}

// FuzzChromeString: the string appender renders every string exactly as
// encoding/json does, HTML escaping, control characters, invalid UTF-8 and
// U+2028/2029 included.
func FuzzChromeString(f *testing.F) {
	for _, s := range []string{"", "plain", `<>&"\`, "\x00\x01\b\f\n\r\t\x1f\x7f",
		"\xff\xfe bad \xc3", "line\u2028para\u2029", "run 0 · node 3", "recv b1 t2 #17"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("x"), s); !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Fatalf("appendJSONString(%q) = %s, want x%s", s, got, want)
		}
	})
}

// TestAppendJSONFloatMatchesMarshal: the float appender renders random
// finite float64 bit patterns, random nanosecond counts in microseconds and
// the edges of encoding/json's 'f'/'e' switch exactly as json.Marshal does.
// Timestamps come from integers, so non-finite values are out of scope.
func TestAppendJSONFloatMatchesMarshal(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 1e21, -1e21,
		math.Nextafter(1e21, 0), math.Nextafter(1e-6, 0), 5e-324, -5e-324,
		math.SmallestNonzeroFloat64 * 1e10, math.MaxFloat64, 0.001, 123456.789, 1e20}
	rng := rand.New(rand.NewSource(33))
	for len(vals) < 200000 {
		if f := math.Float64frombits(rng.Uint64()); !math.IsInf(f, 0) && !math.IsNaN(f) {
			vals = append(vals, f)
		}
		vals = append(vals, float64(rng.Int63())/1e3) // a timestamp's shape
	}
	for _, f := range vals {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONFloat(%s) = %s, want %s", strconv.FormatFloat(f, 'g', -1, 64), got, want)
		}
	}
}

// failAfter accepts n writes and fails the next.
type failAfter struct{ n int }

var errSinkFull = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n == 0 {
		return 0, errSinkFull
	}
	f.n--
	return len(p), nil
}

// bigCollector records n spans, instants and gauges each over a few nodes
// and tracks.
func bigCollector(n int) *Collector {
	c := New("big")
	for i := 0; i < n; i++ {
		node, track := i%4, ProcTrack("worker", i%3)
		at := sim.Time(i) * 1000
		c.Xfer(LayerSage, node, track, "send b0 t1", 4096, i, at, at+500)
		c.StreamPoint(node, "admit frame", at)
		c.StreamGauge(node, track, "qdepth s#0", i%5, at)
	}
	return c
}

// TestWriteChromeReportsWriteErrors: a failing writer's error comes back
// whichever buffered write fails: the first, a middle one or the final
// flush.
func TestWriteChromeReportsWriteErrors(t *testing.T) {
	tr := NewTrace()
	tr.Add(bigCollector(40))
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= 2*4096 {
		t.Fatalf("trace is %d bytes, want more than two 4096-byte buffers", buf.Len())
	}
	for n := 0; n < 3; n++ {
		if err := tr.WriteChrome(&failAfter{n: n}); !errors.Is(err, errSinkFull) {
			t.Fatalf("write %d failed but WriteChrome returned %v", n, err)
		}
	}
}

// TestAllocCeilingWriteChrome: exporting allocates per run and per process,
// not per event: ten times the events cost at most a few allocations more.
// It is 12 allocations, 13 under -race; while process names went through
// fmt.Sprintf and json.Marshal it was 24, and under -race a random 29–38,
// as the race detector drops pooled encoders at will.
func TestAllocCeilingWriteChrome(t *testing.T) {
	allocs := func(n int) float64 {
		tr := NewTrace()
		tr.Add(bigCollector(n))
		return testing.AllocsPerRun(5, func() {
			if err := tr.WriteChrome(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, ten := allocs(500), allocs(5000)
	t.Logf("WriteChrome: %.0f allocations for 1 500 events, %.0f for 15 000", one, ten)
	if ten > one+4 {
		t.Fatalf("10x the events allocate %.0f times, want <= %.0f", ten, one+4)
	}
}

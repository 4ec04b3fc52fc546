package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func ms(d int) sim.Time { return sim.Time(time.Duration(d) * time.Millisecond) }

// sampleCollector builds a collector covering every event kind.
func sampleCollector(label string) *Collector {
	c := New(label)
	c.ProcStart(1, "worker", 0)
	c.Phase(LayerSage, 0, ProcTrack("worker", 1), "recv", 0, ms(1), ms(2))
	c.Xfer(LayerSage, 0, ProcTrack("worker", 1), "send b0", 4096, 0, ms(2), ms(3))
	c.Collective(0, ProcTrack("worker", 1), "alltoall[bruck]", ms(3), ms(5))
	c.Wait(1, "worker", "recv", "mpi.rank0.recv(src=1,tag=7)", ms(5), ms(6), 0)
	c.Wait(1, "worker", "acquire", "CSPI.n0.cpu", ms(6), ms(7), 2)
	c.LinkTransfer(0, 1, 4096)
	c.LinkTransfer(0, 1, 1024)
	c.AddNodeTotals(NodeTotals{Node: 0, ComputeBusy: sim.Duration(time.Millisecond),
		MsgsSent: 2, BytesSent: 5120})
	c.ProcEnd(1, "worker", ms(8))
	c.elapsed = ms(8)
	c.dispatched = 42
	return c
}

// TestNilCollectorIsSafe pins the zero-overhead-when-disabled contract:
// every method of a nil *Collector must be a no-op, not a panic.
func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector reports enabled")
	}
	c.Span(LayerSim, 0, "t", "n", 0, 1)
	c.Phase(LayerSage, 0, "t", "n", 0, 0, 1)
	c.Xfer(LayerSage, 0, "t", "n", 10, 0, 0, 1)
	c.Collective(0, "t", "n", 0, 1)
	c.LinkTransfer(0, 1, 10)
	c.AddNodeTotals(NodeTotals{})
	c.Finish(sim.NewKernel())
	c.ProcStart(1, "p", 0)
	c.ProcEnd(1, "p", 1)
	c.Wait(1, "p", "recv", "ch", 0, 1, 0)
	c.ChanOp("send", "ch", 1, 0)
	c.ResourceOp("acquire", "r", 1, 1, 0, 0)
	if c.Spans() != nil || c.Nodes() != nil || c.Links() != nil || c.Waits() != nil || c.Collectives() != nil {
		t.Fatal("nil collector returned non-nil data")
	}
	// A nil collector added to a trace must be skipped.
	tr := NewTrace()
	tr.Add(nil)
	if len(tr.Runs()) != 0 {
		t.Fatalf("nil collector merged: %d runs", len(tr.Runs()))
	}
}

// TestWaitCounterNormalisation pins the counter-key scheme: endpoint detail
// in parentheses aggregates into one counter, while spans keep the full
// name; acquire waits stay counter-only unless Verbose.
func TestWaitCounterNormalisation(t *testing.T) {
	c := New("w")
	c.Wait(1, "p", "recv", "mpi.rank0.recv(src=1,tag=7)", 0, ms(1), 0)
	c.Wait(2, "q", "recv", "mpi.rank0.recv(src=3,tag=9)", 0, ms(2), 0)
	c.Wait(1, "p", "acquire", "CSPI.n0.cpu", 0, ms(4), 1)
	waits := c.Waits()
	if len(waits) != 2 {
		t.Fatalf("got %d wait keys, want 2 (endpoints should aggregate): %+v", len(waits), waits)
	}
	// Sorted by total descending: the 4ms acquire first.
	if waits[0].Key != "acquire CSPI.n0.cpu" || waits[0].Count != 1 {
		t.Fatalf("waits[0] = %+v", waits[0])
	}
	if waits[1].Key != "recv mpi.rank0.recv" || waits[1].Count != 2 || waits[1].Total != sim.Duration(3*time.Millisecond) {
		t.Fatalf("waits[1] = %+v", waits[1])
	}
	// Only the recv waits became spans (plus nothing else): acquire is
	// counter-only by default.
	for _, s := range c.Spans() {
		if strings.HasPrefix(s.Name, "wait:acquire") {
			t.Fatalf("acquire wait span recorded without Verbose: %+v", s)
		}
	}
	v := New("v")
	v.Verbose = true
	v.Wait(1, "p", "acquire", "CSPI.n0.cpu", 0, ms(1), 1)
	found := false
	for _, s := range v.Spans() {
		if strings.HasPrefix(s.Name, "wait:acquire") {
			found = true
		}
	}
	if !found {
		t.Fatal("Verbose collector dropped the acquire wait span")
	}
}

// TestChromeExportValidates pins the exporter against the validator: the
// output must be well-formed Chrome JSON with per-track monotonic
// timestamps and the expected layers.
func TestChromeExportValidates(t *testing.T) {
	tr := NewTrace()
	tr.Add(sampleCollector("run A"))
	tr.Add(sampleCollector("run B"))
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	stats, err := ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("exporter output rejected by validator: %v\n%s", err, buf.String())
	}
	for _, layer := range []string{"sim", "sagert", "mpi"} {
		if stats.Cats[layer] == 0 {
			t.Fatalf("no %s spans in export (cats: %v)", layer, stats.Cats)
		}
	}
	// Out-of-order recording must still export monotonically: spans are
	// sorted per track.
	c := New("ooo")
	c.Span(LayerSim, 0, "t", "late", ms(5), ms(6))
	c.Span(LayerSim, 0, "t", "early", ms(1), ms(2))
	tr2 := NewTrace()
	tr2.Add(c)
	buf.Reset()
	if err := tr2.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("out-of-order spans not sorted for export: %v", err)
	}
}

// TestChromeExportDeterministic pins byte-identical output for identical
// runs — the property the parallel-sweep merge relies on.
func TestChromeExportDeterministic(t *testing.T) {
	build := func() []byte {
		tr := NewTrace()
		tr.Add(sampleCollector("run A"))
		tr.Add(sampleCollector("run B"))
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("two identical traces exported different bytes")
	}
}

// TestValidateChromeRejects pins the validator's negative cases.
func TestValidateChromeRejects(t *testing.T) {
	cases := map[string]string{
		"garbage":       "not json",
		"no events":     `{"traceEvents":[]}`,
		"missing ph":    `{"traceEvents":[{"name":"a","ts":1,"pid":1,"tid":1}]}`,
		"unknown phase": `{"traceEvents":[{"name":"a","ph":"Z","ts":1,"pid":1,"tid":1}]}`,
		"negative ts":   `{"traceEvents":[{"name":"a","ph":"X","ts":-1,"dur":1,"pid":1,"tid":1}]}`,
		"non-monotonic": `{"traceEvents":[{"name":"a","ph":"X","ts":5,"dur":1,"pid":1,"tid":1},{"name":"b","ph":"X","ts":2,"dur":1,"pid":1,"tid":1}]}`,
	}
	for name, src := range cases {
		if _, err := ValidateChrome([]byte(src)); err == nil {
			t.Errorf("%s: validator accepted %s", name, src)
		}
	}
}

// TestReadChromeRejects pins the reader's negative cases beyond the
// validator's, which it shares, and its reading of a minimal file.
func TestReadChromeRejects(t *testing.T) {
	const proc = `{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"r · node 2"}},` +
		`{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"w #4"}}`
	cases := map[string]string{
		"invalid":            `{"traceEvents":[{"name":"a","ph":"X","ts":1,"dur":-1,"pid":1,"tid":1}]}`,
		"no process name":    `{"traceEvents":[{"name":"a","ph":"X","ts":1,"pid":1,"tid":1}]}`,
		"no thread name":     `{"traceEvents":[` + proc + `,{"name":"a","ph":"X","ts":1,"pid":1,"tid":2}]}`,
		"bad process name":   `{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"r · node x"}}]}`,
		"unwritten phase":    `{"traceEvents":[` + proc + `,{"name":"a","ph":"B","ts":1,"pid":1,"tid":1}]}`,
		"mistyped args":      `{"traceEvents":[` + proc + `,{"name":"a","ph":"X","ts":1,"pid":1,"tid":1,"args":{"iter":"x"}}]}`,
		"beyond the clock":   `{"traceEvents":[` + proc + `,{"name":"a","ph":"X","ts":1e300,"pid":1,"tid":1}]}`,
		"duration overflows": `{"traceEvents":[` + proc + `,{"name":"a","ph":"X","ts":1,"dur":1e16,"pid":1,"tid":1}]}`,
	}
	for name, src := range cases {
		if _, err := ReadChrome([]byte(src)); err == nil {
			t.Errorf("%s: reader accepted %s", name, src)
		}
	}
	tr, err := ReadChrome([]byte(`{"traceEvents":[` + proc + `,{"name":"a","cat":"sagert","ph":"X","ts":0.001,"dur":2.5,"pid":1,"tid":1,"args":{"iter":3}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	want := Span{Layer: LayerSage, Node: 2, Track: "w #4", Name: "a", Start: 1, End: 2501, Bytes: -1, Iter: 3, Depth: -1}
	if runs := tr.Runs(); len(runs) != 1 || runs[0].Label != "r" || len(runs[0].Spans()) != 1 || runs[0].Spans()[0] != want {
		t.Fatalf("read %+v", runs)
	}
}

// TestSummaryIncludesRunSections smoke-tests the text summary.
func TestSummaryIncludesRunSections(t *testing.T) {
	tr := NewTrace()
	tr.Add(sampleCollector("summary run"))
	var buf bytes.Buffer
	if err := tr.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"summary run", "alltoall[bruck]", "recv mpi.rank0.recv", "0->1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestProcLifetimeSpan pins the ProcStart/ProcEnd pairing.
func TestProcLifetimeSpan(t *testing.T) {
	c := New("p")
	c.ProcStart(3, "thread", ms(1))
	c.ProcEnd(3, "thread", ms(9))
	spans := c.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Name != "proc thread" || s.Start != ms(1) || s.End != ms(9) || s.Node != NodeKernel {
		t.Fatalf("lifetime span = %+v", s)
	}
}

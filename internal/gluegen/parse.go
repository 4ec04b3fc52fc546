package gluegen

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/alter"
	"repro/internal/model"
)

// ParseTableSource parses the s-expression runtime-table source emitted by a
// generator script back into Tables. The grammar is documented on
// StandardScript. It reads the source in one pass of typed reads on an
// alter.Scanner — the lexer alter.ReadAll runs on, so both read one lexical
// language — straight into the tables, and builds no Value tree: only a
// parameter's value is read as one datum. Every error names the line of the
// form it is in. DESIGN.md §16.
func ParseTableSource(src string) (*Tables, error) {
	p := &tableReader{s: alter.NewScanner(src), t: &Tables{}}
	// Every xfer directive spells xfer, so the source's transfers fit in
	// one array of this capacity.
	xfers := make([]Transfer, 0, strings.Count(src, "xfer"))
	sawApp := false
	for p.err == nil && p.s.More() {
		p.line, p.form = p.s.Line(), "a directive is (name field ...)"
		if !p.open() {
			p.fail("%s", p.form)
		}
		head, err := p.s.Symbol()
		p.check(err)
		switch head {
		case "app":
			p.form = "app wants name, platform, nodes"
			p.t.AppName, p.t.Platform, p.t.NumNodes = p.str(), p.str(), p.int()
			sawApp = true
		case "function":
			p.function()
		case "inport", "outport":
			p.port(head == "inport")
		case "buffer":
			p.buffer()
		case "xfer":
			xfers = append(xfers, p.xfer())
		case "order":
			p.form = "order wants one ID list"
			p.t.Order = p.ints()
		default:
			p.fail("unknown table directive %q", head)
		}
		p.end(p.form)
	}
	if !sawApp && p.err == nil {
		p.line = p.s.Line()
		p.fail("table source missing (app ...) header")
	}
	if p.err != nil {
		return nil, p.err
	}
	p.t.assignTransfers(xfers)
	return p.t, nil
}

// tableReader is ParseTableSource's state. Only its first error counts, so
// a directive reads as a straight run of fields, checked at its end.
type tableReader struct {
	s    *alter.Scanner
	t    *Tables
	line int    // where the directive being read starts
	form string // what it holds, for one that is cut short or runs on
	ids  []int  // an ID list being read
	err  error
}

// fail records the first error, naming the line of the directive being read.
func (p *tableReader) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("gluegen: line %d: "+format, append([]any{p.line}, args...)...)
	}
}

// check records an error of the scanner's.
func (p *tableReader) check(err error) {
	if err != nil {
		p.fail("%s: %w", p.form, err)
	}
}

// open reads the start of a list, reporting whether it has elements to read:
// nil reads as the empty list.
func (p *tableReader) open() bool {
	open, err := p.s.Open()
	p.check(err)
	return open
}

// closed reports whether the list being read ends here, consuming its ')'.
// It also reports true once reading has failed, ending a loop over a list.
func (p *tableReader) closed() bool {
	if p.err != nil {
		return true
	}
	closed, err := p.s.Close()
	p.check(err)
	return closed || err != nil
}

// end closes a list, failing with what it holds if it runs on.
func (p *tableReader) end(holds string) {
	if !p.closed() {
		p.fail("%s", holds)
	}
}

func (p *tableReader) int() int {
	n, err := p.s.Int()
	p.check(err)
	return int(n)
}

func (p *tableReader) str() string {
	s, err := p.s.Str()
	p.check(err)
	return s
}

// ints reads an ID list, at exact capacity.
func (p *tableReader) ints() []int {
	p.ids = p.ids[:0]
	for open := p.open(); open && !p.closed(); {
		p.ids = append(p.ids, p.int())
	}
	return append(make([]int, 0, len(p.ids)), p.ids...)
}

func (p *tableReader) function() {
	p.form = "function wants id, name, kind, threads, nodes, params, probe"
	fe := FuncEntry{ID: p.int(), Name: p.str(), Kind: p.str(), Threads: p.int(), Nodes: p.ints(), Params: p.params()}
	var err error
	fe.Probe, err = p.s.Bool()
	p.check(err)
	if p.err == nil && fe.ID != len(p.t.Functions) {
		p.fail("function ID %d out of sequence (expected %d)", fe.ID, len(p.t.Functions))
	}
	p.t.Functions = append(p.t.Functions, fe)
}

// params reads a function's ((key value) ...) list. A value is any datum,
// read whole: the one place the table reader builds Values.
func (p *tableReader) params() map[string]any {
	params := map[string]any{}
	for open := p.open(); open && !p.closed(); {
		if !p.open() {
			p.fail("param entry is not (key value)")
		}
		key := p.str()
		v, err := p.s.Read()
		p.check(err)
		params[key] = alterToGo(v)
		p.end("param entry is not (key value)")
	}
	return params
}

func (p *tableReader) port(isInput bool) {
	p.form = "port wants fn-id, name, rows, cols, elem-bytes, striping, buffers"
	fnID := p.int()
	pe := PortEntry{Name: p.str(), Rows: p.int(), Cols: p.int(), ElemBytes: p.int(), Striping: model.StripeKind(p.str()), Buffers: p.ints()}
	switch {
	case p.err != nil:
	case fnID < 0 || fnID >= len(p.t.Functions):
		p.fail("port of unknown function %d", fnID)
	case !model.ValidStripe(pe.Striping):
		p.fail("invalid striping %q", pe.Striping)
	case isInput:
		p.t.Functions[fnID].Ins = append(p.t.Functions[fnID].Ins, pe)
	default:
		p.t.Functions[fnID].Outs = append(p.t.Functions[fnID].Outs, pe)
	}
}

func (p *tableReader) buffer() {
	p.form = "buffer wants id, src-fn, src-port, dst-fn, dst-port, rows, cols, elem-bytes"
	be := BufferEntry{ID: p.int(), SrcFn: p.int(), SrcPort: p.str(), DstFn: p.int(), DstPort: p.str(),
		Rows: p.int(), Cols: p.int(), ElemBytes: p.int()}
	if p.err == nil && be.ID != len(p.t.Buffers) {
		p.fail("buffer ID %d out of sequence (expected %d)", be.ID, len(p.t.Buffers))
	}
	p.t.Buffers = append(p.t.Buffers, be)
}

// xfer reads a transfer whose Bytes, until assignTransfers, holds the ID of
// its buffer.
func (p *tableReader) xfer() Transfer {
	p.form = "xfer wants buffer-id, src-thread, dst-thread, region"
	buf := p.int()
	x := Transfer{SrcThread: p.int(), DstThread: p.int(), Bytes: buf}
	if !p.open() {
		p.fail("region wants r0, c0, rows, cols")
	}
	x.Region = model.Region{R0: p.int(), C0: p.int(), Rows: p.int(), Cols: p.int()}
	p.end("region wants r0, c0, rows, cols")
	if p.err == nil && (buf < 0 || buf >= len(p.t.Buffers)) {
		p.fail("xfer references unknown buffer %d", buf)
	}
	return x
}

// assignTransfers hands each buffer its run of xfers, as xfer read them, in
// source order — sorting them stably by buffer in place first if a
// hand-written source interleaves buffers — and sets their Bytes. A run is
// sliced at its own length, so an append to one buffer's transfers
// reallocates instead of overwriting the next buffer's.
func (t *Tables) assignTransfers(xfers []Transfer) {
	byBuffer := func(a, b Transfer) int { return cmp.Compare(a.Bytes, b.Bytes) }
	if !slices.IsSortedFunc(xfers, byBuffer) {
		slices.SortStableFunc(xfers, byBuffer)
	}
	for i := range xfers {
		b := &t.Buffers[xfers[i].Bytes]
		xfers[i].Bytes = xfers[i].Region.Elems() * b.ElemBytes
		b.Transfers = xfers[i-len(b.Transfers) : i+1 : i+1]
	}
}

// standardProgram is StandardScript compiled once per process. A compiled
// program holds no run state (each generation's globals, frames and step
// count live in its own interpreter), so every goroutine generating shares
// this one.
var standardProgram = alter.MustCompile(StandardScript)

// Generate runs the standard Alter generator over the input and returns the
// verified tables plus both source artifacts.
func Generate(in Input) (*Output, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	return generate(in, standardProgram)
}

// GenerateWith runs a custom Alter generator script. The script sees the
// model through the standard calls and must emit table source (see
// StandardScript for the grammar); the result is parsed and verified before
// being returned.
func GenerateWith(in Input, script string) (*Output, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	program, err := alter.Compile(script)
	if err != nil {
		return nil, fmt.Errorf("gluegen: generator script failed: %w", err)
	}
	return generate(in, program)
}

// generate runs a compiled generator over a validated input.
func generate(in Input, program *alter.Program) (*Output, error) {
	interp, table, glue := NewInterp(in)
	if program == standardProgram {
		t, g := standardSizes(in)
		table.Grow(t)
		glue.Grow(g)
	}
	interp.MaxSteps = 50_000_000 // generation over large models is bounded work
	if _, err := interp.Run(program); err != nil {
		return nil, fmt.Errorf("gluegen: generator script failed: %w", err)
	}
	tableSrc := table.String()
	tables, err := ParseTableSource(tableSrc)
	if err != nil {
		return nil, err
	}
	if err := tables.Verify(); err != nil {
		return nil, fmt.Errorf("gluegen: generated tables failed verification: %w", err)
	}
	return &Output{Tables: tables, TableSource: tableSrc, GlueSource: glue.String()}, nil
}

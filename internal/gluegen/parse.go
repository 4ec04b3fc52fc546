package gluegen

import (
	"fmt"
	"strings"

	"repro/internal/alter"
	"repro/internal/model"
)

// ParseTableSource parses the s-expression runtime-table source emitted by a
// generator script back into Tables. The grammar is documented on
// StandardScript.
func ParseTableSource(src string) (*Tables, error) {
	forms, err := alter.ReadAll(src)
	if err != nil {
		return nil, fmt.Errorf("gluegen: parsing table source: %w", err)
	}
	t := &Tables{}
	sawApp := false
	for _, form := range forms {
		l, ok := form.(alter.List)
		if !ok || len(l) == 0 {
			return nil, fmt.Errorf("gluegen: table source form %s is not a directive", alter.Format(form))
		}
		head, err := alter.AsSymbol(l[0])
		if err != nil {
			return nil, fmt.Errorf("gluegen: table source form %s: %w", alter.Format(form), err)
		}
		switch head {
		case "app":
			if err := parseApp(t, l); err != nil {
				return nil, err
			}
			sawApp = true
		case "function":
			if err := parseFunction(t, l); err != nil {
				return nil, err
			}
		case "inport", "outport":
			if err := parsePort(t, l, head == "inport"); err != nil {
				return nil, err
			}
		case "buffer":
			if err := parseBuffer(t, l); err != nil {
				return nil, err
			}
		case "xfer":
			if err := parseXfer(t, l); err != nil {
				return nil, err
			}
		case "order":
			if err := parseOrder(t, l); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("gluegen: unknown table directive %q", head)
		}
	}
	if !sawApp {
		return nil, fmt.Errorf("gluegen: table source missing (app ...) header")
	}
	return t, nil
}

func formErr(l alter.List, format string, args ...any) error {
	return fmt.Errorf("gluegen: %s in %s", fmt.Sprintf(format, args...), alter.Format(l))
}

func intAt(l alter.List, i int) (int, error) {
	n, err := alter.AsInt(l[i])
	return int(n), err
}

func stringAt(l alter.List, i int) (string, error) {
	return alter.AsString(l[i])
}

func intListAt(l alter.List, i int) ([]int, error) {
	items, err := alter.AsList(l[i])
	if err != nil {
		return nil, err
	}
	out := make([]int, len(items))
	for j, v := range items {
		n, err := alter.AsInt(v)
		if err != nil {
			return nil, err
		}
		out[j] = int(n)
	}
	return out, nil
}

func parseApp(t *Tables, l alter.List) error {
	if len(l) != 4 {
		return formErr(l, "app wants name, platform, nodes")
	}
	var err error
	if t.AppName, err = stringAt(l, 1); err != nil {
		return err
	}
	if t.Platform, err = stringAt(l, 2); err != nil {
		return err
	}
	if t.NumNodes, err = intAt(l, 3); err != nil {
		return err
	}
	return nil
}

func parseFunction(t *Tables, l alter.List) error {
	if len(l) != 8 {
		return formErr(l, "function wants id, name, kind, threads, nodes, params, probe")
	}
	var fe FuncEntry
	var err error
	if fe.ID, err = intAt(l, 1); err != nil {
		return err
	}
	if fe.Name, err = stringAt(l, 2); err != nil {
		return err
	}
	if fe.Kind, err = stringAt(l, 3); err != nil {
		return err
	}
	if fe.Threads, err = intAt(l, 4); err != nil {
		return err
	}
	if fe.Nodes, err = intListAt(l, 5); err != nil {
		return err
	}
	params, err := alter.AsList(l[6])
	if err != nil {
		return err
	}
	fe.Params = map[string]any{}
	for _, entry := range params {
		pair, ok := entry.(alter.List)
		if !ok || len(pair) != 2 {
			return formErr(l, "param entry %s is not (key value)", alter.Format(entry))
		}
		key, err := alter.AsString(pair[0])
		if err != nil {
			return err
		}
		fe.Params[key] = alterToGo(pair[1])
	}
	probe, ok := l[7].(bool)
	if !ok {
		return formErr(l, "probe flag is %s", alter.TypeName(l[7]))
	}
	fe.Probe = probe
	if fe.ID != len(t.Functions) {
		return formErr(l, "function ID %d out of sequence (expected %d)", fe.ID, len(t.Functions))
	}
	t.Functions = append(t.Functions, fe)
	return nil
}

func parsePort(t *Tables, l alter.List, isInput bool) error {
	if len(l) != 8 {
		return formErr(l, "port wants fn-id, name, rows, cols, elem-bytes, striping, buffers")
	}
	fnID, err := intAt(l, 1)
	if err != nil {
		return err
	}
	fe, err := t.Function(fnID)
	if err != nil {
		return err
	}
	var pe PortEntry
	if pe.Name, err = stringAt(l, 2); err != nil {
		return err
	}
	if pe.Rows, err = intAt(l, 3); err != nil {
		return err
	}
	if pe.Cols, err = intAt(l, 4); err != nil {
		return err
	}
	if pe.ElemBytes, err = intAt(l, 5); err != nil {
		return err
	}
	s, err := stringAt(l, 6)
	if err != nil {
		return err
	}
	pe.Striping = model.StripeKind(s)
	if !model.ValidStripe(pe.Striping) {
		return formErr(l, "invalid striping %q", s)
	}
	if pe.Buffers, err = intListAt(l, 7); err != nil {
		return err
	}
	if isInput {
		fe.Ins = append(fe.Ins, pe)
	} else {
		fe.Outs = append(fe.Outs, pe)
	}
	return nil
}

func parseBuffer(t *Tables, l alter.List) error {
	if len(l) != 9 {
		return formErr(l, "buffer wants id, src-fn, src-port, dst-fn, dst-port, rows, cols, elem-bytes")
	}
	var be BufferEntry
	var err error
	if be.ID, err = intAt(l, 1); err != nil {
		return err
	}
	if be.SrcFn, err = intAt(l, 2); err != nil {
		return err
	}
	if be.SrcPort, err = stringAt(l, 3); err != nil {
		return err
	}
	if be.DstFn, err = intAt(l, 4); err != nil {
		return err
	}
	if be.DstPort, err = stringAt(l, 5); err != nil {
		return err
	}
	if be.Rows, err = intAt(l, 6); err != nil {
		return err
	}
	if be.Cols, err = intAt(l, 7); err != nil {
		return err
	}
	if be.ElemBytes, err = intAt(l, 8); err != nil {
		return err
	}
	if be.ID != len(t.Buffers) {
		return formErr(l, "buffer ID %d out of sequence (expected %d)", be.ID, len(t.Buffers))
	}
	t.Buffers = append(t.Buffers, be)
	return nil
}

func parseXfer(t *Tables, l alter.List) error {
	if len(l) != 5 {
		return formErr(l, "xfer wants buffer-id, src-thread, dst-thread, region")
	}
	bufID, err := intAt(l, 1)
	if err != nil {
		return err
	}
	if bufID < 0 || bufID >= len(t.Buffers) {
		return formErr(l, "xfer references unknown buffer %d", bufID)
	}
	var x Transfer
	if x.SrcThread, err = intAt(l, 2); err != nil {
		return err
	}
	if x.DstThread, err = intAt(l, 3); err != nil {
		return err
	}
	if x.Region, err = listToRegion(l[4]); err != nil {
		return err
	}
	buf := &t.Buffers[bufID]
	x.Bytes = x.Region.Elems() * buf.ElemBytes
	buf.Transfers = append(buf.Transfers, x)
	return nil
}

func parseOrder(t *Tables, l alter.List) error {
	if len(l) != 2 {
		return formErr(l, "order wants one ID list")
	}
	ids, err := intListAt(l, 1)
	if err != nil {
		return err
	}
	t.Order = ids
	return nil
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
	interp := alter.New()
	interp.MaxSteps = 50_000_000 // generation over large models is bounded work
	var tableSrc, glueSrc strings.Builder
	BindModel(interp, in, &tableSrc, &glueSrc)
	if _, err := interp.Run(program); err != nil {
		return nil, fmt.Errorf("gluegen: generator script failed: %w", err)
	}
	tables, err := ParseTableSource(tableSrc.String())
	if err != nil {
		return nil, err
	}
	if err := tables.Verify(); err != nil {
		return nil, fmt.Errorf("gluegen: generated tables failed verification: %w", err)
	}
	return &Output{Tables: tables, TableSource: tableSrc.String(), GlueSource: glueSrc.String()}, nil
}

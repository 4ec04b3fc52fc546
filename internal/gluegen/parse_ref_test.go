package gluegen

import (
	"fmt"

	"repro/internal/alter"
	"repro/internal/model"
)

// ReferenceParseTableSource and DecodeFuzzCorpus serve the external test
// package, which can import the conformance generator without an import
// cycle.
var (
	ReferenceParseTableSource = referenceParseTableSource
	DecodeFuzzCorpus          = decodeFuzzCorpus
)

// referenceParseTableSource is the table parser ParseTableSource replaced,
// kept as its oracle: it reads the whole source into an alter.Value tree with
// alter.ReadAll, then walks the tree. ParseTableSource must reject what it
// rejects and accept the rest into reflect.DeepEqual tables (error texts may
// differ); TestParseTableSourceMatchesReference and its fuzz target hold the
// two to that.
func referenceParseTableSource(src string) (*Tables, error) {
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
			if err := refParseApp(t, l); err != nil {
				return nil, err
			}
			sawApp = true
		case "function":
			if err := refParseFunction(t, l); err != nil {
				return nil, err
			}
		case "inport", "outport":
			if err := refParsePort(t, l, head == "inport"); err != nil {
				return nil, err
			}
		case "buffer":
			if err := refParseBuffer(t, l); err != nil {
				return nil, err
			}
		case "xfer":
			if err := refParseXfer(t, l); err != nil {
				return nil, err
			}
		case "order":
			if err := refParseOrder(t, l); err != nil {
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

func refFormErr(l alter.List, format string, args ...any) error {
	return fmt.Errorf("gluegen: %s in %s", fmt.Sprintf(format, args...), alter.Format(l))
}

func refIntAt(l alter.List, i int) (int, error) {
	n, err := alter.AsInt(l[i])
	return int(n), err
}

func refStringAt(l alter.List, i int) (string, error) {
	return alter.AsString(l[i])
}

func refIntListAt(l alter.List, i int) ([]int, error) {
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

func refParseApp(t *Tables, l alter.List) error {
	if len(l) != 4 {
		return refFormErr(l, "app wants name, platform, nodes")
	}
	var err error
	if t.AppName, err = refStringAt(l, 1); err != nil {
		return err
	}
	if t.Platform, err = refStringAt(l, 2); err != nil {
		return err
	}
	if t.NumNodes, err = refIntAt(l, 3); err != nil {
		return err
	}
	return nil
}

func refParseFunction(t *Tables, l alter.List) error {
	if len(l) != 8 {
		return refFormErr(l, "function wants id, name, kind, threads, nodes, params, probe")
	}
	var fe FuncEntry
	var err error
	if fe.ID, err = refIntAt(l, 1); err != nil {
		return err
	}
	if fe.Name, err = refStringAt(l, 2); err != nil {
		return err
	}
	if fe.Kind, err = refStringAt(l, 3); err != nil {
		return err
	}
	if fe.Threads, err = refIntAt(l, 4); err != nil {
		return err
	}
	if fe.Nodes, err = refIntListAt(l, 5); err != nil {
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
			return refFormErr(l, "param entry %s is not (key value)", alter.Format(entry))
		}
		key, err := alter.AsString(pair[0])
		if err != nil {
			return err
		}
		fe.Params[key] = alterToGo(pair[1])
	}
	probe, ok := l[7].(bool)
	if !ok {
		return refFormErr(l, "probe flag is %s", alter.TypeName(l[7]))
	}
	fe.Probe = probe
	if fe.ID != len(t.Functions) {
		return refFormErr(l, "function ID %d out of sequence (expected %d)", fe.ID, len(t.Functions))
	}
	t.Functions = append(t.Functions, fe)
	return nil
}

func refParsePort(t *Tables, l alter.List, isInput bool) error {
	if len(l) != 8 {
		return refFormErr(l, "port wants fn-id, name, rows, cols, elem-bytes, striping, buffers")
	}
	fnID, err := refIntAt(l, 1)
	if err != nil {
		return err
	}
	fe, err := t.Function(fnID)
	if err != nil {
		return err
	}
	var pe PortEntry
	if pe.Name, err = refStringAt(l, 2); err != nil {
		return err
	}
	if pe.Rows, err = refIntAt(l, 3); err != nil {
		return err
	}
	if pe.Cols, err = refIntAt(l, 4); err != nil {
		return err
	}
	if pe.ElemBytes, err = refIntAt(l, 5); err != nil {
		return err
	}
	s, err := refStringAt(l, 6)
	if err != nil {
		return err
	}
	pe.Striping = model.StripeKind(s)
	if !model.ValidStripe(pe.Striping) {
		return refFormErr(l, "invalid striping %q", s)
	}
	if pe.Buffers, err = refIntListAt(l, 7); err != nil {
		return err
	}
	if isInput {
		fe.Ins = append(fe.Ins, pe)
	} else {
		fe.Outs = append(fe.Outs, pe)
	}
	return nil
}

func refParseBuffer(t *Tables, l alter.List) error {
	if len(l) != 9 {
		return refFormErr(l, "buffer wants id, src-fn, src-port, dst-fn, dst-port, rows, cols, elem-bytes")
	}
	var be BufferEntry
	var err error
	if be.ID, err = refIntAt(l, 1); err != nil {
		return err
	}
	if be.SrcFn, err = refIntAt(l, 2); err != nil {
		return err
	}
	if be.SrcPort, err = refStringAt(l, 3); err != nil {
		return err
	}
	if be.DstFn, err = refIntAt(l, 4); err != nil {
		return err
	}
	if be.DstPort, err = refStringAt(l, 5); err != nil {
		return err
	}
	if be.Rows, err = refIntAt(l, 6); err != nil {
		return err
	}
	if be.Cols, err = refIntAt(l, 7); err != nil {
		return err
	}
	if be.ElemBytes, err = refIntAt(l, 8); err != nil {
		return err
	}
	if be.ID != len(t.Buffers) {
		return refFormErr(l, "buffer ID %d out of sequence (expected %d)", be.ID, len(t.Buffers))
	}
	t.Buffers = append(t.Buffers, be)
	return nil
}

func refParseXfer(t *Tables, l alter.List) error {
	if len(l) != 5 {
		return refFormErr(l, "xfer wants buffer-id, src-thread, dst-thread, region")
	}
	bufID, err := refIntAt(l, 1)
	if err != nil {
		return err
	}
	if bufID < 0 || bufID >= len(t.Buffers) {
		return refFormErr(l, "xfer references unknown buffer %d", bufID)
	}
	var x Transfer
	if x.SrcThread, err = refIntAt(l, 2); err != nil {
		return err
	}
	if x.DstThread, err = refIntAt(l, 3); err != nil {
		return err
	}
	if x.Region, err = asRegion(l[4]); err != nil {
		return err
	}
	buf := &t.Buffers[bufID]
	x.Bytes = x.Region.Elems() * buf.ElemBytes
	buf.Transfers = append(buf.Transfers, x)
	return nil
}

func refParseOrder(t *Tables, l alter.List) error {
	if len(l) != 2 {
		return refFormErr(l, "order wants one ID list")
	}
	ids, err := refIntListAt(l, 1)
	if err != nil {
		return err
	}
	t.Order = ids
	return nil
}

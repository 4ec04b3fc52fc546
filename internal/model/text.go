package model

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// Textual model format. The Designer's graphical models serialise to a
// line-oriented form so they can be stored, diffed and re-loaded ("stored on
// software and hardware shelves for later reuse", §1.1). Composite blocks
// are expanded by Flatten before saving; the on-disk form holds only leaf
// functions.
//
//	app <name>
//	type <name> <rows> <cols> <elem>
//	function <name> <kind> threads <n>
//	  param <key> <value>
//	  prop <key> <value>
//	  in <port> <type> <striping>
//	  out <port> <type> <striping>
//	arc <fn>.<port> -> <fn>.<port>
//
// Mapping files:
//
//	mapping <appname>
//	map <function> <node> [<node> ...]

// WriteText serialises the application model.
func (a *App) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "app %s\n", a.Name)
	for _, n := range slices.Sorted(maps.Keys(a.Types)) {
		t := a.Types[n]
		fmt.Fprintf(bw, "type %s %d %d %s\n", t.Name, t.Rows, t.Cols, t.Elem)
	}
	for _, f := range a.Functions {
		if f.IsComposite() {
			return fmt.Errorf("model: cannot serialise composite function %q; flatten first", f.Name)
		}
		fmt.Fprintf(bw, "function %s %s threads %d\n", f.Name, f.Kind, f.Threads)
		for _, k := range slices.Sorted(maps.Keys(f.Params)) {
			fmt.Fprintf(bw, "  param %s %v\n", k, f.Params[k])
		}
		for _, k := range slices.Sorted(maps.Keys(f.Props)) {
			fmt.Fprintf(bw, "  prop %s %v\n", k, f.Props[k])
		}
		for _, p := range f.Inputs {
			fmt.Fprintf(bw, "  in %s %s %s\n", p.Name, p.Type.Name, p.Striping)
		}
		for _, p := range f.Outputs {
			fmt.Fprintf(bw, "  out %s %s %s\n", p.Name, p.Type.Name, p.Striping)
		}
	}
	for _, arc := range a.Arcs {
		fmt.Fprintf(bw, "arc %s -> %s\n", arc.From.QualifiedName(), arc.To.QualifiedName())
	}
	return bw.Flush()
}

// parseScalar interprets a textual param/prop value as int, float or string.
func parseScalar(s string) any {
	if i, err := strconv.Atoi(s); err == nil {
		return i
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f
	}
	if s == "true" {
		return true
	}
	if s == "false" {
		return false
	}
	return s
}

// ReadText parses a serialised application model.
func ReadText(r io.Reader) (*App, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var app *App
	var cur *Function
	lineNo := 0
	fail := func(format string, args ...any) (*App, error) {
		return nil, fmt.Errorf("model: line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "app":
			if len(fields) != 2 {
				return fail("app wants 1 argument")
			}
			if app != nil {
				return fail("duplicate app line")
			}
			app = NewApp(fields[1])
		case "type":
			if app == nil {
				return fail("type before app")
			}
			if len(fields) != 5 {
				return fail("type wants: name rows cols elem")
			}
			rows, err1 := strconv.Atoi(fields[2])
			cols, err2 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil {
				return fail("bad type shape %q %q", fields[2], fields[3])
			}
			if _, err := app.AddType(&DataType{Name: fields[1], Rows: rows, Cols: cols, Elem: ElemKind(fields[4])}); err != nil {
				return fail("%v", err)
			}
		case "function":
			if app == nil {
				return fail("function before app")
			}
			if len(fields) != 5 || fields[3] != "threads" {
				return fail("function wants: name kind threads n")
			}
			th, err := strconv.Atoi(fields[4])
			if err != nil {
				return fail("bad thread count %q", fields[4])
			}
			cur = &Function{Name: fields[1], Kind: fields[2], Threads: th}
			app.AddFunction(cur)
		case "param", "prop":
			if cur == nil {
				return fail("%s outside function", fields[0])
			}
			if len(fields) < 3 {
				return fail("%s wants: key value", fields[0])
			}
			val := parseScalar(strings.Join(fields[2:], " "))
			if fields[0] == "param" {
				if cur.Params == nil {
					cur.Params = map[string]any{}
				}
				cur.Params[fields[1]] = val
			} else {
				cur.SetProp(fields[1], val)
			}
		case "in", "out":
			if cur == nil {
				return fail("port outside function")
			}
			if len(fields) != 4 {
				return fail("port wants: name type striping")
			}
			t, ok := app.Types[fields[2]]
			if !ok {
				return fail("unknown type %q", fields[2])
			}
			s := StripeKind(fields[3])
			if !ValidStripe(s) {
				return fail("invalid striping %q", fields[3])
			}
			if fields[0] == "in" {
				cur.AddInput(fields[1], t, s)
			} else {
				cur.AddOutput(fields[1], t, s)
			}
		case "arc":
			if app == nil {
				return fail("arc before app")
			}
			if len(fields) != 4 || fields[2] != "->" {
				return fail("arc wants: src.port -> dst.port")
			}
			from, err := splitPortRef(fields[1])
			if err != nil {
				return fail("%v", err)
			}
			to, err := splitPortRef(fields[3])
			if err != nil {
				return fail("%v", err)
			}
			if _, err := app.Connect(from[0], from[1], to[0], to[1]); err != nil {
				return fail("%v", err)
			}
		default:
			return fail("unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if app == nil {
		return nil, fmt.Errorf("model: empty model text")
	}
	app.AssignIDs()
	return app, nil
}

func splitPortRef(s string) ([2]string, error) {
	i := strings.LastIndex(s, ".")
	if i <= 0 || i == len(s)-1 {
		return [2]string{}, fmt.Errorf("bad port reference %q, want fn.port", s)
	}
	return [2]string{s[:i], s[i+1:]}, nil
}

// WriteText serialises the mapping.
func (m *Mapping) WriteText(w io.Writer, appName string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "mapping %s\n", appName)
	for _, fn := range slices.Sorted(maps.Keys(m.Assign)) {
		parts := make([]string, len(m.Assign[fn]))
		for i, n := range m.Assign[fn] {
			parts[i] = strconv.Itoa(n)
		}
		fmt.Fprintf(bw, "map %s %s\n", fn, strings.Join(parts, " "))
	}
	return bw.Flush()
}

// ReadMappingText parses a serialised mapping, returning it with the
// application name it declares.
func ReadMappingText(r io.Reader) (*Mapping, string, error) {
	sc := bufio.NewScanner(r)
	m := NewMapping()
	appName := ""
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "mapping":
			if len(fields) != 2 {
				return nil, "", fmt.Errorf("model: line %d: mapping wants app name", lineNo)
			}
			appName = fields[1]
		case "map":
			if len(fields) < 3 {
				return nil, "", fmt.Errorf("model: line %d: map wants function and nodes", lineNo)
			}
			nodes := make([]int, 0, len(fields)-2)
			for _, f := range fields[2:] {
				n, err := strconv.Atoi(f)
				if err != nil {
					return nil, "", fmt.Errorf("model: line %d: bad node %q", lineNo, f)
				}
				nodes = append(nodes, n)
			}
			m.Set(fields[1], nodes...)
		default:
			return nil, "", fmt.Errorf("model: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, "", err
	}
	if appName == "" {
		return nil, "", fmt.Errorf("model: mapping text missing 'mapping' header")
	}
	return m, appName, nil
}

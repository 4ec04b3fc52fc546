package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// maxPlanLines bounds parser work on hostile input (fuzzing guard).
const maxPlanLines = 10000

// ParsePlan parses the fault-plan text format and validates the result.
//
// The format is line-oriented; '#' starts a comment, blank lines are
// ignored. Durations use Go syntax (50us, 2ms, 1.5s); link selectors are
// "src->dst" with '*' as a wildcard on either side; windows default to the
// whole run and are given as "from=<dur> to=<dur>" offsets from simulation
// start.
//
//	# transient fabric trouble around t=1ms
//	seed 42
//	drop link=* rate=0.05
//	drop link=0->1 rate=0.5 from=1ms to=3ms
//	degrade link=2->3 bw=0.25 lat=+40us from=0 to=2ms
//	degrade link=1->0 bw=0 from=500us to=800us   # full outage
//	stall node=2 at=2ms for=500us
func ParsePlan(src string) (*Plan, error) {
	p := &Plan{}
	lines := strings.Split(src, "\n")
	if len(lines) > maxPlanLines {
		return nil, fmt.Errorf("fault: plan has %d lines, limit %d", len(lines), maxPlanLines)
	}
	for ln, raw := range lines {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if err := parseLine(p, fields); err != nil {
			return nil, fmt.Errorf("fault: line %d: %w", ln+1, err)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("fault: invalid plan: %w", err)
	}
	return p, nil
}

func parseLine(p *Plan, fields []string) error {
	switch fields[0] {
	case "seed":
		if len(fields) != 2 {
			return fmt.Errorf("seed takes exactly one value")
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q: %v", fields[1], err)
		}
		p.Seed = v
		return nil
	case "drop":
		kv, err := keyvals(fields[1:], "link", "rate", "from", "to")
		if err != nil {
			return err
		}
		r := DropRule{Link: LinkSel{AllLinks, AllLinks}, Win: Window{0, Forever}}
		if s, ok := kv["link"]; ok {
			if r.Link, err = parseLink(s); err != nil {
				return err
			}
		}
		s, ok := kv["rate"]
		if !ok {
			return fmt.Errorf("drop requires rate=")
		}
		if r.Rate, err = strconv.ParseFloat(s, 64); err != nil {
			return fmt.Errorf("bad rate %q: %v", s, err)
		}
		if r.Win, err = parseWindow(kv); err != nil {
			return err
		}
		p.Drops = append(p.Drops, r)
		return nil
	case "degrade":
		kv, err := keyvals(fields[1:], "link", "bw", "lat", "from", "to")
		if err != nil {
			return err
		}
		r := DegradeRule{Link: LinkSel{AllLinks, AllLinks}, BWFactor: 1, Win: Window{0, Forever}}
		if s, ok := kv["link"]; ok {
			if r.Link, err = parseLink(s); err != nil {
				return err
			}
		}
		if s, ok := kv["bw"]; ok {
			if r.BWFactor, err = strconv.ParseFloat(s, 64); err != nil {
				return fmt.Errorf("bad bw %q: %v", s, err)
			}
		}
		if s, ok := kv["lat"]; ok {
			d, err := time.ParseDuration(strings.TrimPrefix(s, "+"))
			if err != nil {
				return fmt.Errorf("bad lat %q: %v", s, err)
			}
			r.ExtraLatency = d
		}
		if _, hasBW := kv["bw"]; !hasBW {
			if _, hasLat := kv["lat"]; !hasLat {
				return fmt.Errorf("degrade requires bw= and/or lat=")
			}
		}
		if r.Win, err = parseWindow(kv); err != nil {
			return err
		}
		p.Degrades = append(p.Degrades, r)
		return nil
	case "stall":
		kv, err := keyvals(fields[1:], "node", "at", "for")
		if err != nil {
			return err
		}
		r := StallRule{Node: AllNodes}
		if s, ok := kv["node"]; ok && s != "*" {
			if r.Node, err = strconv.Atoi(s); err != nil {
				return fmt.Errorf("bad node %q: %v", s, err)
			}
		}
		at, ok := kv["at"]
		if !ok {
			return fmt.Errorf("stall requires at=")
		}
		start, err := parseOffset(at)
		if err != nil {
			return fmt.Errorf("bad at %q: %v", at, err)
		}
		dur, ok := kv["for"]
		if !ok {
			return fmt.Errorf("stall requires for=")
		}
		d, err := time.ParseDuration(dur)
		if err != nil {
			return fmt.Errorf("bad for %q: %v", dur, err)
		}
		r.Win = Window{From: start, To: start.Add(d)}
		p.Stalls = append(p.Stalls, r)
		return nil
	default:
		return fmt.Errorf("unknown directive %q (want seed, drop, degrade or stall)", fields[0])
	}
}

// keyvals splits "k=v" fields, rejecting unknown or duplicate keys.
func keyvals(fields []string, allowed ...string) (map[string]string, error) {
	ok := map[string]bool{}
	for _, a := range allowed {
		ok[a] = true
	}
	out := map[string]string{}
	for _, f := range fields {
		k, v, found := strings.Cut(f, "=")
		if !found || k == "" || v == "" {
			return nil, fmt.Errorf("malformed field %q (want key=value)", f)
		}
		if !ok[k] {
			return nil, fmt.Errorf("unknown key %q (allowed: %s)", k, strings.Join(allowed, ", "))
		}
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("duplicate key %q", k)
		}
		out[k] = v
	}
	return out, nil
}

// parseLink parses "src->dst" with '*' wildcards, or a bare "*" for any
// link.
func parseLink(s string) (LinkSel, error) {
	if s == "*" {
		return LinkSel{AllLinks, AllLinks}, nil
	}
	a, b, found := strings.Cut(s, "->")
	if !found {
		return LinkSel{}, fmt.Errorf("bad link %q (want src->dst or *)", s)
	}
	sel := LinkSel{AllLinks, AllLinks}
	var err error
	if a != "*" {
		if sel.Src, err = strconv.Atoi(a); err != nil || sel.Src < 0 {
			return LinkSel{}, fmt.Errorf("bad link source %q", a)
		}
	}
	if b != "*" {
		if sel.Dst, err = strconv.Atoi(b); err != nil || sel.Dst < 0 {
			return LinkSel{}, fmt.Errorf("bad link destination %q", b)
		}
	}
	return sel, nil
}

// parseOffset parses a virtual-time offset: "0" or a Go duration.
func parseOffset(s string) (sim.Time, error) {
	if s == "0" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative offset %v", d)
	}
	return sim.Time(0).Add(d), nil
}

// parseWindow reads optional from=/to= keys (defaults: whole run).
func parseWindow(kv map[string]string) (Window, error) {
	w := Window{0, Forever}
	if s, ok := kv["from"]; ok {
		t, err := parseOffset(s)
		if err != nil {
			return w, fmt.Errorf("bad from %q: %v", s, err)
		}
		w.From = t
	}
	if s, ok := kv["to"]; ok {
		t, err := parseOffset(s)
		if err != nil {
			return w, fmt.Errorf("bad to %q: %v", s, err)
		}
		w.To = t
	}
	return w, nil
}

// String renders the plan back in the text format ParsePlan accepts
// (round-trippable; used by sage check fault to echo the normalised plan).
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d\n", p.Seed)
	win := func(w Window) string {
		if w.From == 0 && !w.Bounded() {
			return ""
		}
		s := fmt.Sprintf(" from=%v", sim.Duration(w.From))
		if w.Bounded() {
			s += fmt.Sprintf(" to=%v", sim.Duration(w.To))
		}
		return s
	}
	link := func(l LinkSel) string {
		side := func(v int) string {
			if v == AllLinks {
				return "*"
			}
			return strconv.Itoa(v)
		}
		if l.Src == AllLinks && l.Dst == AllLinks {
			return "*"
		}
		return side(l.Src) + "->" + side(l.Dst)
	}
	for _, r := range p.Drops {
		fmt.Fprintf(&b, "drop link=%s rate=%v%s\n", link(r.Link), r.Rate, win(r.Win))
	}
	for _, r := range p.Degrades {
		fmt.Fprintf(&b, "degrade link=%s bw=%v lat=%v%s\n", link(r.Link), r.BWFactor, r.ExtraLatency, win(r.Win))
	}
	for _, r := range p.Stalls {
		node := "*"
		if r.Node != AllNodes {
			node = strconv.Itoa(r.Node)
		}
		fmt.Fprintf(&b, "stall node=%s at=%v for=%v\n", node, sim.Duration(r.Win.From), r.Win.To.Sub(r.Win.From))
	}
	return b.String()
}

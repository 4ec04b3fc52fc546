package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResult(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := readResult(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if !compareResults(a, b, stdout) {
		return 1
	}
	return 0
}

// verdict classifies b against a for one bounded metric: "worse" when b is
// beyond the bound in the bad direction, "better" when beyond it in the good
// one, "ok" between.
func verdict(d metricDef, a, b float64) (delta float64, v string) {
	if a != 0 {
		delta = (b - a) / abs(a)
	} else if b != 0 {
		delta = 1
	}
	bad := delta
	if d.Better == "higher" {
		bad = -delta
	}
	switch {
	case bad > d.Bound:
		return delta, "worse"
	case bad < -d.Bound:
		return delta, "better"
	}
	return delta, "ok"
}

// compareResults prints, per workload and end-to-end metric, both values, the
// relative delta of b against a and the metric's bound, then every exact
// count. It reports whether nothing is worse, inexact or failed.
func compareResults(a, b *result, w io.Writer) bool {
	ok := true
	fmt.Fprintf(w, "%-10s %-20s %14s %14s %8s %7s  %s\n", "workload", "metric", "a", "b", "delta", "bound", "verdict")
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			if wa != wb {
				fmt.Fprintf(w, "%-10s present in only one result\n", name)
				ok = false
			}
			continue
		}
		for _, d := range endToEnd {
			va, ina := wa.Metrics[d.Name]
			vb, inb := wb.Metrics[d.Name]
			if !ina && !inb {
				continue
			}
			var v string
			var delta float64
			switch {
			case ina != inb:
				v = "missing"
			case d.Exact && d.Name == "fail_ratio":
				// Absolute: any failure in either result is a failure.
				if v = "ok"; va.Value != 0 || vb.Value != 0 {
					v = "failed"
				}
			case d.Exact:
				if v = "ok"; va.Value != vb.Value {
					v = "inexact"
				}
			default:
				delta, v = verdict(d, va.Value, vb.Value)
			}
			if v != "ok" && v != "better" {
				ok = false
			}
			bound := "exact"
			if !d.Exact {
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
			}
			fmt.Fprintf(w, "%-10s %-20s %14.4f %14.4f %+7.1f%% %7s  %s\n", name, d.Name, va.Value, vb.Value, 100*delta, bound, v)
		}
	}
	if a.Layers == nil || b.Layers == nil {
		if a.Layers != b.Layers {
			fmt.Fprintln(w, "per-layer metrics present in only one result")
			ok = false
		}
		return ok
	}
	fmt.Fprintf(w, "\n%-36s %18s %18s  %s\n", "exact count", "a", "b", "verdict")
	for _, d := range perLayer {
		if !d.Exact {
			continue
		}
		va, ina := a.Layers.Metrics[d.Name]
		vb, inb := b.Layers.Metrics[d.Name]
		v := "ok"
		if !ina || !inb {
			v = "missing"
		} else if va.Value != vb.Value {
			v = "inexact"
		}
		if v != "ok" {
			ok = false
		}
		fmt.Fprintf(w, "%-36s %18.4f %18.4f  %s\n", d.Name, va.Value, vb.Value, v)
	}
	if a.Layers.Failed+b.Layers.Failed > 0 {
		fmt.Fprintf(w, "traced runs failed %d and %d ops\n", a.Layers.Failed, b.Layers.Failed)
		ok = false
	}
	return ok
}

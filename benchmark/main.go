// Command benchmark is the repository's performance instrument: four
// closed-loop workloads, end-to-end metrics from an untraced run, per-layer
// metrics from a separate traced run, every result checked against an
// independent reference. See README.md in this directory.
//
//	go run ./benchmark                                  # everything, tables on stdout
//	go run ./benchmark -workload design8 -seconds 60    # one workload
//	go run ./benchmark --workload exec8 --seed 7 --seconds 30 --trace 0   # one run, one JSON result line
//	go run ./benchmark -compare a/result.json b/result.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setups is how many times a run sets its workload up; setup_s is the median.
const setups = 3

var setupFuncs = map[string]func(seed int64) (*instance, error){
	"design8":   setupDesign8,
	"wide1024":  setupWide1024,
	"exec8":     setupExec8,
	"serve_mix": setupServeMix,
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples describes the distribution behind a timing; nil for counts
	// and ratios.
	Samples *summary `json:"samples,omitempty"`
}

// workloadResult is one workload's untraced run.
type workloadResult struct {
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Error     string           `json:"error,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	// Classes is the latency distribution (ms) of every class.
	Classes map[string]summary `json:"classes"`
}

// layerResult is the traced run: the per-layer metrics, and per workload the
// share of recorded time each layer's spans kept to themselves.
type layerResult struct {
	Attempted int                           `json:"attempted"`
	Failed    int                           `json:"failed"`
	Error     string                        `json:"error,omitempty"`
	Metrics   map[string]value              `json:"metrics"`
	SelfShare map[string]map[string]float64 `json:"self_share"`
}

// result is what -out writes as result.json and what -compare reads.
type result struct {
	Host struct {
		GoVersion  string `json:"go_version"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		NumCPU     int    `json:"nproc"`
		Commit     string `json:"commit"`
	} `json:"host"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads,omitempty"`
	Layers    *layerResult               `json:"layers,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "design8 | wide1024 | exec8 | serve_mix | all")
	seed := fs.Int64("seed", 1, "workload seed: source data, request draw, fresh request seeds")
	seconds := fs.Float64("seconds", 30, "measured wall time of each workload's run")
	traceSeconds := fs.Float64("trace-seconds", 8, "with -trace both: measured wall time of each workload's traced run")
	traceMode := fs.String("trace", "both", "0: untraced run, end-to-end metrics | 1: traced run, per-layer metrics | both")
	out := fs.String("out", "", "directory that receives result.json and trace-<workload>.json (default: nothing is written)")
	compare := fs.Bool("compare", false, "compare two result.json files given as arguments; exit 1 on a regression or an inexact count")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result.json paths")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	names := workloadNames
	if *workload != "all" {
		if setupFuncs[*workload] == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		names = []string{*workload}
	}
	if *traceMode != "0" && *traceMode != "1" && *traceMode != "both" {
		fmt.Fprintf(stderr, "benchmark: -trace %q, want 0, 1 or both\n", *traceMode)
		return 2
	}
	dur := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

	res := &result{Seed: *seed, Seconds: *seconds}
	res.Host.GoVersion, res.Host.GOMAXPROCS, res.Host.NumCPU = runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU()
	res.Host.Commit = commit()
	traces := map[string]*recorder{}
	var err error
	switch *traceMode {
	case "0":
		res.Workloads, err = runEndToEnd(names, *seed, dur(*seconds), setups)
	case "1":
		// The per-layer table is one table: a traced run covers all four
		// workloads whichever was named, sharing the measured time.
		res.Layers, err = runTraced(*seed, dur(*seconds/float64(len(workloadNames))), traces)
	default:
		if res.Workloads, err = runEndToEnd(names, *seed, dur(*seconds), setups); err == nil {
			res.Layers, err = runTraced(*seed, dur(*traceSeconds), traces)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printResult(stdout, res)
	if *out != "" {
		if err := writeOut(*out, res, traces); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote", *out)
	}
	ok := true
	for _, w := range res.Workloads {
		ok = ok && w.Failed == 0
	}
	if res.Layers != nil {
		ok = ok && res.Layers.Failed == 0
	}
	// One run of one kind ends with the result line the driver reads.
	if *traceMode == "1" {
		printLine(stdout, res.Layers.Attempted, res.Layers.Failed, res.Layers.Metrics, perLayer)
	} else if *traceMode == "0" && len(names) == 1 {
		w := res.Workloads[names[0]]
		printLine(stdout, w.Attempted, w.Failed, w.Metrics, endToEnd[:contractEndToEnd])
	}
	if !ok {
		return 1
	}
	return 0
}

// commit names the checkout's commit, or "unknown" outside a git repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runEndToEnd sets each workload up nSetups times, keeps the last instance,
// and drives it untraced for d.
func runEndToEnd(names []string, seed int64, d time.Duration, nSetups int) (map[string]*workloadResult, error) {
	out := map[string]*workloadResult{}
	for _, name := range names {
		var inst *instance
		var setupS []float64
		for i := 0; i < nSetups; i++ {
			if inst != nil {
				inst.close()
			}
			start := time.Now()
			var err error
			if inst, err = setupFuncs[name](seed); err != nil {
				return nil, fmt.Errorf("%s set-up: %w", name, err)
			}
			setupS = append(setupS, time.Since(start).Seconds())
		}
		m := runLoop(inst, seed, d, nil)
		inst.close()
		out[name] = endToEndResult(inst, m, setupS)
	}
	return out, nil
}

func endToEndResult(inst *instance, m *measurement, setupS []float64) *workloadResult {
	w := &workloadResult{Attempted: m.attempted, Failed: m.failed, Metrics: map[string]value{}, Classes: map[string]summary{}}
	if m.firstErr != nil {
		w.Error = m.firstErr.Error()
	}
	for c, l := range m.lat {
		w.Classes[c] = summarize(l)
	}
	prim := summarize(m.lat[inst.primary])
	setup := summarize(setupS)
	done := float64(m.completed())
	vals := map[string]value{
		"setup_s":         {Value: setup.P50, Samples: &setup},
		"ops_per_s":       {Value: done / m.wall.Seconds()},
		"op_p50_ms":       {Value: prim.P50, Samples: &prim},
		"op_p75_ms":       {Value: prim.P75, Samples: &prim},
		"alloc_mb_per_op": {Value: float64(m.mem1.TotalAlloc-m.mem0.TotalAlloc) / 1e6 / done},
		"fail_ratio":      {Value: float64(m.failed) / float64(m.attempted)},
	}
	if len(m.nsPerEvent) > 0 {
		vals["host_ns_per_event"] = value{Value: median(m.nsPerEvent)}
		vals["virtual_ms_per_op"] = value{Value: float64(m.virtualNS) / 1e6}
	}
	for k, v := range inst.setupMetrics {
		vals[k] = value{Value: v}
	}
	for _, d := range endToEnd {
		if v, ok := vals[d.Name]; ok && d.on(inst.name) {
			v.Unit = d.Unit
			w.Metrics[d.Name] = v
		}
	}
	return w
}

// runTraced drives every workload for d with span recording on every second
// rotation, then the floors, and derives the per-layer metrics.
func runTraced(seed int64, d time.Duration, traces map[string]*recorder) (*layerResult, error) {
	lr := &layerResult{Metrics: map[string]value{}, SelfShare: map[string]map[string]float64{}}
	units := map[string]string{}
	for _, def := range perLayer {
		units[def.Name] = def.Unit
	}
	put := func(name string, v float64) {
		unit, ok := units[name]
		if _, dup := lr.Metrics[name]; !ok || dup {
			panic("benchmark: per-layer metric " + name + " is unlisted or reported twice")
		}
		lr.Metrics[name] = value{Value: v, Unit: unit}
	}
	put("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	for _, name := range workloadNames {
		// Return what the previous workload's heap held, so that this
		// one's footprint is its own.
		debug.FreeOSMemory()
		inst, err := setupFuncs[name](seed)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		rec := newRecorder(inst.clients == 1)
		m := runLoop(inst, seed, d, rec)
		traces[name] = rec
		lr.Attempted += m.attempted
		lr.Failed += m.failed
		if m.firstErr != nil && lr.Error == "" {
			lr.Error = m.firstErr.Error()
		}
		if m.failed == 0 {
			inst.report(m, put)
		}
		inst.close()
		if m.failed > 0 {
			continue
		}
		put("host.heap_sys_mb."+name, float64(m.mem1.HeapSys-m.mem1.HeapReleased)/1e6)
		put("host.gc_pause_ms."+name, float64(m.mem1.PauseTotalNs-m.mem0.PauseTotalNs)/1e6)
		put("host.gc_cycles_per_op."+name, float64(m.mem1.NumGC-m.mem0.NumGC)/float64(m.completed()))
		put("bench.trace_overhead_pct."+name, pctOver(median(m.latTraced), median(m.latPlain)))
		share := map[string]float64{}
		var total int64
		self := rec.selfByLayer()
		for _, ns := range self {
			total += ns
		}
		for layer, ns := range self {
			share[layer] = float64(ns) / float64(total)
		}
		lr.SelfShare[name] = share
	}
	if lr.Failed > 0 {
		return lr, nil
	}
	put("rtl.vs_des_ratio", lr.Metrics["rtl.execute_ms.fft512x"].Value/lr.Metrics["sagert.run_ms.fft512"].Value)
	err := runFloors(seed, lr.Metrics["sagert.alloc_mb.fft512"].Value, int64(lr.Metrics["sagert.virtual_ns.fft512"].Value), put)
	return lr, err
}

// printResult prints every metric by name with its unit and sample count.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "host: %s GOMAXPROCS=%d nproc=%d commit=%s seed=%d\n",
		res.Host.GoVersion, res.Host.GOMAXPROCS, res.Host.NumCPU, res.Host.Commit, res.Seed)
	for _, name := range workloadNames {
		wr := res.Workloads[name]
		if wr == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s: %d ops attempted, %d failed\n", name, wr.Attempted, wr.Failed)
		if wr.Error != "" {
			fmt.Fprintf(w, "  first failure: %s\n", wr.Error)
		}
		for _, d := range endToEnd {
			if v, ok := wr.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "  %-20s %14.4f %-6s%s\n", d.Name, v.Value, v.Unit, samplesNote(v.Samples))
			}
		}
		classes := make([]string, 0, len(wr.Classes))
		for c := range wr.Classes {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			s := wr.Classes[c]
			fmt.Fprintf(w, "  class %-14s p50 %10.3f ms  p90 %10.3f ms  n=%d\n", c, s.P50, s.P90, s.N)
		}
	}
	if res.Layers == nil {
		return
	}
	fmt.Fprintf(w, "\nper-layer (traced run): %d ops attempted, %d failed\n", res.Layers.Attempted, res.Layers.Failed)
	if res.Layers.Error != "" {
		fmt.Fprintf(w, "  first failure: %s\n", res.Layers.Error)
	}
	for _, d := range perLayer {
		if v, ok := res.Layers.Metrics[d.Name]; ok {
			exact := ""
			if d.Exact {
				exact = "  exact"
			}
			fmt.Fprintf(w, "  %-36s %16.4f %-6s%s\n", d.Name, v.Value, v.Unit, exact)
		}
	}
	for _, name := range workloadNames {
		share := res.Layers.SelfShare[name]
		layers := make([]string, 0, len(share))
		for l := range share {
			layers = append(layers, l)
		}
		sort.Slice(layers, func(i, j int) bool { return share[layers[i]] > share[layers[j]] })
		fmt.Fprintf(w, "  self time %-10s", name)
		for _, l := range layers {
			fmt.Fprintf(w, " %s %.1f%%", l, 100*share[l])
		}
		fmt.Fprintln(w)
	}
}

func samplesNote(s *summary) string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf("  n=%d min %.4f p25 %.4f p50 %.4f p75 %.4f p90 %.4f", s.N, s.Min, s.P25, s.P50, s.P75, s.P90)
}

// printLine prints the one-object result line: exactly the listed metrics.
func printLine(w io.Writer, attempted, failed int, metrics map[string]value, defs []metricDef) {
	type lineValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]lineValue `json:"metrics"`
	}{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]lineValue{}}
	for _, d := range defs {
		if v, ok := metrics[d.Name]; ok {
			line.Metrics[d.Name] = lineValue{v.Value, v.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Fprintln(w, string(b))
}

// writeOut writes result.json and the raw spans of every traced workload.
func writeOut(dir string, res *result, traces map[string]*recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, v any) error {
		b, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
	}
	if err := write("result.json", res); err != nil {
		return err
	}
	for name, rec := range traces {
		if err := write("trace-"+name+".json", rec.spans); err != nil {
			return err
		}
	}
	return nil
}

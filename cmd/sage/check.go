package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/fault"
	"repro/internal/stream"
	"repro/internal/trace"
)

// cmdCheck validates one artifact file and exits non-zero on any violation,
// so CI can gate on it:
//
//	sage check fault [-nodes N] plan.txt
//	sage check trace [-require sim,sagert,mpi] trace.json
//	sage check stream report.json
//
// A fault plan must parse, pass semantic validation (rates in range, finite
// stall windows, non-empty windows) and — with -nodes — reference only
// nodes that exist; it is echoed in the parser's canonical form, suitable
// for checking in, before it goes to sage bench -faults or a
// sagert.Options.Faults field. A Chrome trace (sage bench -trace, sage run
// -trace) must carry every required event field with timestamps
// non-negative and non-decreasing per track, and a span from every
// -require layer. A stream report (sage stream -json) must match its schema
// exactly.
func cmdCheck(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return usagef("want fault, trace or stream: sage check fault|trace|stream [flags] file")
	}
	kind := args[0]
	fs := flags("check "+kind, stderr)
	var nodes int
	var require string
	switch kind {
	case "fault":
		fs.IntVar(&nodes, "nodes", 0, "machine size to check node/link references against (0 = skip)")
	case "trace":
		fs.StringVar(&require, "require", "", "comma-separated trace categories (layers) that must appear, e.g. sim,sagert,mpi")
	case "stream":
	default:
		return usagef("unknown check %q (want fault, trace or stream)", kind)
	}
	if err := parse(fs, args[1:]); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usagef("want one file: sage check %s [flags] file", kind)
	}
	path := fs.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	switch kind {
	case "fault":
		return checkFault(stdout, path, data, nodes)
	case "trace":
		return checkTrace(stdout, path, data, require)
	}
	return checkStream(stdout, path, data)
}

func checkFault(w io.Writer, path string, src []byte, nodes int) error {
	plan, err := fault.ParsePlan(string(src))
	if err == nil {
		err = plan.Validate()
	}
	if err == nil && nodes > 0 {
		err = plan.CheckNodes(nodes)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if plan.Empty() {
		fmt.Fprintf(w, "%s: ok — empty plan (no faults)\n", path)
		return nil
	}
	fmt.Fprint(w, plan.String())
	fmt.Fprintf(w, "%s: ok — seed %d, %d drop / %d degrade / %d stall rules\n",
		path, plan.Seed, len(plan.Drops), len(plan.Degrades), len(plan.Stalls))
	return nil
}

func checkTrace(w io.Writer, path string, data []byte, require string) error {
	stats, err := trace.ValidateChrome(data)
	if err != nil {
		return err
	}
	for _, want := range strings.Split(require, ",") {
		want = strings.TrimSpace(want)
		if want != "" && stats.Cats[want] == 0 {
			return fmt.Errorf("%s: no spans from required layer %q (present: %s)",
				path, want, strings.Join(stats.Layers(), ", "))
		}
	}
	fmt.Fprintf(w, "%s: ok — %d events, %d spans, layers: %s\n",
		path, stats.Events, stats.Spans, strings.Join(stats.Layers(), ", "))
	return nil
}

func checkStream(w io.Writer, path string, data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep stream.Report
	if err := dec.Decode(&rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := rep.Validate(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(w, "%s: ok — %s, seed %d, %d/%d frames completed, %d late, %d shed, %d remaps\n",
		path, rep.Schema, rep.Seed, rep.Completed, rep.Offered, rep.Late, rep.Shed, len(rep.Remaps))
	return nil
}

// sage is the SAGE environment's single command: the paper's flow —
// Designer → AToT → Alter glue generator → run-time kernel → Visualizer —
// plus the experiment, conformance, twin, streaming and real-execution
// drivers, each a subcommand over one dispatcher.
//
// Usage:
//
//	sage designer -new fft2d -n 512 -threads 8 -o fft2d.sage
//	sage atot     -model fft2d.sage -platform CSPI -nodes 8 -o fft2d.map
//	sage gluegen  -model fft2d.sage -mapping fft2d.map -tables fft2d.tbl
//	sage run      -model fft2d.sage -mapping fft2d.map -viz
//	sage bench    -experiment table1
//	sage check    fault|trace|stream [flags] file
//	sage serve    -addr 127.0.0.1:8080 -workers 4
//	sage load     -addr http://127.0.0.1:8080 -n 200 -check-cache
//
// Every subcommand shares one exit-code discipline: 0 on success, 1 when the
// thing asked for failed (a run failed, a file was unreadable, a check did
// not pass), 2 for a usage mistake — a bad flag, a missing argument, or a
// missing or unknown subcommand — so scripts and CI can tell "you called me
// wrong" from "what you asked for went wrong". A subcommand marks a usage
// mistake with usagef (or wraps errUsage); every other error is a failure.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// command is one subcommand: its entry point parses args itself and returns
// the error the dispatcher reports.
type command struct {
	name, summary string
	run           func(args []string, stdout, stderr io.Writer) error
}

var commands = []command{
	{"designer", "create, validate and summarise application models and hardware designs", cmdDesigner},
	{"atot", "map a model's threads onto a platform (GA, twin, greedy, round-robin, spread)", cmdAtot},
	{"gluegen", "run the Alter glue generator: runtime table source and glue listing", cmdGluegen},
	{"run", "execute a model or pre-generated tables under the SAGE runtime", cmdRun},
	{"viz", "render the Visualizer report from the Chrome trace of one sage run", cmdViz},
	{"bench", "regenerate the paper's tables and figures", cmdBench},
	{"twin", "predict a run in closed form, sweep node counts, validate the twin", cmdTwin},
	{"stream", "run streaming scenarios: SLO reports, remap comparison, replay", cmdStream},
	{"conform", "randomized end-to-end conformance against a sequential oracle", cmdConform},
	{"exec", "run generated code for real, diffed against the oracle and the simulator", cmdExec},
	{"check", "validate a fault plan, a Chrome trace or a stream report", cmdCheck},
	{"alter", "the Alter language interpreter and REPL", cmdAlter},
	{"serve", "the persistent simulation/mapping daemon (HTTP)", cmdServe},
	{"load", "seeded load generator for sage serve; -check-cache asserts cached == fresh", cmdLoad},
}

func main() { os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr)) }

// dispatch runs the subcommand args[0] names and maps its error to the exit
// code. A flag-parse failure was already reported by its FlagSet; any other
// error is printed once, prefixed with the subcommand.
func dispatch(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return exitUsage
	}
	for _, c := range commands {
		if c.name != args[0] {
			continue
		}
		err := c.run(args[1:], stdout, stderr)
		if err != nil && !errors.Is(err, errFlags) {
			fmt.Fprintf(stderr, "sage %s: %v\n", c.name, err)
		}
		return exitCode(err)
	}
	fmt.Fprintf(stderr, "sage: unknown subcommand %q\n", args[0])
	usage(stderr)
	return exitUsage
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: sage <subcommand> [flags] [args]\n\nsubcommands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-9s %s\n", c.name, c.summary)
	}
}

// Exit codes of every subcommand.
const (
	exitOK      = 0
	exitFailure = 1
	exitUsage   = 2
)

// errUsage marks an error as a command-line usage mistake.
var errUsage = errors.New("usage error")

// usagef builds a usage error: exitCode returns exitUsage for it.
func usagef(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, errUsage)...)
}

// exitCode maps an error to its exit code: nil is success, usage errors
// exit 2, everything else exits 1.
func exitCode(err error) int {
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, errUsage):
		return exitUsage
	default:
		return exitFailure
	}
}

// errFlags marks a flag-parse failure, which is a usage error.
var errFlags = fmt.Errorf("bad flags: %w", errUsage)

// flags returns the FlagSet of subcommand name, reporting to stderr.
func flags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("sage "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parse parses args into fs, marking a failure with errFlags.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errFlags, err)
	}
	return nil
}

// parseRange parses a half-open seed range "from:to" (to >= from), the
// grammar of every -seed-range flag.
func parseRange(s string) (int64, int64, error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, usagef("bad seed range %q, want from:to", s)
	}
	from, err := strconv.ParseInt(strings.TrimSpace(lo), 10, 64)
	if err != nil {
		return 0, 0, usagef("bad seed range %q: %v", s, err)
	}
	to, err := strconv.ParseInt(strings.TrimSpace(hi), 10, 64)
	if err != nil {
		return 0, 0, usagef("bad seed range %q: %v", s, err)
	}
	if to < from {
		return 0, 0, usagef("bad seed range %q: reversed", s)
	}
	return from, to, nil
}

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
//	sage bench    -experiment table1 -quick
//	sage check    fault|trace|stream [flags] file
//
// Every subcommand shares one exit-code discipline (internal/cli): 0 on
// success, 1 when the thing asked for failed, 2 for a usage mistake — a bad
// flag, a missing argument, or a missing or unknown subcommand.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
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
	{"viz", "render the Visualizer report from a probe-event CSV", cmdViz},
	{"bench", "regenerate the paper's tables and figures", cmdBench},
	{"twin", "predict a run in closed form, sweep node counts, validate the twin", cmdTwin},
	{"stream", "run streaming scenarios: SLO reports, remap comparison, replay", cmdStream},
	{"conform", "randomized end-to-end conformance against a sequential oracle", cmdConform},
	{"exec", "run generated code for real, diffed against the oracle and the simulator", cmdExec},
	{"check", "validate a fault plan, a Chrome trace or a stream report", cmdCheck},
	{"alter", "the Alter language interpreter and REPL", cmdAlter},
}

func main() { os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr)) }

// dispatch runs the subcommand args[0] names and maps its error to the exit
// code. A flag-parse failure was already reported by its FlagSet; any other
// error is printed once, prefixed with the subcommand.
func dispatch(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return cli.ExitUsage
	}
	for _, c := range commands {
		if c.name != args[0] {
			continue
		}
		err := c.run(args[1:], stdout, stderr)
		if err != nil && !errors.Is(err, errFlags) {
			fmt.Fprintf(stderr, "sage %s: %v\n", c.name, err)
		}
		return cli.ExitCode(err)
	}
	fmt.Fprintf(stderr, "sage: unknown subcommand %q\n", args[0])
	usage(stderr)
	return cli.ExitUsage
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: sage <subcommand> [flags] [args]\n\nsubcommands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-9s %s\n", c.name, c.summary)
	}
}

// errFlags marks a flag-parse failure, which is a usage error.
var errFlags = fmt.Errorf("bad flags: %w", cli.ErrUsage)

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

package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cli"
	"repro/internal/model"
)

// writeModel serialises the benchmark model build(n, threads) into dir and
// returns its path.
func writeModel(t *testing.T, dir string, build func(n, threads int) (*model.App, error), n, threads int) string {
	t.Helper()
	app, err := build(n, threads)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, app.Name+".sage")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := app.WriteText(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeTemp writes src to name in dir and returns its path.
func writeTemp(t *testing.T, dir, name, src string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// stdoutOf runs the subcommand entry cmd and returns what it printed.
func stdoutOf(cmd func(args []string, stdout, stderr io.Writer) error, args ...string) (string, error) {
	var out strings.Builder
	err := cmd(args, &out, io.Discard)
	return out.String(), err
}

// TestExitCodes pins the CLI contract of every subcommand through the
// dispatcher: usage mistakes exit 2, runtime or validation failures exit 1,
// success exits 0. A missing or unknown subcommand is a usage mistake.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	fft := writeModel(t, dir, apps.FFT2D, 64, 2)
	ct := writeModel(t, dir, apps.CornerTurn, 64, 4)
	goodScript := writeTemp(t, dir, "ok.alter", "(+ 1 2)\n")
	badScript := writeTemp(t, dir, "bad.alter", "(undefined-op)\n")
	emptyPlan := writeTemp(t, dir, "empty.txt", "")
	missing := func(name string) string { return filepath.Join(dir, "no-such-"+name) }
	type row struct {
		sub, name string
		args      []string
		want      int
	}
	tests := []row{
		{"", "no subcommand", nil, cli.ExitUsage},
		{"", "unknown subcommand", []string{"warpdrive"}, cli.ExitUsage},

		{"alter", "unknown flag", []string{"-definitely-not-a-flag"}, cli.ExitUsage},
		{"alter", "missing script", []string{missing("s.alter")}, cli.ExitFailure},
		{"alter", "evaluation error", []string{badScript}, cli.ExitFailure},
		{"alter", "good script", []string{goodScript}, cli.ExitOK},

		{"atot", "bad flag", []string{"-definitely-not-a-flag"}, cli.ExitUsage},
		{"atot", "missing -model", nil, cli.ExitUsage},
		{"atot", "unknown strategy", []string{"-model", fft, "-strategy", "anneal"}, cli.ExitUsage},
		{"atot", "missing model file", []string{"-model", missing("m.sage")}, cli.ExitFailure},
		{"atot", "roundrobin mapping", []string{"-model", fft, "-strategy", "roundrobin", "-nodes", "4"}, cli.ExitOK},

		{"bench", "bad flag", []string{"-definitely-not-a-flag"}, cli.ExitUsage},
		{"bench", "unknown experiment", []string{"-experiment", "warpdrive"}, cli.ExitUsage},
		{"bench", "missing faults file", []string{"-experiment", "twonode", "-faults", missing("plan.txt")}, cli.ExitFailure},
		{"bench", "retired benchjson flag", []string{"-benchjson", "x"}, cli.ExitUsage},
		{"bench", "retired quick flag", []string{"-quick"}, cli.ExitUsage},
		{"bench", "retired paper flag", []string{"-paper"}, cli.ExitUsage},

		{"check fault", "bad flag", []string{"-definitely-not-a-flag"}, cli.ExitUsage},
		{"check fault", "no plan argument", nil, cli.ExitUsage},
		{"check fault", "missing plan file", []string{missing("plan.txt")}, cli.ExitFailure},
		{"check fault", "empty plan", []string{emptyPlan}, cli.ExitOK},

		{"check trace", "bad flag", []string{"-definitely-not-a-flag"}, cli.ExitUsage},
		{"check trace", "no trace argument", nil, cli.ExitUsage},
		{"check trace", "two trace arguments", []string{"a.json", "b.json"}, cli.ExitUsage},
		{"check trace", "missing trace file", []string{missing("t.json")}, cli.ExitFailure},

		{"check", "no kind", nil, cli.ExitUsage},
		{"check", "unknown kind", []string{"warpdrive", emptyPlan}, cli.ExitUsage},

		{"conform", "bad flag", []string{"-definitely-not-a-flag"}, cli.ExitUsage},
		{"conform", "no mode selected", nil, cli.ExitUsage},
		{"conform", "bad range", []string{"-seed-range", "7"}, cli.ExitUsage},
		{"conform", "reversed range", []string{"-seed-range", "9:3"}, cli.ExitUsage},
		{"conform", "empty range passes", []string{"-seed-range", "0:0"}, cli.ExitOK},

		{"designer", "bad flag", []string{"-definitely-not-a-flag"}, cli.ExitUsage},
		{"designer", "unknown benchmark", []string{"-new", "sonar"}, cli.ExitUsage},
		{"designer", "nothing to do", nil, cli.ExitUsage},
		{"designer", "missing model file", []string{"-model", missing("m.sage")}, cli.ExitFailure},
		{"designer", "list kinds", []string{"-kinds"}, cli.ExitOK},

		{"exec", "bad flag", []string{"-definitely-not-a-flag"}, cli.ExitUsage},
		{"exec", "no mode selected", nil, cli.ExitUsage},
		{"exec", "bad range", []string{"-seed-range", "7"}, cli.ExitUsage},
		{"exec", "reversed range", []string{"-seed-range", "9:3"}, cli.ExitUsage},
		{"exec", "unknown app", []string{"-app", "nope"}, cli.ExitUsage},
		{"exec", "bad platform", []string{"-app", "fft2d", "-platform", "nope"}, cli.ExitUsage},
		{"exec", "empty range passes", []string{"-seed-range", "0:0"}, cli.ExitOK},

		{"gluegen", "bad flag", []string{"-definitely-not-a-flag"}, cli.ExitUsage},
		{"gluegen", "missing required", nil, cli.ExitUsage},
		{"gluegen", "missing model file", []string{"-model", missing("m.sage"), "-mapping", missing("m.sage")}, cli.ExitFailure},
		{"gluegen", "print script", []string{"-print-script"}, cli.ExitOK},

		{"run", "bad flag", []string{"-definitely-not-a-flag"}, cli.ExitUsage},
		{"run", "missing -model/-tables", nil, cli.ExitUsage},
		{"run", "missing model file", []string{"-model", missing("m.sage")}, cli.ExitFailure},
		{"run", "small run", []string{"-model", ct, "-nodes", "4", "-iterations", "1"}, cli.ExitOK},

		{"stream", "bad flag", []string{"-definitely-not-a-flag"}, cli.ExitUsage},
		{"stream", "no scenario argument", nil, cli.ExitUsage},
		{"stream", "conflicting modes", []string{"-compare", "-check", goldenScenario}, cli.ExitUsage},
		{"stream", "orphan require-improved", []string{"-require-improved", goldenScenario}, cli.ExitUsage},
		{"stream", "missing scenario file", []string{missing("s.json")}, cli.ExitFailure},
		{"stream", "good run", []string{goldenScenario}, cli.ExitOK},

		{"twin", "bad flag", []string{"-definitely-not-a-flag"}, cli.ExitUsage},
		{"twin", "missing model", nil, cli.ExitUsage},
		{"twin", "bad iterations", []string{"-model", "x.sage", "-iterations", "0"}, cli.ExitUsage},
		{"twin", "bad seeds", []string{"-validate", "-seeds", "0"}, cli.ExitUsage},
		{"twin", "missing model file", []string{"-model", "does-not-exist.sage"}, cli.ExitFailure},
		{"twin", "validate ok", []string{"-validate", "-seeds", "24", "-quick"}, cli.ExitOK},

		{"viz", "bad flag", []string{"-definitely-not-a-flag"}, cli.ExitUsage},
		{"viz", "missing -trace", nil, cli.ExitUsage},
		{"viz", "missing trace file", []string{"-trace", missing("t.json")}, cli.ExitFailure},
	}
	check := func(tc row) func(*testing.T) {
		return func(t *testing.T) {
			args := append(strings.Fields(tc.sub), tc.args...)
			if got := dispatch(args, io.Discard, io.Discard); got != tc.want {
				t.Errorf("sage %q = %d, want %d", args, got, tc.want)
			}
		}
	}
	// Rows of one subcommand are adjacent; each subcommand gets its own
	// subtest so its rows pass or fail as a group.
	for len(tests) > 0 {
		n := 1
		for n < len(tests) && tests[n].sub == tests[0].sub {
			n++
		}
		group := tests[:n]
		tests = tests[n:]
		if group[0].sub == "" {
			for _, tc := range group {
				t.Run(tc.name, check(tc))
			}
			continue
		}
		t.Run(group[0].sub, func(t *testing.T) {
			for _, tc := range group {
				t.Run(tc.name, check(tc))
			}
		})
	}
}

package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
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
		{"", "no subcommand", nil, exitUsage},
		{"", "unknown subcommand", []string{"warpdrive"}, exitUsage},

		{"alter", "unknown flag", []string{"-definitely-not-a-flag"}, exitUsage},
		{"alter", "missing script", []string{missing("s.alter")}, exitFailure},
		{"alter", "evaluation error", []string{badScript}, exitFailure},
		{"alter", "good script", []string{goodScript}, exitOK},

		{"atot", "bad flag", []string{"-definitely-not-a-flag"}, exitUsage},
		{"atot", "missing -model", nil, exitUsage},
		{"atot", "unknown strategy", []string{"-model", fft, "-strategy", "anneal"}, exitUsage},
		{"atot", "missing model file", []string{"-model", missing("m.sage")}, exitFailure},
		{"atot", "roundrobin mapping", []string{"-model", fft, "-strategy", "roundrobin", "-nodes", "4"}, exitOK},

		{"bench", "bad flag", []string{"-definitely-not-a-flag"}, exitUsage},
		{"bench", "unknown experiment", []string{"-experiment", "warpdrive"}, exitUsage},
		{"bench", "missing faults file", []string{"-experiment", "twonode", "-faults", missing("plan.txt")}, exitFailure},
		{"bench", "retired benchjson flag", []string{"-benchjson", "x"}, exitUsage},
		{"bench", "retired quick flag", []string{"-quick"}, exitUsage},
		{"bench", "retired paper flag", []string{"-paper"}, exitUsage},

		{"check fault", "bad flag", []string{"-definitely-not-a-flag"}, exitUsage},
		{"check fault", "no plan argument", nil, exitUsage},
		{"check fault", "missing plan file", []string{missing("plan.txt")}, exitFailure},
		{"check fault", "empty plan", []string{emptyPlan}, exitOK},

		{"check trace", "bad flag", []string{"-definitely-not-a-flag"}, exitUsage},
		{"check trace", "no trace argument", nil, exitUsage},
		{"check trace", "two trace arguments", []string{"a.json", "b.json"}, exitUsage},
		{"check trace", "missing trace file", []string{missing("t.json")}, exitFailure},

		{"check", "no kind", nil, exitUsage},
		{"check", "unknown kind", []string{"warpdrive", emptyPlan}, exitUsage},

		{"conform", "bad flag", []string{"-definitely-not-a-flag"}, exitUsage},
		{"conform", "no mode selected", nil, exitUsage},
		{"conform", "bad range", []string{"-seed-range", "7"}, exitUsage},
		{"conform", "reversed range", []string{"-seed-range", "9:3"}, exitUsage},
		{"conform", "empty range passes", []string{"-seed-range", "0:0"}, exitOK},

		{"designer", "bad flag", []string{"-definitely-not-a-flag"}, exitUsage},
		{"designer", "unknown benchmark", []string{"-new", "sonar"}, exitUsage},
		{"designer", "nothing to do", nil, exitUsage},
		{"designer", "missing model file", []string{"-model", missing("m.sage")}, exitFailure},
		{"designer", "list kinds", []string{"-kinds"}, exitOK},

		{"exec", "bad flag", []string{"-definitely-not-a-flag"}, exitUsage},
		{"exec", "no mode selected", nil, exitUsage},
		{"exec", "bad range", []string{"-seed-range", "7"}, exitUsage},
		{"exec", "reversed range", []string{"-seed-range", "9:3"}, exitUsage},
		{"exec", "unknown app", []string{"-app", "nope"}, exitUsage},
		{"exec", "bad platform", []string{"-app", "fft2d", "-platform", "nope"}, exitUsage},
		{"exec", "empty range passes", []string{"-seed-range", "0:0"}, exitOK},

		{"gluegen", "bad flag", []string{"-definitely-not-a-flag"}, exitUsage},
		{"gluegen", "missing required", nil, exitUsage},
		{"gluegen", "missing model file", []string{"-model", missing("m.sage"), "-mapping", missing("m.sage")}, exitFailure},
		{"gluegen", "print script", []string{"-print-script"}, exitOK},

		{"load", "bad flag", []string{"-definitely-not-a-flag"}, exitUsage},
		{"load", "missing addr", nil, exitUsage},
		{"load", "bad counts", []string{"-addr", "http://127.0.0.1:1", "-n", "0"}, exitUsage},
		{"load", "unreachable daemon", []string{"-addr", "http://127.0.0.1:1", "-wait", "50ms"}, exitFailure},

		{"run", "bad flag", []string{"-definitely-not-a-flag"}, exitUsage},
		{"run", "missing -model/-tables", nil, exitUsage},
		{"run", "missing model file", []string{"-model", missing("m.sage")}, exitFailure},
		{"run", "small run", []string{"-model", ct, "-nodes", "4", "-iterations", "1"}, exitOK},

		{"serve", "bad flag", []string{"-definitely-not-a-flag"}, exitUsage},
		{"serve", "empty addr", []string{"-addr", ""}, exitUsage},
		{"serve", "unlistenable addr", []string{"-addr", "256.256.256.256:1"}, exitFailure},

		{"stream", "bad flag", []string{"-definitely-not-a-flag"}, exitUsage},
		{"stream", "no scenario argument", nil, exitUsage},
		{"stream", "conflicting modes", []string{"-compare", "-check", goldenScenario}, exitUsage},
		{"stream", "orphan require-improved", []string{"-require-improved", goldenScenario}, exitUsage},
		{"stream", "missing scenario file", []string{missing("s.json")}, exitFailure},
		{"stream", "good run", []string{goldenScenario}, exitOK},

		{"twin", "bad flag", []string{"-definitely-not-a-flag"}, exitUsage},
		{"twin", "missing model", nil, exitUsage},
		{"twin", "bad iterations", []string{"-model", "x.sage", "-iterations", "0"}, exitUsage},
		{"twin", "bad seeds", []string{"-validate", "-seeds", "0"}, exitUsage},
		{"twin", "missing model file", []string{"-model", "does-not-exist.sage"}, exitFailure},
		{"twin", "validate ok", []string{"-validate", "-seeds", "24", "-quick"}, exitOK},

		{"viz", "bad flag", []string{"-definitely-not-a-flag"}, exitUsage},
		{"viz", "missing -trace", nil, exitUsage},
		{"viz", "missing trace file", []string{"-trace", missing("t.json")}, exitFailure},
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

func TestExitCodeOfError(t *testing.T) {
	wrapped := fmt.Errorf("context: %w", usagef("missing -model"))
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, exitOK},
		{"plain", errors.New("boom"), exitFailure},
		{"usage", usagef("bad -n %d", 3), exitUsage},
		{"wrapped-usage", wrapped, exitUsage},
		{"sentinel", errUsage, exitUsage},
		{"flags", errFlags, exitUsage},
	}
	for _, c := range cases {
		if got := exitCode(c.err); got != c.want {
			t.Errorf("%s: exitCode(%v) = %d, want %d", c.name, c.err, got, c.want)
		}
	}
}

func TestUsagefMessage(t *testing.T) {
	err := usagef("bad -seed-range %q", "x")
	if !errors.Is(err, errUsage) {
		t.Fatal("usagef error not recognized")
	}
	if want := `bad -seed-range "x"`; !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("message = %q, want prefix %q", err.Error(), want)
	}
}

func TestParseRange(t *testing.T) {
	cases := []struct {
		in       string
		from, to int64
		ok       bool
	}{
		{"0:200", 0, 200, true},
		{"5:5", 5, 5, true},
		{" 3 : 9 ", 3, 9, true},
		{"-4:4", -4, 4, true},
		{"9:3", 0, 0, false},
		{"12", 0, 0, false},
		{"a:b", 0, 0, false},
		{"", 0, 0, false},
	}
	for _, tc := range cases {
		from, to, err := parseRange(tc.in)
		if tc.ok && (err != nil || from != tc.from || to != tc.to) {
			t.Errorf("parseRange(%q) = %d, %d, %v; want %d, %d", tc.in, from, to, err, tc.from, tc.to)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("parseRange(%q) accepted, want error", tc.in)
			} else if !errors.Is(err, errUsage) {
				t.Errorf("parseRange(%q) error is not a usage error: %v", tc.in, err)
			}
		}
	}
}

package main

import (
	"io"
	"path/filepath"
	"testing"

	"repro/internal/cli"
)

// TestExitCodes pins the CLI contract: usage mistakes exit 2, runtime
// failures exit 1. (Successful experiments are covered by main_test.go.)
func TestExitCodes(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-plan.txt")
	tests := []struct {
		name string
		args []string
		want int
	}{
		{"bad flag", []string{"-definitely-not-a-flag"}, cli.ExitUsage},
		{"unknown experiment", []string{"-experiment", "warpdrive"}, cli.ExitUsage},
		{"missing faults file", []string{"-experiment", "twonode", "-quick", "-faults", missing}, cli.ExitFailure},
		{"retired benchjson flag", []string{"-benchjson", "x"}, cli.ExitUsage},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := cliMain(tc.args, io.Discard); got != tc.want {
				t.Errorf("cliMain(%q) = %d, want %d", tc.args, got, tc.want)
			}
		})
	}
}

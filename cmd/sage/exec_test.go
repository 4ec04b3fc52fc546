package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestSeedSweepPasses runs the in-process differential loop for a few
// generated seeds end to end through the CLI surface.
func TestSeedSweepPasses(t *testing.T) {
	var out bytes.Buffer
	if err := cmdExec([]string{"-seed-range", "0:3", "-quick"}, &out, io.Discard); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "3/3 seeds pass") {
		t.Fatalf("unexpected summary:\n%s", out.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if strings.HasPrefix(line, "seed ") && !strings.Contains(line, "PASS oracle+sim") {
			t.Fatalf("seed line without PASS: %q", line)
		}
	}
}

// TestAppModeVerifies runs a small benchmark app through plan/execute/oracle.
func TestAppModeVerifies(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-app", "ct", "-n", "16", "-nodes", "2", "-iterations", "2"}
	if err := cmdExec(args, &out, io.Discard); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "verified vs oracle") {
		t.Fatalf("missing verification line:\n%s", out.String())
	}
}

// TestEmitWritesPackage checks -emit materializes a source package.
func TestEmitWritesPackage(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	args := []string{"-app", "fft2d", "-n", "16", "-nodes", "2", "-emit", dir}
	if err := cmdExec(args, &out, io.Discard); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "emitted ") {
		t.Fatalf("missing emit line:\n%s", out.String())
	}
}

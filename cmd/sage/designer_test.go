package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestNewModelAndValidate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ct.sage")
	if _, err := stdoutOf(cmdDesigner, "-new", "cornerturn", "-n", "128", "-threads", "4", "-o", path); err != nil {
		t.Fatal(err)
	}
	out, err := stdoutOf(cmdDesigner, "-model", path, "-summary")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"OK", "transpose_block", "arc"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestKindsListing(t *testing.T) {
	out, err := stdoutOf(cmdDesigner, "-kinds")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fft_rows", "source_matrix", "software shelf"} {
		if !strings.Contains(out, want) {
			t.Fatalf("kinds missing %q", want)
		}
	}
}

func TestHWRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.hw")
	if _, err := stdoutOf(cmdDesigner, "-new-hw", "Mercury", "-boards", "3", "-o", path); err != nil {
		t.Fatal(err)
	}
	out, err := stdoutOf(cmdDesigner, "-hw", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "3 boards x 4 procs = 12 nodes") {
		t.Fatalf("hw summary wrong:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	if _, err := stdoutOf(cmdDesigner, "-new", "warpdrive", "-n", "64", "-threads", "4"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := stdoutOf(cmdDesigner); err == nil {
		t.Fatal("no action accepted")
	}
	if _, err := stdoutOf(cmdDesigner, "-model", "/nonexistent.sage"); err == nil {
		t.Fatal("missing model accepted")
	}
	if _, err := stdoutOf(cmdDesigner, "-new-hw", "NoSuchVendor", "-boards", "2"); err == nil {
		t.Fatal("unknown platform accepted")
	}
}

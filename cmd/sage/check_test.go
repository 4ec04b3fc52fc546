package main

import (
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// checkFile writes a fault plan and runs sage check fault on it.
func checkFile(t *testing.T, src string, nodes int) (string, error) {
	t.Helper()
	path := writeTemp(t, t.TempDir(), "plan.txt", src)
	var out strings.Builder
	err := cmdCheck([]string{"fault", "-nodes", strconv.Itoa(nodes), path}, &out, io.Discard)
	return out.String(), err
}

func TestValidPlanNormalised(t *testing.T) {
	out, err := checkFile(t, `
# trouble at t=1ms
seed 42
drop link=0->1   rate=0.5 from=1ms to=3ms
stall node=2 at=2ms for=500us
`, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"seed 42",
		"drop link=0->1 rate=0.5 from=1ms to=3ms",
		"stall node=2 at=2ms",
		"ok — seed 42, 1 drop / 0 degrade / 1 stall rules",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestEmptyPlanOK(t *testing.T) {
	out, err := checkFile(t, "# nothing\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "empty plan") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestParseErrorRefused(t *testing.T) {
	if _, err := checkFile(t, "drop rate=2\n", 0); err == nil {
		t.Fatal("out-of-range rate accepted")
	}
	if _, err := checkFile(t, "boom\n", 0); err == nil {
		t.Fatal("unknown directive accepted")
	}
}

func TestNodeBoundsChecked(t *testing.T) {
	src := "stall node=7 at=1ms for=1ms\n"
	if _, err := checkFile(t, src, 4); err == nil {
		t.Fatal("stall beyond machine size accepted with -nodes 4")
	}
	if _, err := checkFile(t, src, 8); err != nil {
		t.Fatalf("valid node refused: %v", err)
	}
	if _, err := checkFile(t, src, 0); err != nil {
		t.Fatalf("-nodes 0 should skip the bounds check: %v", err)
	}
}

func TestMissingFile(t *testing.T) {
	if err := cmdCheck([]string{"fault", filepath.Join(t.TempDir(), "absent.txt")}, io.Discard, io.Discard); err == nil {
		t.Fatal("missing file accepted")
	}
}

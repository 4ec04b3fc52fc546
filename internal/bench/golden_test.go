package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/fingerprint.golden")

const goldenPath = "testdata/fingerprint.golden"

// TestFingerprintGolden runs the full matrix and compares its fingerprint
// with the committed one byte for byte: virtual time, dispatch counts and
// the exec output hash are host-independent, so any difference means
// simulated or predicted behaviour changed. A change that means to move
// them regenerates the file with -update and shows the diff for review.
func TestFingerprintGolden(t *testing.T) {
	rs, err := Run(Matrix())
	if err != nil {
		t.Fatal(err)
	}
	got := []byte(Fingerprint(rs))
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("fingerprint diverges at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("fingerprint has %d lines, want %d", len(gl), len(wl))
	}
}

// golden reads the committed fingerprint's virtual time and dispatches by
// case name. TestFingerprintGolden holds the file equal to a fresh run, so
// the gates below read the full-size matrix without running it again.
func golden(t *testing.T) map[string]Result {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]Result{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		var r Result
		if _, err := fmt.Sscanf(line, "%s virtual_ns=%d dispatches=%d", &r.Name, &r.VirtualNS, &r.Dispatches); err != nil {
			t.Fatalf("%s: %q: %v", goldenPath, line, err)
		}
		out[r.Name] = r
	}
	return out
}

// widePair returns the golden lines of the matrix's two wide-topology cases
// on platform (empty is CSPI): base is the one sel rejects, other the one it
// accepts.
func widePair(t *testing.T, platform string, sel func(Case) bool) (base, other Result) {
	t.Helper()
	g := golden(t)
	var found int
	for _, c := range Matrix() {
		if c.Threads == 0 || c.Platform != platform {
			continue
		}
		r, ok := g[c.Name]
		if !ok {
			t.Fatalf("%s has no line for %q", goldenPath, c.Name)
		}
		if sel(c) {
			other = r
		} else {
			base = r
		}
		found++
	}
	if found != 2 {
		t.Fatalf("matrix has %d wide cases on %q, want a pair", found, platform)
	}
	return base, other
}

// TestFingerprintTwinAccuracy is the twin's full-size calibration gate: on
// the 1024-node topology its prediction lands within 25 % of the DES, and
// the analytical case dispatches nothing.
func TestFingerprintTwinAccuracy(t *testing.T) {
	des, tw := widePair(t, "", func(c Case) bool { return c.Twin })
	if tw.Dispatches != 0 {
		t.Errorf("twin case dispatched %d events", tw.Dispatches)
	}
	d := float64(tw.VirtualNS - des.VirtualNS)
	if d < 0 {
		d = -d
	}
	if ape := 100 * d / float64(des.VirtualNS); ape > 25 {
		t.Errorf("twin predicts %d ns, DES measures %d ns (APE %.1f%% > 25%%)", tw.VirtualNS, des.VirtualNS, ape)
	}
}

// TestFingerprintShardIdentity: sharding is a wall-clock knob only, so the
// sharded 1024-node Mercury case has the sequential case's line exactly.
func TestFingerprintShardIdentity(t *testing.T) {
	seq, sharded := widePair(t, "Mercury", func(c Case) bool { return c.Shards > 1 })
	if sharded.VirtualNS != seq.VirtualNS || sharded.Dispatches != seq.Dispatches {
		t.Errorf("sharding changed the fingerprint: virtual %d vs %d, dispatches %d vs %d",
			seq.VirtualNS, sharded.VirtualNS, seq.Dispatches, sharded.Dispatches)
	}
}

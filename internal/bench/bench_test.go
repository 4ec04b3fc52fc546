package bench

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

// tinyCases is a fast sub-matrix covering every case shape: clean, faulted,
// traced, analytically priced, on another platform, streamed and executed.
func tinyCases() []Case {
	return []Case{
		{Name: "fft64.clean", App: experiments.AppFFT2D, N: 64, Nodes: 4, Iterations: 2},
		{Name: "fft64.faulted", App: experiments.AppFFT2D, N: 64, Nodes: 4, Iterations: 2, Faulted: true},
		{Name: "ct64.clean.traced", App: experiments.AppCornerTurn, N: 64, Nodes: 4, Iterations: 2, Traced: true},
		{Name: "fft64.twin", App: experiments.AppFFT2D, N: 64, Nodes: 4, Iterations: 2, Twin: true},
		{Name: "fft64.mercury", App: experiments.AppFFT2D, N: 64, Nodes: 4, Iterations: 2, Platform: "Mercury"},
		{Name: "stream64.mixed", App: experiments.AppFFT2D, N: 64, Nodes: 4, Iterations: 8, Stream: true},
		{Name: "fft64.exec", App: experiments.AppFFT2D, N: 64, Nodes: 4, Iterations: 2, Exec: true},
	}
}

// TestRunValidatesAndFingerprints: every case shape yields the outputs its
// kind defines — simulations time and dispatch, the twin predicts without
// dispatching, an exec case hashes its output and has no virtual time — and
// the fingerprint has one line per case.
func TestRunValidatesAndFingerprints(t *testing.T) {
	cases := tinyCases()
	rs, err := Run(cases)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		c := cases[i]
		if r.Name != c.Name {
			t.Fatalf("result %d is %q, want %q", i, r.Name, c.Name)
		}
		switch {
		case c.Exec:
			if r.VirtualNS != 0 || r.Dispatches != 0 || len(r.OutputHash) != 64 {
				t.Errorf("exec case %q: virtual_ns=%d dispatches=%d output=%q", c.Name, r.VirtualNS, r.Dispatches, r.OutputHash)
			}
		case c.Twin:
			if r.VirtualNS <= 0 || r.Dispatches != 0 {
				t.Errorf("twin case %q: virtual_ns=%d dispatches=%d", c.Name, r.VirtualNS, r.Dispatches)
			}
		default:
			if r.VirtualNS <= 0 || r.Dispatches == 0 || r.OutputHash != "" {
				t.Errorf("simulated case %q: virtual_ns=%d dispatches=%d output=%q", c.Name, r.VirtualNS, r.Dispatches, r.OutputHash)
			}
		}
	}
	fp := Fingerprint(rs)
	if strings.Count(fp, "\n") != len(rs) {
		t.Fatalf("fingerprint has wrong line count:\n%s", fp)
	}
	for _, c := range cases {
		if !strings.Contains(fp, c.Name+" ") {
			t.Fatalf("fingerprint missing case %q", c.Name)
		}
	}
}

// TestDeterministicFields is the determinism gate on the tiny cases: two
// fresh runs must agree exactly.
func TestDeterministicFields(t *testing.T) {
	a, err := Run(tinyCases())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tinyCases())
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatalf("deterministic fields changed between runs:\n--- first\n%s--- second\n%s", Fingerprint(a), Fingerprint(b))
	}
}

func TestMatrixShape(t *testing.T) {
	cases := Matrix()
	var traced, faulted, wide, wideTwin, wideMercury, streamed, execs int
	seen := map[string]bool{}
	for _, c := range cases {
		if seen[c.Name] {
			t.Fatalf("duplicate case name %q", c.Name)
		}
		seen[c.Name] = true
		if c.Traced {
			traced++
		}
		if c.Faulted {
			faulted++
		}
		if c.Stream {
			streamed++
			if c.Iterations <= 0 {
				t.Fatalf("stream case %q offers no frames", c.Name)
			}
		}
		if c.Exec {
			execs++
			if c.Traced || c.Faulted || c.Twin || c.Stream {
				t.Fatalf("exec case %q mixes modes", c.Name)
			}
		}
		if c.Threads > 0 {
			wide++
			if c.Twin {
				wideTwin++
			}
			if c.Platform == "Mercury" {
				wideMercury++
			}
			if c.Nodes < 1024 {
				t.Fatalf("wide case %q has only %d nodes", c.Name, c.Nodes)
			}
		}
	}
	// The wide-topology cases: the CSPI tables priced by the DES and the
	// twin, plus the Mercury DES case, all at 1024 nodes.
	if wide != 3 || wideTwin != 1 || wideMercury != 1 {
		t.Fatalf("%d wide cases (%d twin, %d Mercury), want the CSPI des+twin pair and one Mercury case", wide, wideTwin, wideMercury)
	}
	if streamed != 1 {
		t.Fatalf("%d stream cases, want 1", streamed)
	}
	if execs != 1 {
		t.Fatalf("%d exec cases, want 1", execs)
	}
	sims := len(cases) - wide - streamed - execs
	if traced != sims/2 || faulted != sims/2 {
		t.Fatalf("matrix unbalanced: %d sims, %d traced, %d faulted", sims, traced, faulted)
	}
}

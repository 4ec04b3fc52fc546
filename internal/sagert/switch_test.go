package sagert

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/platforms"
)

// TestSwitchCeilings pins what the kernel-side time-slicing removed, as
// counts that repeat exactly on any host: of the events a run dispatches,
// how many resumed a process other than the one executing the event loop
// (Result.Switches). Dispatches are pinned beside them so a ceiling cannot be
// met by simulating something else.
func TestSwitchCeilings(t *testing.T) {
	cases := []struct {
		name           string
		threads, nodes int
		wide           bool // staggered across a Mercury crossbar instead of spread over CSPI
		iters          int
		dispatches     uint64
		maxSwitches    uint64
		why            string
	}{
		// The daemon's sim request (benchmark serve_mix, class sim): 2 647 of
		// its 4 761 events are quantum ends and 64 % of acquires are contended.
		// As process wakes that was 4 060 switches; as kernel steps, 532.
		{"serve_mix sim shape", 4, 8, false, 5, 4761, 700, "4 060 with the quantum loop in the process"},
		// benchmark wide1024, class seq: bursts there are shorter than one
		// quantum (795 of 56 679 quanta are non-final), so the count barely
		// moves — it must just not go up.
		{"wide1024 seq shape", 64, 1024, true, 3, 119980, 91958, "the count with the quantum loop in the process"},
	}
	for _, c := range cases {
		app, err := apps.FFT2D(256, c.threads)
		if err != nil {
			t.Fatal(err)
		}
		place, pl := model.SpreadParallel, platforms.CSPI()
		if c.wide {
			place, pl = model.StaggerParallel, platforms.Mercury()
		}
		mapping, err := place(app, c.nodes)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: pl, NumNodes: c.nodes})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(gen.Tables, pl, Options{Iterations: c.iters, ComputeIterations: NoSamples})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d dispatches, %d switches", c.name, res.Dispatches, res.Switches)
		if res.Dispatches != c.dispatches {
			t.Fatalf("%s: %d dispatches, want %d", c.name, res.Dispatches, c.dispatches)
		}
		if res.Switches > c.maxSwitches {
			t.Fatalf("%s: %d process switches, ceiling %d (%s)", c.name, res.Switches, c.maxSwitches, c.why)
		}
	}
}

package conformance

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/pool"
)

// Config tunes a conformance campaign over a seed range.
type Config struct {
	// Quick bounds generated graph and platform sizes (CI smoke runs).
	Quick bool
	// Parallelism is the number of concurrent checker workers; <= 0 means 1.
	// Parallelism affects wall clock only — the report is byte-identical for
	// any value (itself one of the subsystem's determinism claims).
	Parallelism int
	// Mutate runs the mutation self-test: a simulated runtime miscomputation
	// is injected after every run, every seed must FAIL, and each failure must
	// shrink to a tiny reproducer. Proves the harness detects a broken runtime.
	Mutate bool
	// MutateExec runs the mutation self-test on the generated-code path
	// instead: the executed program's output is corrupted before comparison,
	// every seed must FAIL on the exec variant, and each failure must shrink.
	// Proves the compiled-code differential check detects a broken emitter.
	MutateExec bool
	// CorpusDir, when set, receives a reproducer file seed-<seed>.case for
	// every (shrunken) failing seed.
	CorpusDir string
	// MaxShrinkChecks bounds the differential checks each shrink may spend;
	// <= 0 selects DefaultShrinkChecks.
	MaxShrinkChecks int
	// NoShrink reports raw failures without minimizing them.
	NoShrink bool
}

// SeedResult is the outcome of one seed.
type SeedResult struct {
	Seed    int64
	GenErr  string // generator rejected the seed (a bug in the generator)
	Tasks   int    // generated graph size
	Arcs    int
	Nodes   int
	Failure *Failure // nil when every invariant held
	// Shrunk describes the minimized reproducer when Failure != nil and
	// shrinking ran: tasks/arcs of the reduced case and the checks spent.
	ShrunkTasks  int
	ShrunkArcs   int
	ShrinkChecks int
	CorpusFile   string // reproducer path when CorpusDir was set

	// repro is the (shrunken) failing case, held for corpus writing.
	repro *Case
}

// Failed reports whether the seed misbehaved (generator error or check
// failure).
func (r *SeedResult) Failed() bool { return r.GenErr != "" || r.Failure != nil }

// Report is the outcome of a campaign.
type Report struct {
	Config  Config
	Seeds   []SeedResult // ascending seed order regardless of parallelism
	Checked int          // seeds that generated and ran
	Passed  int
	Failed  int
}

// Run executes the campaign over seeds [from, to) and returns the report.
// Failing cases are shrunk and, when cfg.CorpusDir is set, written as
// reproducer files.
func Run(from, to int64, cfg Config) (*Report, error) {
	if to < from {
		return nil, fmt.Errorf("conformance: bad seed range [%d, %d)", from, to)
	}
	// runSeed reports a failing seed as data, never as an error, so the
	// pool's first-error cancel never fires and every seed runs.
	results, _ := pool.Run(max(cfg.Parallelism, 1), int(to-from), func(i int) (SeedResult, error) {
		return runSeed(from+int64(i), cfg), nil
	})

	rep := &Report{Config: cfg, Seeds: results}
	for i := range results {
		r := &results[i]
		if r.GenErr == "" {
			rep.Checked++
		}
		if r.Failed() {
			rep.Failed++
		} else {
			rep.Passed++
		}
	}
	// Corpus files are written after the pool so a crash mid-campaign never
	// leaves a half-written reproducer, and writes happen in seed order.
	if cfg.CorpusDir != "" {
		if err := os.MkdirAll(cfg.CorpusDir, 0o755); err != nil {
			return rep, err
		}
		for i := range results {
			r := &results[i]
			if r.Failure == nil || r.repro == nil {
				continue
			}
			path := filepath.Join(cfg.CorpusDir, fmt.Sprintf("seed-%d.case", r.Seed))
			if err := WriteCaseFile(path, r.repro); err != nil {
				return rep, fmt.Errorf("conformance: writing reproducer for seed %d: %w", r.Seed, err)
			}
			r.CorpusFile = path
		}
	}
	return rep, nil
}

// runSeed generates, checks and (on failure) shrinks one seed.
func runSeed(seed int64, cfg Config) SeedResult {
	r := SeedResult{Seed: seed}
	c, err := Generate(seed, GenConfig{Quick: cfg.Quick})
	if err != nil {
		r.GenErr = err.Error()
		return r
	}
	r.Tasks, r.Arcs, r.Nodes = c.Tasks(), c.Arcs(), c.Nodes
	opt := CheckOptions{MutateRuntime: cfg.Mutate, MutateExec: cfg.MutateExec}
	r.Failure = c.Check(opt)
	if r.Failure == nil {
		return r
	}
	if cfg.NoShrink {
		r.repro = c
		r.ShrunkTasks, r.ShrunkArcs = c.Tasks(), c.Arcs()
		return r
	}
	sr := Shrink(c, opt, cfg.MaxShrinkChecks)
	r.repro = sr.Case
	r.Failure = sr.Failure
	r.ShrunkTasks, r.ShrunkArcs, r.ShrinkChecks = sr.Case.Tasks(), sr.Case.Arcs(), sr.Checks
	return r
}

// Format renders the report deterministically: identical input seeds and
// config produce byte-identical text for any parallelism.
func (rep *Report) Format() string {
	var b strings.Builder
	mode := "verify"
	switch {
	case rep.Config.Mutate:
		mode = "mutate (every seed must fail and shrink)"
	case rep.Config.MutateExec:
		mode = "mutate-exec (every seed must fail on the generated-code path and shrink)"
	}
	fmt.Fprintf(&b, "conformance: %d seeds, mode %s\n", len(rep.Seeds), mode)
	for i := range rep.Seeds {
		r := &rep.Seeds[i]
		switch {
		case r.GenErr != "":
			fmt.Fprintf(&b, "seed %d: GENERATOR ERROR: %s\n", r.Seed, r.GenErr)
		case r.Failure != nil:
			fmt.Fprintf(&b, "seed %d: FAIL %s (graph %dt/%da on %dn",
				r.Seed, r.Failure, r.Tasks, r.Arcs, r.Nodes)
			if r.ShrunkTasks > 0 {
				fmt.Fprintf(&b, ", shrunk to %dt/%da in %d checks", r.ShrunkTasks, r.ShrunkArcs, r.ShrinkChecks)
			}
			b.WriteString(")")
			if r.CorpusFile != "" {
				fmt.Fprintf(&b, " -> %s", filepath.Base(r.CorpusFile))
			}
			b.WriteString("\n")
		}
	}
	fmt.Fprintf(&b, "conformance: %d/%d seeds passed, %d failed\n",
		rep.Passed, len(rep.Seeds), rep.Failed)
	return b.String()
}

// OK reports whether the campaign met its expectation: in verify mode every
// seed passes; in the mutate modes every seed fails (the harness caught the
// injected miscomputation each time) and every shrunk reproducer is tiny.
func (rep *Report) OK() bool {
	if rep.Config.Mutate || rep.Config.MutateExec {
		for i := range rep.Seeds {
			r := &rep.Seeds[i]
			if r.GenErr != "" || r.Failure == nil {
				return false
			}
			if !rep.Config.NoShrink && r.ShrunkTasks > 5 {
				return false
			}
		}
		return true
	}
	return rep.Failed == 0
}

package conformance

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCorpusReplay re-runs every committed reproducer in testdata/corpus
// through the complete differential check on each `go test`: a case that once
// exposed a bug (or pins a degenerate shape) keeps guarding it forever. New
// reproducers land here by copying the seed-<n>.case file sage conform writes
// on failure.
func TestCorpusReplay(t *testing.T) {
	dir := filepath.Join("testdata", "corpus")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".case") {
			continue
		}
		n++
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			c, err := ReadCaseFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatalf("unreadable reproducer: %v", err)
			}
			if fail := c.Check(CheckOptions{}); fail != nil {
				t.Fatalf("reproducer regressed: %s", fail)
			}
		})
	}
	if n == 0 {
		t.Fatal("corpus directory holds no .case files")
	}
}

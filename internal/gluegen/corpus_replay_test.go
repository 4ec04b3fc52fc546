package gluegen

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// decodeFuzzCorpus extracts the single string argument from a Go fuzz corpus
// v1 file ("go test fuzz v1\nstring(...)").
func decodeFuzzCorpus(t testing.TB, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a fuzz corpus v1 file", path)
	}
	body := strings.TrimSpace(lines[1])
	body = strings.TrimPrefix(body, "string(")
	body = strings.TrimSuffix(body, ")")
	s, err := strconv.Unquote(body)
	if err != nil {
		t.Fatalf("%s: bad string literal: %v", path, err)
	}
	return s
}

// TestFuzzCorpusReplay drives every committed FuzzParseTableSource corpus
// entry through the runtime-table parser and verifier explicitly, keeping the
// regression corpus load-bearing under -run filters.
func TestFuzzCorpusReplay(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzParseTableSource")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty fuzz corpus")
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		src := decodeFuzzCorpus(t, filepath.Join(dir, e.Name()))
		t.Run(e.Name(), func(t *testing.T) {
			tables, err := ParseTableSource(src)
			if err != nil {
				t.Logf("rejected (ok): %v", err)
				return
			}
			// Verification must classify parsed tables without panicking.
			if err := tables.Verify(); err != nil {
				t.Logf("verify rejected (ok): %v", err)
			}
		})
	}
}

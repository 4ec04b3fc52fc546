package archtest

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const sizeTable = "testdata/package_lines.txt"

// packageLines counts the lines of every package's non-test Go files, keyed
// by the package directory relative to the module root ("." for the root).
// Hidden directories and testdata are not packages of the module.
func packageLines() (map[string]int, error) {
	lines := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		lines[filepath.ToSlash(rel)] += bytes.Count(src, []byte("\n"))
		return nil
	})
	return lines, err
}

// TestPackageLinesMatchTable is the size receipt: every package's non-test
// Go line count equals its row in testdata/package_lines.txt. A change that
// grows a package edits the row in the same diff, where a reviewer sees it,
// and says why in CHANGES.md; a change that shrinks one lowers the row, so
// the slack it freed cannot be spent later without a receipt of its own.
func TestPackageLinesMatchTable(t *testing.T) {
	got, err := packageLines()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(sizeTable)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]int{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) != 2 {
			t.Fatalf("%s:%d: want \"<package dir> <lines>\", got %q", sizeTable, n, sc.Text())
		}
		count, err := strconv.Atoi(fields[1])
		if err != nil {
			t.Fatalf("%s:%d: %v", sizeTable, n, err)
		}
		want[fields[0]] = count
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	var dirs []string
	for dir := range got {
		dirs = append(dirs, dir)
	}
	for dir := range want {
		if _, ok := got[dir]; !ok {
			dirs = append(dirs, dir)
		}
	}
	sort.Strings(dirs)
	var table strings.Builder
	for _, dir := range dirs {
		g, w := got[dir], want[dir]
		if _, listed := want[dir]; !listed {
			t.Errorf("%s: %d lines, not in %s: add its row", dir, g, sizeTable)
		} else if g == 0 {
			t.Errorf("%s: no non-test Go left: delete its row", dir)
		} else if g != w {
			t.Errorf("%s: %d lines, table says %d: edit its row (growth is explained in CHANGES.md)", dir, g, w)
		}
		if g > 0 {
			fmt.Fprintf(&table, "%s %d\n", dir, g)
		}
	}
	if t.Failed() {
		t.Logf("rows for the tree as it stands:\n%s", table.String())
	}
}

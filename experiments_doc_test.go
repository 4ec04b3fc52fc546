package sage_test

import (
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var updateDoc = flag.Bool("update", false, "rewrite the generated blocks of EXPERIMENTS.md")

const experimentsDoc = "EXPERIMENTS.md"

// docMarkers are the lines around an experiment's block in EXPERIMENTS.md.
func docMarkers(name string) (begin, end string) {
	return "<!-- experiment " + name + " -->\n```text\n", "```\n<!-- /experiment " + name + " -->\n"
}

// TestExperimentsDoc runs every registered experiment once, at the paper's
// sizes, and holds EXPERIMENTS.md's block for it equal to what
// `sage bench -experiment <name>` prints. A change that moves a published
// number regenerates the file with -update, and the diff shows what moved.
func TestExperimentsDoc(t *testing.T) {
	data, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	var stale []string
	for _, e := range experiments.Experiments {
		got, err := e.Run(experiments.Protocol{})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		begin, end := docMarkers(e.Name)
		i := strings.Index(doc, begin)
		if i < 0 {
			t.Fatalf("%s has no block for %s (want a line %q)", experimentsDoc, e.Name, strings.SplitN(begin, "\n", 2)[0])
		}
		i += len(begin)
		n := strings.Index(doc[i:], end)
		if n < 0 {
			t.Fatalf("%s: block for %s is not closed by %q", experimentsDoc, e.Name, strings.TrimSuffix(end, "\n"))
		}
		if want := doc[i : i+n]; want != got {
			stale = append(stale, e.Name)
			t.Logf("%s block differs:\n--- %s ---\n%s--- sage bench ---\n%s", e.Name, experimentsDoc, want, got)
			doc = doc[:i] + got + doc[i+n:]
		}
	}
	if len(stale) == 0 {
		return
	}
	if *updateDoc {
		if err := os.WriteFile(experimentsDoc, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote the %s blocks of %s", strings.Join(stale, ", "), experimentsDoc)
		return
	}
	t.Errorf("%s is stale for %s; regenerate with go test -run TestExperimentsDoc -update .",
		experimentsDoc, strings.Join(stale, ", "))
}

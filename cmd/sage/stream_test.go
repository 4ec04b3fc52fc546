package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"repro/internal/stream"
)

// goldenScenario is the committed remap scenario the experiments package
// pins its golden output to — the CLI exercises the same file CI gates on.
const goldenScenario = "../../internal/experiments/testdata/stream_remap.json"

// smallScenario is a fast remap-free mix for the plain-run tests.
const smallScenario = `{"app":"fft2d","n":32,"threads":2,"nodes":4,"seed":7,"classes":[
{"name":"interactive","process":"poisson","rate":400,"frames":12,"slo_ms":20},
{"name":"batch","process":"gamma","rate":100,"shape":4,"frames":4,"weight":2}]}`

func writeScenario(t *testing.T, src string) string {
	t.Helper()
	return writeTemp(t, t.TempDir(), "scenario.json", src)
}

func TestRunPrintsReport(t *testing.T) {
	var out bytes.Buffer
	if err := cmdStream([]string{writeScenario(t, smallScenario)}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"streaming run: 16 offered", "interactive", "batch", "Jain fairness"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
}

func TestJSONReportValidates(t *testing.T) {
	var out bytes.Buffer
	if err := cmdStream([]string{"-json", writeScenario(t, smallScenario)}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var rep stream.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-json output is not a report: %v", err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("-json report fails schema: %v", err)
	}
	if rep.Offered != 16 || rep.Completed != 16 {
		t.Errorf("offered %d completed %d, want 16/16", rep.Offered, rep.Completed)
	}
}

func TestCompareGoldenImproves(t *testing.T) {
	var out bytes.Buffer
	err := cmdStream([]string{"-compare", "-require-improved", "-parallel", "2", goldenScenario}, &out, io.Discard)
	if err != nil {
		t.Fatalf("-require-improved failed on the committed golden scenario: %v", err)
	}
	if !strings.Contains(out.String(), "remapping cut late+shed") {
		t.Errorf("comparison verdict missing:\n%s", out.String())
	}
}

func TestCompareNeedsRemapPolicy(t *testing.T) {
	err := cmdStream([]string{"-compare", writeScenario(t, smallScenario)}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "remap policy") {
		t.Fatalf("compare without a remap policy: err = %v", err)
	}
}

func TestReplayByteIdentical(t *testing.T) {
	var out bytes.Buffer
	if err := cmdStream([]string{"-replay", "-parallel", "8", goldenScenario}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "replay ok") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestCheckAcceptsOwnOutput(t *testing.T) {
	var rep bytes.Buffer
	if err := cmdStream([]string{"-json", writeScenario(t, smallScenario)}, &rep, io.Discard); err != nil {
		t.Fatal(err)
	}
	path := writeTemp(t, t.TempDir(), "report.json", rep.String())
	var out bytes.Buffer
	if err := cmdCheck([]string{"stream", path}, &out, io.Discard); err != nil {
		t.Fatalf("check stream refused the CLI's own -json output: %v", err)
	}
	if !strings.Contains(out.String(), "ok — sage-stream/1") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestCheckRejectsBadReports(t *testing.T) {
	cases := []struct{ name, body string }{
		{"not json", "not a report"},
		{"unknown field", `{"schema":"sage-stream/1","bogus":1}`},
		{"wrong schema", `{"schema":"sage-stream/9","seed":1,"offered":1,"admitted":1,"completed":1,"classes":[]}`},
	}
	for _, tc := range cases {
		path := writeTemp(t, t.TempDir(), "report.json", tc.body)
		if err := cmdCheck([]string{"stream", path}, io.Discard, io.Discard); err == nil {
			t.Errorf("%s: check stream accepted it", tc.name)
		}
	}
}

func TestModeConflictsAreUsageErrors(t *testing.T) {
	bad := [][]string{
		{"-compare", "-replay"},
		{"-compare", "-check"},
		{"-require-improved"},
		{"-parallel", "0"},
	}
	for _, args := range bad {
		err := cmdStream(append(args, goldenScenario), io.Discard, io.Discard)
		if exitCode(err) != exitUsage {
			t.Errorf("flags %q: err = %v, want a usage error", args, err)
		}
	}
}

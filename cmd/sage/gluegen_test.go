package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/gluegen"
	"repro/internal/model"
)

// writeInputs serialises a model and matching mapping into dir.
func writeInputs(t *testing.T, dir string) (modelPath, mappingPath string) {
	t.Helper()
	modelPath = writeModel(t, dir, apps.FFT2D, 64, 4)
	app, err := apps.FFT2D(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	mapping, err := model.SpreadParallel(app, 4)
	if err != nil {
		t.Fatal(err)
	}
	mappingPath = filepath.Join(dir, "m.map")
	pf, err := os.Create(mappingPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := mapping.WriteText(pf, app.Name); err != nil {
		t.Fatal(err)
	}
	pf.Close()
	return modelPath, mappingPath
}

// gluegenArgs is sage gluegen's command line for a design on 4 nodes of
// platform.
func gluegenArgs(modelPath, mappingPath, platform string, extra ...string) []string {
	return append([]string{"-model", modelPath, "-mapping", mappingPath, "-platform", platform, "-nodes", "4"}, extra...)
}

func TestGenerateToFiles(t *testing.T) {
	dir := t.TempDir()
	modelPath, mappingPath := writeInputs(t, dir)
	tblPath := filepath.Join(dir, "m.tbl")
	gluePath := filepath.Join(dir, "m.glue")
	if err := cmdGluegen(gluegenArgs(modelPath, mappingPath, "CSPI", "-tables", tblPath, "-glue", gluePath), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(tblPath)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := gluegen.ParseTableSource(string(src))
	if err != nil {
		t.Fatal(err)
	}
	if err := tables.Verify(); err != nil {
		t.Fatal(err)
	}
	glue, err := os.ReadFile(gluePath)
	if err != nil || !strings.Contains(string(glue), "SAGE auto-generated") {
		t.Fatalf("glue listing: %v", err)
	}
}

func TestCustomScriptFile(t *testing.T) {
	dir := t.TempDir()
	modelPath, mappingPath := writeInputs(t, dir)
	scriptPath := writeTemp(t, dir, "broken.alter", "(no-such-call)")
	if err := cmdGluegen(gluegenArgs(modelPath, mappingPath, "CSPI", "-script", scriptPath), io.Discard, io.Discard); err == nil {
		t.Fatal("broken custom script accepted")
	}
}

func TestPrintScript(t *testing.T) {
	var out strings.Builder
	if err := cmdGluegen([]string{"-print-script"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if out.String() != gluegen.StandardScript {
		t.Fatal("-print-script did not print the standard script")
	}
}

func TestGluegenErrors(t *testing.T) {
	dir := t.TempDir()
	modelPath, mappingPath := writeInputs(t, dir)
	if err := cmdGluegen(nil, io.Discard, io.Discard); err == nil {
		t.Fatal("missing inputs accepted")
	}
	if err := cmdGluegen(gluegenArgs(modelPath, mappingPath, "Cray"), io.Discard, io.Discard); err == nil {
		t.Fatal("unknown platform accepted")
	}
	// Mapping for a different app.
	other := writeTemp(t, dir, "other.map", "mapping different\nmap f 0\n")
	if err := cmdGluegen(gluegenArgs(modelPath, other, "CSPI"), io.Discard, io.Discard); err == nil {
		t.Fatal("mismatched mapping accepted")
	}
}

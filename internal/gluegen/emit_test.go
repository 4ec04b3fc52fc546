package gluegen

import (
	"strings"
	"testing"

	"repro/internal/alter"
)

// runEmit runs script with the model bound and returns the table text and
// the glue listing, one after the other, and the error, stripped of the name
// of the builtin that raised it.
func runEmit(t *testing.T, in Input, script, builtin string) (string, string) {
	t.Helper()
	program, err := alter.Compile(script)
	if err != nil {
		t.Fatalf("%s: %v", script, err)
	}
	interp, table, glue := NewInterp(in)
	if _, err := interp.Run(program); err != nil {
		msg := err.Error()
		if !strings.HasPrefix(msg, builtin+": ") {
			t.Fatalf("%s: error %q is not %s's", script, msg, builtin)
		}
		return table.String() + "----\n" + glue.String(), strings.TrimPrefix(msg, builtin+": ")
	}
	return table.String() + "----\n" + glue.String(), ""
}

// TestEmitFormatEqualsEmitOfFormat: (emit-format tpl args...) writes the
// bytes (emit (format tpl args...)) writes — for every directive and every
// kind of argument — and fails with the same error where format fails; so
// does (emit-src-format tpl args...) against (emit-src (format tpl
// args...)), into the glue listing. Each form runs twice after a plain emit
// of each text, so the lines land in texts that are already growing.
func TestEmitFormatEqualsEmitOfFormat(t *testing.T) {
	in := tinyInput(t)
	calls := []string{
		`"plain text"`,
		`"~a|~A" "display" 'sym`,
		`"~s|~S" "wri\"te" "x"`,
		`"~~ and ~% and ~~~a" 7`,
		`"(xfer ~a ~a ~a ~a)" 0 1 2 '(0 16 8 16)`,
		`"(function ~a ~s ~s ~a ~a ~s ~a)" 3 "fn" "fft_rows" 2 '(0 1) '(("n" 256) ("w" "hann")) "#f"`,
		`"~a ~a ~a ~a" #t #f nil 2.5`,
		`"(app ~s ~s ~a)" (app-name) (platform-name) (num-nodes)`,
		`""`,
		// The errors: a dangling ~, too few arguments, an unknown
		// directive, a template that is not a string, no template.
		`"line ~"`,
		`"~a and ~s" 1`,
		`"~q" 1`,
		`42`,
		``,
	}
	for _, emit := range []string{"emit", "emit-src"} {
		failures := 0
		for _, call := range calls {
			script := func(form string) string {
				return "(emit \"first\") (emit-src \"first\")\n" + form + "\n" + form + "\n"
			}
			wantText, wantErr := runEmit(t, in, script("("+emit+" (format "+call+"))"), "format")
			gotText, gotErr := runEmit(t, in, script("("+emit+"-format "+call+")"), emit+"-format")
			if gotErr != wantErr {
				t.Errorf("%s: %s-format fails with %q, %s of format with %q", call, emit, gotErr, emit, wantErr)
				continue
			}
			if wantErr != "" {
				failures++
				continue
			}
			if gotText != wantText {
				t.Errorf("%s: %s-format writes %q, %s of format %q", call, emit, gotText, emit, wantText)
			}
		}
		if failures != 5 {
			t.Errorf("%s: %d of the calls failed, want the 5 error cases", emit, failures)
		}
	}
}

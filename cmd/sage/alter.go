package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/alter"
)

// cmdAlter is a standalone interpreter for the Alter language — the
// Lisp-like language the SAGE glue-code generator is written in (§2). It
// runs script files or an interactive read-eval-print loop, which is the
// environment a tool developer uses while writing a custom generator before
// handing it to sage gluegen -script. It takes no flags: any dash-prefixed
// argument other than "-" (stdin) is a usage mistake.
//
//	sage alter script.alter [more.alter ...]   # run files
//	sage alter                                 # REPL
//	echo '(+ 1 2)' | sage alter -              # evaluate stdin
func cmdAlter(args []string, stdout, stderr io.Writer) error {
	in := alter.New()
	// Scripts get (display ...) and (newline) for output, defined in this
	// interpreter only; the gluegen embedding has emit streams instead.
	in.Define("display", &alter.Builtin{Name: "display", Fn: func(_ *alter.Interp, a alter.List) (alter.Value, error) {
		for _, v := range a {
			fmt.Fprint(stdout, alter.Display(v))
		}
		return nil, nil
	}})
	in.Define("newline", &alter.Builtin{Name: "newline", Fn: func(_ *alter.Interp, a alter.List) (alter.Value, error) {
		fmt.Fprintln(stdout)
		return nil, nil
	}})

	for _, path := range args {
		if strings.HasPrefix(path, "-") && path != "-" {
			return usagef("unknown flag %q (usage: sage alter [script.alter ... | -])", path)
		}
	}
	if len(args) == 0 {
		repl(in, stdout)
		return nil
	}
	for _, path := range args {
		var src []byte
		var err error
		if path == "-" {
			src, err = io.ReadAll(os.Stdin)
		} else {
			src, err = os.ReadFile(path)
		}
		if err != nil {
			return err
		}
		if _, err := in.RunString(string(src)); err != nil {
			return err
		}
	}
	return nil
}

// repl reads balanced forms from stdin and prints each result.
func repl(in *alter.Interp, w io.Writer) {
	fmt.Fprintln(w, "Alter interpreter (the SAGE glue-code generator language); Ctrl-D to exit")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := func() {
		if pending.Len() == 0 {
			fmt.Fprint(w, "alter> ")
		} else {
			fmt.Fprint(w, "  ...> ")
		}
	}
	prompt()
	for sc.Scan() {
		pending.WriteString(sc.Text())
		pending.WriteByte('\n')
		src := pending.String()
		if !balanced(src) {
			prompt()
			continue
		}
		pending.Reset()
		if strings.TrimSpace(src) == "" {
			prompt()
			continue
		}
		v, err := in.RunString(src)
		if err != nil {
			fmt.Fprintln(w, "error:", err)
		} else {
			fmt.Fprintln(w, "=>", alter.Format(v))
		}
		prompt()
	}
	fmt.Fprintln(w)
}

// balanced reports whether every '(' has a matching ')' outside strings and
// comments (a heuristic good enough for a REPL continuation prompt).
func balanced(src string) bool {
	depth := 0
	inString := false
	inComment := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case inComment:
			if c == '\n' {
				inComment = false
			}
		case inString:
			if c == '\\' {
				i++
			} else if c == '"' {
				inString = false
			}
		case c == '"':
			inString = true
		case c == ';':
			inComment = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		}
	}
	return depth <= 0 && !inString
}

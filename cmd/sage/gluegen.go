package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/gluegen"
)

// cmdGluegen is the glue-code generator of Figure 1.0: it runs the Alter
// generator script (the standard one or a user script) over a model and its
// mapping, and writes the runtime table source and the human-readable glue
// listing.
//
//	sage gluegen -model fft2d.sage -mapping fft2d.map -platform CSPI -nodes 8 \
//	             -tables fft2d.tbl -glue fft2d_glue.txt
//	sage gluegen -model fft2d.sage -mapping fft2d.map -script my-generator.alter
func cmdGluegen(args []string, stdout, stderr io.Writer) error {
	fs := flags("gluegen", stderr)
	d := designFlags(fs, "mapping")
	scriptFile := fs.String("script", "", "custom Alter generator script (default: built-in standard script)")
	tablesOut := fs.String("tables", "", "write the runtime table source (default stdout)")
	glueOut := fs.String("glue", "", "write the human-readable glue listing")
	printScript := fs.Bool("print-script", false, "print the built-in Alter generator script and exit")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *printScript {
		fmt.Fprint(stdout, gluegen.StandardScript)
		return nil
	}
	if d.model == "" || d.mapping == "" {
		return usagef("-model and -mapping are required")
	}
	l, err := d.load()
	if err != nil {
		return err
	}
	script := gluegen.StandardScript
	if *scriptFile != "" {
		b, err := os.ReadFile(*scriptFile)
		if err != nil {
			return err
		}
		script = string(b)
	}
	out, err := gluegen.GenerateWith(l.input(), script)
	if err != nil {
		return err
	}
	transfers := 0
	for _, b := range out.Tables.Buffers {
		transfers += len(b.Transfers)
	}
	fmt.Fprintf(stderr, "generated %d functions, %d logical buffers, %d transfers; tables verified\n",
		len(out.Tables.Functions), len(out.Tables.Buffers), transfers)
	if *tablesOut == "" {
		fmt.Fprint(stdout, out.TableSource)
	} else if err := os.WriteFile(*tablesOut, []byte(out.TableSource), 0o644); err != nil {
		return err
	}
	if *glueOut == "" {
		return nil
	}
	return os.WriteFile(*glueOut, []byte(out.GlueSource), 0o644)
}

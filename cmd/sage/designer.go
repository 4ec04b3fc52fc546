package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/apps"
	"repro/internal/funclib"
	"repro/internal/model"
	"repro/internal/platforms"
)

// cmdDesigner is the command-line face of the SAGE Designer: it creates
// benchmark application models and hardware designs, validates models
// against the function library, and prints summaries.
//
//	sage designer -new fft2d -n 1024 -threads 8 -o fft2d.sage
//	sage designer -model fft2d.sage -summary
//	sage designer -new-hw Mercury -boards 3 -o mercury.hw
func cmdDesigner(args []string, stdout, stderr io.Writer) error {
	fs := flags("designer", stderr)
	newApp := fs.String("new", "", "create a benchmark model: fft2d | cornerturn | stap")
	n := fs.Int("n", 1024, "matrix edge for -new (power of two)")
	threads := fs.Int("threads", 8, "worker thread count for -new")
	out := fs.String("o", "", "output file for -new (default stdout)")
	modelFile := fs.String("model", "", "model file to load")
	summary := fs.Bool("summary", false, "print a model summary")
	kinds := fs.Bool("kinds", false, "list the function library (software shelf)")
	newHW := fs.String("new-hw", "", "emit a hardware design from a registry platform (CSPI|Mercury|SKY|SIGI|Workstations)")
	boards := fs.Int("boards", 2, "board count for -new-hw")
	hwFile := fs.String("hw", "", "hardware design file to validate and summarise")
	if err := parse(fs, args); err != nil {
		return err
	}
	// emit writes a new design to -o, or to stdout.
	emit := func(write func(io.Writer) error) error {
		if *out == "" {
			return write(stdout)
		}
		return writeFile(*out, write)
	}
	switch {
	case *newHW != "":
		pl, err := platforms.ByName(*newHW)
		if err != nil {
			return err
		}
		return emit(model.SystemFromPlatform(pl, *boards).WriteHWText)
	case *hwFile != "":
		f, err := os.Open(*hwFile)
		if err != nil {
			return err
		}
		defer f.Close()
		sys, err := model.ReadHWText(f)
		if err != nil {
			return err
		}
		pl := sys.Platform()
		fmt.Fprintf(stdout, "hardware %q: OK\n", sys.Name)
		fmt.Fprintf(stdout, "  %d boards x %d procs = %d nodes\n", sys.NumBoards, sys.Board.NumProcs, sys.NumNodes())
		fmt.Fprintf(stdout, "  cpu %s: %.0f MHz, %.2f flops/cycle, copy %.0f MB/s\n",
			sys.Board.Proc.Name, pl.ClockHz/1e6, pl.FlopsPerCycle, pl.MemCopyBW/1e6)
		fmt.Fprintf(stdout, "  fabric %s: %.0f MB/s, latency %v, alltoall %s\n",
			sys.Fabric.Name, pl.InterBW/1e6, pl.InterLatency, pl.AllToAll)
		return nil
	case *kinds:
		fmt.Fprintln(stdout, "function library (software shelf):")
		for _, k := range funclib.Kinds() {
			im, err := funclib.Lookup(k)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "  %-16s %s\n", k, im.Doc)
		}
		return nil
	case *newApp != "":
		build, ok := map[string]func(n, threads int) (*model.App, error){
			"fft2d": apps.FFT2D, "cornerturn": apps.CornerTurn, "stap": apps.STAP,
		}[*newApp]
		if !ok {
			return usagef("unknown benchmark %q (want fft2d, cornerturn or stap)", *newApp)
		}
		app, err := build(*n, *threads)
		if err != nil {
			return err
		}
		return emit(app.WriteText)
	case *modelFile == "":
		return usagef("nothing to do: pass -new, -model or -kinds")
	}
	f, err := os.Open(*modelFile)
	if err != nil {
		return err
	}
	defer f.Close()
	app, err := model.ReadText(f)
	if err != nil {
		return err
	}
	if err := app.Validate(); err != nil {
		return fmt.Errorf("model invalid: %w", err)
	}
	if err := funclib.ValidateApp(app); err != nil {
		return fmt.Errorf("model invalid against function library: %w", err)
	}
	fmt.Fprintf(stdout, "model %q: OK\n", app.Name)
	if *summary {
		printSummary(stdout, app)
	}
	return nil
}

func printSummary(w io.Writer, app *model.App) {
	fmt.Fprintf(w, "\n%d data types, %d functions, %d arcs\n\n", len(app.Types), len(app.Functions), len(app.Arcs))
	for _, fn := range app.Functions {
		fmt.Fprintf(w, "  [%d] %-14s kind=%-16s threads=%d\n", fn.ID, fn.Name, fn.Kind, fn.Threads)
		for _, p := range fn.Inputs {
			fmt.Fprintf(w, "        in  %-8s %4dx%-4d %s\n", p.Name, p.Type.Rows, p.Type.Cols, p.Striping)
		}
		for _, p := range fn.Outputs {
			fmt.Fprintf(w, "        out %-8s %4dx%-4d %s\n", p.Name, p.Type.Rows, p.Type.Cols, p.Striping)
		}
	}
	fmt.Fprintln(w)
	for _, a := range app.Arcs {
		fmt.Fprintf(w, "  arc %s\n", a)
	}
}

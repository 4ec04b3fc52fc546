package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/gluegen"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/platforms"
)

// design is the design-input flag group of atot, gluegen, run and twin: an
// application model, its mapping and the target hardware, or (run only)
// pre-generated tables.
type design struct {
	model, mapping, platform, hw, tables string
	nodes                                int
	takesMapping                         bool
}

// designFlags registers -model, -platform and -nodes on fs, plus those of
// "mapping", "hw" and "tables" that the subcommand takes.
func designFlags(fs *flag.FlagSet, optional ...string) *design {
	d := &design{}
	fs.StringVar(&d.model, "model", "", "application model file")
	fs.StringVar(&d.platform, "platform", "CSPI", "target platform from the registry")
	fs.IntVar(&d.nodes, "nodes", 8, "processor count")
	for _, name := range optional {
		switch name {
		case "mapping":
			d.takesMapping = true
			fs.StringVar(&d.mapping, "mapping", "", "mapping file (run and twin default to the spread mapping)")
		case "hw":
			fs.StringVar(&d.hw, "hw", "", "custom hardware design file (overrides -platform and -nodes)")
		case "tables":
			fs.StringVar(&d.tables, "tables", "", "pre-generated runtime table source (skips the model and generation)")
		}
	}
	return d
}

// loaded is a design read from disk: a model with its mapping on a target
// machine, or -tables' verified tables on the platform they name.
type loaded struct {
	app     *model.App
	mapping *model.Mapping // nil when the subcommand takes no -mapping
	pl      machine.Platform
	nodes   int
	tables  *gluegen.Tables // set by -tables only
}

// load reads the design. The hardware is the -hw design file or the
// -platform registry entry at -nodes; the mapping, where the subcommand
// takes one, is the -mapping file (which must be for the model) or else
// the spread mapping.
func (d *design) load() (*loaded, error) {
	l := &loaded{nodes: d.nodes}
	var err error
	if d.hw != "" {
		f, err := os.Open(d.hw)
		if err != nil {
			return nil, err
		}
		sys, err := model.ReadHWText(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		l.pl, l.nodes = sys.Platform(), sys.NumNodes()
	} else if l.pl, err = platforms.ByName(d.platform); err != nil {
		return nil, err
	}
	if d.tables != "" {
		src, err := os.ReadFile(d.tables)
		if err != nil {
			return nil, err
		}
		if l.tables, err = gluegen.ParseTableSource(string(src)); err != nil {
			return nil, err
		}
		if err := l.tables.Verify(); err != nil {
			return nil, err
		}
		if l.tables.Platform != l.pl.Name {
			// Pre-generated tables carry their target; honor it.
			if l.pl, err = platforms.ByName(l.tables.Platform); err != nil {
				return nil, fmt.Errorf("tables target platform %q: %w", l.tables.Platform, err)
			}
		}
		return l, nil
	}
	if d.model == "" {
		return nil, usagef("-model is required")
	}
	f, err := os.Open(d.model)
	if err != nil {
		return nil, err
	}
	l.app, err = model.ReadText(f)
	f.Close()
	if err != nil || !d.takesMapping {
		return l, err
	}
	if d.mapping == "" {
		l.mapping, err = model.SpreadParallel(l.app, l.nodes)
		return l, err
	}
	if f, err = os.Open(d.mapping); err != nil {
		return nil, err
	}
	var appName string
	l.mapping, appName, err = model.ReadMappingText(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	if appName != l.app.Name {
		return nil, fmt.Errorf("mapping is for app %q, model is %q", appName, l.app.Name)
	}
	return l, nil
}

// generate returns the runtime tables: -tables' own, or the standard
// generator's output for the model and mapping.
func (l *loaded) generate() (*gluegen.Tables, error) {
	if l.tables != nil {
		return l.tables, nil
	}
	out, err := gluegen.Generate(l.input())
	if err != nil {
		return nil, err
	}
	return out.Tables, nil
}

func (l *loaded) input() gluegen.Input {
	return gluegen.Input{App: l.app, Mapping: l.mapping, Platform: l.pl, NumNodes: l.nodes}
}

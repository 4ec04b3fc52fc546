// Package codegen closes the generation loop the paper only sketches: it
// turns gluegen's verified runtime tables into an actually compilable,
// runnable Go program. Plan copies the shared execution plan (internal/plan)
// into an rtl.Program — one goroutine per SAGE thread, one buffered-channel
// lane per striped transfer, funclib kinds on real []complex128 data — so the
// real execution and the simulation are two backends of one plan. EmitSource
// renders the program as a standalone gofmt'd main package
// (byte-deterministic: golden-testable), and BuildAndRun compiles and
// executes it with the host toolchain, the end-to-end proof that generated
// glue code is correct outside the simulator.
package codegen

import (
	"fmt"
	"maps"

	"repro/internal/codegen/rtl"
	"repro/internal/gluegen"
	"repro/internal/plan"
)

// Plan lowers verified tables into an executable rtl.Program running the
// given number of iterations: plan thread i becomes Threads[i], plan edge i
// becomes lane Conns[i]. The Program is the emitter's self-contained serial
// form — emitted binaries link rtl, never gluegen — so the plan is copied
// into it field for field, not referenced: its storage decisions too
// (plan.Thread.InPlace and Transposes, plan.Layout), which rtl only allocates.
func Plan(tables *gluegen.Tables, iterations int) (*rtl.Program, error) {
	xp, err := plan.Build(tables)
	if err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	if iterations < 1 {
		iterations = 1
	}
	p := &rtl.Program{
		App: tables.AppName, Platform: tables.Platform, Iterations: iterations,
		Slots:   rtl.DefaultSlots,
		Threads: make([]rtl.Thread, len(xp.Threads)),
		Conns:   make([]rtl.Conn, len(xp.Edges)),
	}
	for i := range xp.Edges {
		e := &xp.Edges[i]
		p.Conns[i] = rtl.Conn{
			Buf: int(e.Buf), SrcFn: xp.Threads[e.Src].Fn.Name, SrcThread: e.X.SrcThread,
			DstFn: xp.Threads[e.Dst].Fn.Name, DstThread: e.X.DstThread,
		}
	}
	layouts := xp.Layouts()
	for i := range xp.Threads {
		tp, l := &xp.Threads[i], &layouts[i]
		fe := tp.Fn
		t := rtl.Thread{
			Fn: fe.Name, Kind: fe.Kind, Node: tp.Node,
			Thread: tp.Index, Threads: fe.Threads, Params: copyParams(fe.Params),
			Ins: copyPorts(xp, tp.Ins, l.Ins), Outs: copyPorts(xp, tp.Outs, l.Outs),
			InPlace: tp.InPlace, Transposes: tp.Transposes,
		}
		if l.Result >= 0 {
			t.Result = xp.Sinks[l.Result].Fn.Name
		}
		p.Threads[i] = t
	}
	for si := range xp.Sinks {
		s := &xp.Sinks[si]
		for i := range s.Fn.Threads {
			t := &p.Threads[xp.First[s.Fn.ID]+i]
			t.SinkRows, t.SinkCols = s.Rows, s.Cols
		}
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("codegen: planned an invalid program: %w", err)
	}
	return p, nil
}

func copyPorts(xp *plan.Plan, ports []plan.Port, storages []*plan.Storage) []rtl.Port {
	var out []rtl.Port
	for pi := range ports {
		port := rtl.Port{Name: ports[pi].Entry.Name, Region: ports[pi].Region}
		for _, ei := range ports[pi].Edges {
			port.Xfers = append(port.Xfers, rtl.Xfer{Conn: int(ei), Region: xp.Edges[ei].X.Region})
		}
		if s := storages[pi]; s != nil {
			port.Storage = &rtl.Storage{Readers: make([]int, len(s.Readers)), Clear: s.Clear}
			for i, r := range s.Readers {
				port.Storage.Readers[i] = int(r)
			}
		}
		out = append(out, port)
	}
	return out
}

// copyParams clones a parameter map so the program never aliases the tables.
func copyParams(in map[string]any) map[string]any {
	if len(in) == 0 {
		return nil
	}
	return maps.Clone(in)
}

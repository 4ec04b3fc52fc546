package trace

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// summaryTopWaits bounds the contention table per run.
const summaryTopWaits = 8

// WriteSummary renders a per-run text summary of the merged trace: node
// counters (messages, bytes, busy split, utilisation), per-link traffic,
// collective counts and the most-contended wait objects. This is the quick
// textual companion to the Chrome export.
func (t *Trace) WriteSummary(w io.Writer) error {
	runs := t.Runs()
	if len(runs) == 0 {
		_, err := fmt.Fprintln(w, "trace: no runs recorded")
		return err
	}
	for i, c := range runs {
		label := c.Label
		if label == "" {
			label = fmt.Sprintf("run %d", i)
		}
		fmt.Fprintf(w, "== %s ==\n", label)
		fmt.Fprintf(w, "elapsed %v virtual, %d kernel events, %d spans\n",
			c.elapsed, c.dispatched, c.spans.len())
		if len(c.nodes) > 0 {
			fmt.Fprintf(w, "%5s %8s %12s  %-14s %-14s %-14s %-14s %6s\n",
				"node", "msgs", "bytes", "compute", "copy", "comm", "idle", "util")
			for _, nt := range c.nodes {
				idle := sim.Duration(c.elapsed) - nt.ComputeBusy - nt.CopyBusy
				if idle < 0 {
					idle = 0
				}
				util := 0.0
				if c.elapsed > 0 {
					util = 100 * float64(nt.ComputeBusy+nt.CopyBusy) / float64(c.elapsed)
				}
				fmt.Fprintf(w, "%5d %8d %12d  %-14v %-14v %-14v %-14v %5.1f%%\n",
					nt.Node, nt.MsgsSent, nt.BytesSent, nt.ComputeBusy, nt.CopyBusy,
					nt.CommBusy, idle, util)
			}
		}
		if links := c.Links(); len(links) > 0 {
			fmt.Fprintf(w, "links:")
			for _, l := range links {
				fmt.Fprintf(w, " %d->%d %dB/%d", l.Src, l.Dst, l.Bytes, l.Msgs)
			}
			fmt.Fprintln(w)
		}
		if colls := c.Collectives(); len(colls) > 0 {
			fmt.Fprintf(w, "collectives:")
			for _, cl := range colls {
				fmt.Fprintf(w, " %s x%d", cl.Name, cl.Count)
			}
			fmt.Fprintln(w)
		}
		if faults := c.Faults(); len(faults) > 0 {
			fmt.Fprintf(w, "faults:")
			for _, fk := range faults {
				fmt.Fprintf(w, " %s x%d", fk.Kind, fk.Count)
			}
			fmt.Fprintln(w)
		}
		if streams := c.Streams(); len(streams) > 0 {
			fmt.Fprintf(w, "stream:")
			for _, sk := range streams {
				fmt.Fprintf(w, " %s x%d", sk.Kind, sk.Count)
			}
			fmt.Fprintln(w)
		}
		if waits := c.Waits(); len(waits) > 0 {
			fmt.Fprintf(w, "top waits:\n")
			for j, wt := range waits {
				if j == summaryTopWaits {
					fmt.Fprintf(w, "  ... and %d more\n", len(waits)-summaryTopWaits)
					break
				}
				fmt.Fprintf(w, "  %-50s %12v over %d waits\n", wt.Key, wt.Total, wt.Count)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

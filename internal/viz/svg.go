package viz

import (
	"fmt"
	"io"
)

// WriteSVG renders the execution timeline as a standalone SVG document: one
// lane per (function, thread), phase-coloured bars on a virtual-time axis.
// This is the graphical counterpart of Gantt for the paper's "variety of
// graphical displays".
func (t *Trace) WriteSVG(w io.Writer, width int) error {
	if width < 200 {
		width = 200
	}
	const (
		laneH   = 22
		laneGap = 4
		labelW  = 180
		topH    = 30
	)
	phaseFill := map[string]string{
		"recv":    "#8ecae6",
		"compute": "#219ebc",
		"send":    "#ffb703",
	}

	rows := t.rows()
	lo, hi := t.Span()
	span := float64(hi - lo)
	if span <= 0 {
		span = 1
	}
	plotW := float64(width - labelW - 10)
	x := func(ts float64) float64 { return float64(labelW) + (ts-float64(lo))/span*plotW }

	height := topH + len(rows)*(laneH+laneGap) + 10
	if _, err := fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`+"\n", width, height); err != nil {
		return err
	}
	fmt.Fprintf(w, `<rect width="%d" height="%d" fill="#ffffff"/>`+"\n", width, height)
	fmt.Fprintf(w, `<text x="4" y="16">SAGE execution timeline: %s .. %s</text>`+"\n", lo, hi)
	// Legend.
	lx := labelW
	for _, ph := range []string{"recv", "compute", "send"} {
		fmt.Fprintf(w, `<rect x="%d" y="6" width="10" height="10" fill="%s"/><text x="%d" y="15">%s</text>`+"\n",
			lx, phaseFill[ph], lx+13, ph)
		lx += 80
	}
	for i, r := range rows {
		y := topH + i*(laneH+laneGap)
		fmt.Fprintf(w, `<text x="4" y="%d">%s[%d]</text>`+"\n", y+laneH-7, xmlEscape(r[0].FnName), r[0].Thread)
		fmt.Fprintf(w, `<rect x="%d" y="%d" width="%.1f" height="%d" fill="#f1f3f5"/>`+"\n",
			labelW, y, plotW, laneH)
		for _, e := range r {
			x0 := x(float64(e.Start))
			x1 := x(float64(e.End))
			if x1-x0 < 0.5 {
				x1 = x0 + 0.5
			}
			fill, ok := phaseFill[e.Phase]
			if !ok {
				fill = "#adb5bd"
			}
			fmt.Fprintf(w, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s"><title>%s[%d] iter %d %s: %s .. %s</title></rect>`+"\n",
				x0, y+2, x1-x0, laneH-4, fill, xmlEscape(e.FnName), e.Thread, e.Iter, e.Phase, e.Start, e.End)
		}
	}
	_, err := fmt.Fprintln(w, `</svg>`)
	return err
}

func xmlEscape(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<':
			out = append(out, "&lt;"...)
		case '>':
			out = append(out, "&gt;"...)
		case '&':
			out = append(out, "&amp;"...)
		case '"':
			out = append(out, "&quot;"...)
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}

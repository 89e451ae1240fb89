// Package visual renders networks, Hamilton topologies, and campaign
// progress as ASCII art for terminal inspection, the example programs,
// and the telemetry dashboard.
package visual

import (
	"fmt"
	"strings"

	"wsncover/internal/grid"
	"wsncover/internal/hamilton"
	"wsncover/internal/network"
)

// Network renders the grid occupancy: each cell shows its enabled node
// count, with '.' for a vacant cell (hole). Row 0 is drawn at the bottom,
// matching the paper's coordinate convention.
func Network(w *network.Network) string {
	sys := w.System()
	var b strings.Builder
	fmt.Fprintf(&b, "%s  holes=%d spares=%d\n", sys, w.VacantCount(), w.TotalSpares())
	for y := sys.Rows() - 1; y >= 0; y-- {
		for x := 0; x < sys.Cols(); x++ {
			c := grid.C(x, y)
			if w.IsVacant(c) {
				b.WriteString(" .")
				continue
			}
			n := w.SpareCount(c) + 1
			if n > 9 {
				b.WriteString(" +")
			} else {
				fmt.Fprintf(&b, " %d", n)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// HeatRow is one labeled completion fraction for Heatmap: a campaign
// group (curve) with its completed and total trial counts.
type HeatRow struct {
	Label string
	Done  int
	Total int
}

// heatShades are the partial-cell fill levels of a heatmap bar, lightest
// to darkest. A cell's shade is its own completion fraction, so the bar
// reads as a smooth gradient instead of snapping whole cells.
var heatShades = []rune{' ', '░', '▒', '▓', '█'}

// Heatmap renders per-group completion as an aligned strip chart, one
// row per group in the given order:
//
//	SR 12x12 churn(2@5x3)  [███████▓░       ]  14/ 32  44%
//	AR 12x12 churn(2@5x3)  [████████████████]  32/ 32 100%
//
// width is the bar's cell count (<= 0 means 24). Rows with a zero total
// render a dashed bar instead of dividing by zero, so the chart is safe
// on groups whose totals are not known yet.
func Heatmap(rows []HeatRow, width int) string {
	if width <= 0 {
		width = 24
	}
	labelW := 0
	for _, r := range rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s  [", labelW, r.Label)
		if r.Total <= 0 {
			b.WriteString(strings.Repeat("-", width))
			fmt.Fprintf(&b, "]  %3d/%3d   –\n", r.Done, r.Total)
			continue
		}
		frac := float64(r.Done) / float64(r.Total)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		filled := frac * float64(width)
		for i := 0; i < width; i++ {
			cell := filled - float64(i)
			if cell < 0 {
				cell = 0
			}
			if cell > 1 {
				cell = 1
			}
			b.WriteRune(heatShades[int(cell*float64(len(heatShades)-1)+0.5)])
		}
		fmt.Fprintf(&b, "]  %3d/%3d %3.0f%%\n", r.Done, r.Total, 100*frac)
	}
	return b.String()
}

// arrowFor maps a step direction to an arrow rune.
func arrowFor(from, to grid.Coord) byte {
	d, ok := from.DirTo(to)
	if !ok {
		return '?'
	}
	switch d {
	case grid.North:
		return '^'
	case grid.South:
		return 'v'
	case grid.East:
		return '>'
	case grid.West:
		return '<'
	}
	return '?'
}

// Cycle renders a single Hamilton cycle as a field of direction arrows:
// each cell shows the direction of its successor. Dual-path topologies are
// rendered via the shared segment with A and B marked.
func Cycle(t *hamilton.Topology) string {
	sys := t.System()
	var b strings.Builder
	fmt.Fprintf(&b, "%v Hamilton structure on %s\n", t.Kind(), sys)
	switch t.Kind() {
	case hamilton.KindCycle:
		for y := sys.Rows() - 1; y >= 0; y-- {
			for x := 0; x < sys.Cols(); x++ {
				c := grid.C(x, y)
				b.WriteByte(' ')
				b.WriteByte(arrowFor(c, t.Succ(c)))
			}
			b.WriteString("\n")
		}
	case hamilton.KindDualPath:
		a, bb, cc, d, _ := t.ABCD()
		shared := t.SharedOrder()
		next := make(map[grid.Coord]grid.Coord, len(shared))
		for i := 0; i+1 < len(shared); i++ {
			next[shared[i]] = shared[i+1]
		}
		for y := sys.Rows() - 1; y >= 0; y-- {
			for x := 0; x < sys.Cols(); x++ {
				c := grid.C(x, y)
				b.WriteByte(' ')
				switch c {
				case a:
					b.WriteByte('A')
				case bb:
					b.WriteByte('B')
				case cc:
					b.WriteByte('C')
				case d:
					b.WriteByte('D')
				default:
					if nx, ok := next[c]; ok {
						b.WriteByte(arrowFor(c, nx))
					} else {
						b.WriteByte('?')
					}
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

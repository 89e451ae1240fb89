package visual

import (
	"strings"
	"testing"

	"wsncover/internal/geom"
	"wsncover/internal/grid"
	"wsncover/internal/hamilton"
	"wsncover/internal/network"
	"wsncover/internal/node"
)

func netWith(t *testing.T, cols, rows int, fill map[grid.Coord]int) *network.Network {
	t.Helper()
	sys, err := grid.New(cols, rows, 1, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	w := network.New(sys, node.EnergyModel{})
	for c, n := range fill {
		for i := 0; i < n; i++ {
			if _, err := w.AddNodeAt(sys.Center(c)); err != nil {
				t.Fatal(err)
			}
		}
	}
	w.ElectHeads()
	return w
}

func TestNetworkRender(t *testing.T) {
	w := netWith(t, 3, 2, map[grid.Coord]int{
		grid.C(0, 0): 1,
		grid.C(1, 0): 3,
		grid.C(2, 1): 12,
	})
	out := Network(w)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Top row (y=1): two holes then 12 nodes rendered as '+'.
	if lines[1] != " . . +" {
		t.Errorf("row y=1 = %q", lines[1])
	}
	// Bottom row (y=0): 1, 3, hole.
	if lines[2] != " 1 3 ." {
		t.Errorf("row y=0 = %q", lines[2])
	}
}

func TestCycleRenderSingle(t *testing.T) {
	sys, err := grid.New(4, 4, 1, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := hamilton.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	out := Cycle(topo)
	if !strings.Contains(out, "cycle") {
		t.Error("missing kind")
	}
	// Every cell renders as one of the four arrows (none unknown).
	if strings.Contains(out, "?") {
		t.Errorf("unknown direction in render:\n%s", out)
	}
	arrows := strings.Count(out, "^") + strings.Count(out, "v") +
		strings.Count(out, "<") + strings.Count(out, ">")
	if arrows != 16 {
		t.Errorf("arrow count = %d, want 16", arrows)
	}
}

func TestCycleRenderDualPath(t *testing.T) {
	sys, err := grid.New(5, 5, 1, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := hamilton.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	out := Cycle(topo)
	for _, mark := range []string{"A", "B", "C", "D"} {
		if strings.Count(out, mark) < 1 {
			t.Errorf("missing %s marker:\n%s", mark, out)
		}
	}
	if !strings.Contains(out, "dual-path") {
		t.Error("missing kind")
	}
}

func TestHeatmapRendering(t *testing.T) {
	rows := []HeatRow{
		{Label: "SR 16x16", Done: 16, Total: 32},
		{Label: "AR", Done: 32, Total: 32},
		{Label: "pending", Done: 0, Total: 0},
	}
	out := Heatmap(rows, 16)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Labels pad to the widest, so the bars align.
	for _, l := range lines {
		if !strings.Contains(l, "[") || len(l) < len("SR 16x16  [") {
			t.Errorf("misaligned row %q", l)
		}
	}
	if !strings.Contains(lines[0], "50%") || strings.Count(lines[0], "█") != 8 {
		t.Errorf("half-done row %q, want 8 full cells of 16 and 50%%", lines[0])
	}
	if !strings.Contains(lines[1], "100%") || strings.Count(lines[1], "█") != 16 {
		t.Errorf("full row %q, want a solid 16-cell bar", lines[1])
	}
	// A zero total renders a dashed bar, never a division by zero.
	if !strings.Contains(lines[2], strings.Repeat("-", 16)) {
		t.Errorf("zero-total row %q, want a dashed bar", lines[2])
	}
}

func TestHeatmapPartialCellAndDefaults(t *testing.T) {
	// 3/8 of a 4-cell bar = 1.5 cells: one full cell, one half shade.
	out := Heatmap([]HeatRow{{Label: "g", Done: 3, Total: 8}}, 4)
	if !strings.Contains(out, "█▒") {
		t.Errorf("partial fill %q, want a graded edge (█ then ▒)", out)
	}
	if !strings.Contains(out, "38%") { // 37.5 rounds up
		t.Errorf("row %q lacks the rounded percentage", out)
	}
	// width <= 0 falls back to 24 cells.
	def := Heatmap([]HeatRow{{Label: "g", Done: 0, Total: 1}}, 0)
	if got := strings.Count(def, " "); !strings.Contains(def, "["+strings.Repeat(" ", 24)+"]") {
		t.Errorf("default width row %q (spaces %d), want a 24-cell empty bar", def, got)
	}
	if Heatmap(nil, 10) != "" {
		t.Error("no rows renders nothing")
	}
}

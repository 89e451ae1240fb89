package coverage

import (
	"testing"

	"wsncover/internal/deploy"
	"wsncover/internal/geom"
	"wsncover/internal/grid"
	"wsncover/internal/network"
	"wsncover/internal/node"
	"wsncover/internal/randx"
)

func newNet(t *testing.T, cols, rows int, cell float64) *network.Network {
	t.Helper()
	sys, err := grid.New(cols, rows, cell, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	return network.New(sys, node.EnergyModel{})
}

func TestHolesAndComplete(t *testing.T) {
	w := newNet(t, 2, 2, 1)
	if _, err := w.AddNodeAt(geom.Pt(0.5, 0.5)); err != nil {
		t.Fatal(err)
	}
	w.ElectHeads()
	if got := HoleCount(w); got != 3 {
		t.Errorf("HoleCount = %d, want 3", got)
	}
	if Complete(w) {
		t.Error("coverage should be incomplete")
	}
	holes := Holes(w)
	if len(holes) != 3 {
		t.Errorf("Holes = %v", holes)
	}
	for _, h := range holes {
		if h == grid.C(0, 0) {
			t.Error("occupied cell listed as hole")
		}
	}
}

func TestCompleteAfterFullDeploy(t *testing.T) {
	w := newNet(t, 3, 3, 1)
	if err := deploy.Controlled(w, 0, nil, randx.New(1)); err != nil {
		t.Fatal(err)
	}
	w.ElectHeads()
	if !Complete(w) {
		t.Error("per-grid deployment should be complete")
	}
}

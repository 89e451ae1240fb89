package coverage

import (
	"math"
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
	if got := GridFraction(w); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("GridFraction = %v, want 0.25", got)
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
	if GridFraction(w) != 1 {
		t.Error("GridFraction should be 1")
	}
}

func TestAreaFractionEmptyNetwork(t *testing.T) {
	w := newNet(t, 4, 4, 1)
	got, err := AreaFraction(w, Options{SensingRange: 1}, randx.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("empty network coverage = %v, want 0", got)
	}
}

func TestAreaFractionValidation(t *testing.T) {
	w := newNet(t, 2, 2, 1)
	if _, err := AreaFraction(w, Options{SensingRange: 0}, randx.New(1)); err == nil {
		t.Error("zero sensing range should fail")
	}
}

func TestAreaFractionFullWhenHeadsEverywhereWithDiagonalRange(t *testing.T) {
	// With a head in every cell and sensing range >= the cell diagonal,
	// coverage is complete no matter where heads sit in their cells.
	w := newNet(t, 5, 5, 2)
	rng := randx.New(3)
	for _, c := range w.System().AllCoords() {
		if _, err := w.AddNodeAt(rng.InRect(w.System().CellRect(c))); err != nil {
			t.Fatal(err)
		}
	}
	w.ElectHeads()
	got, err := AreaFraction(w, Options{
		SensingRange:   MinHeadSensingRange(w.System()),
		SamplesPerCell: 32,
		HeadsOnly:      true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("full-head coverage = %v, want 1", got)
	}
}

func TestAreaFractionDropsWithHole(t *testing.T) {
	w := newNet(t, 4, 4, 2)
	rng := randx.New(4)
	for _, c := range w.System().AllCoords() {
		if _, err := w.AddNodeAt(rng.InRect(w.System().CellRect(c))); err != nil {
			t.Fatal(err)
		}
	}
	w.ElectHeads()
	full, err := AreaFraction(w, Options{SensingRange: 2.2, SamplesPerCell: 64}, randx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	w.DisableAllInCell(grid.C(0, 0)) // corner hole hurts most
	holed, err := AreaFraction(w, Options{SensingRange: 2.2, SamplesPerCell: 64}, randx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if holed >= full {
		t.Errorf("coverage should drop with a hole: %v -> %v", full, holed)
	}
}

func TestHeadsOnlyOption(t *testing.T) {
	// A spare in an otherwise uncovered corner counts only when
	// HeadsOnly is false.
	w := newNet(t, 4, 1, 10)
	if _, err := w.AddNodeAt(geom.Pt(5, 5)); err != nil { // head cell 0
		t.Fatal(err)
	}
	if _, err := w.AddNodeAt(geom.Pt(6, 5)); err != nil { // spare cell 0
		t.Fatal(err)
	}
	w.ElectHeads()
	all, err := AreaFraction(w, Options{SensingRange: 4, SamplesPerCell: 64}, randx.New(6))
	if err != nil {
		t.Fatal(err)
	}
	headsOnly, err := AreaFraction(w, Options{SensingRange: 4, SamplesPerCell: 64, HeadsOnly: true}, randx.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if all < headsOnly {
		t.Errorf("all-node coverage %v should be >= heads-only %v", all, headsOnly)
	}
}

func TestMinHeadSensingRange(t *testing.T) {
	sys, err := grid.New(2, 2, 3, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * math.Sqrt2
	if got := MinHeadSensingRange(sys); math.Abs(got-want) > 1e-9 {
		t.Errorf("MinHeadSensingRange = %v, want %v", got, want)
	}
}

func TestSnapshot(t *testing.T) {
	w := newNet(t, 2, 1, 1)
	if _, err := w.AddNodeAt(geom.Pt(0.5, 0.5)); err != nil {
		t.Fatal(err)
	}
	w.ElectHeads()
	rep := Snapshot(w)
	if rep.Holes != 1 || rep.Complete || rep.GridFraction != 0.5 {
		t.Errorf("Snapshot = %+v", rep)
	}
	if !rep.HeadConnected {
		t.Error("single head should count as connected")
	}
}

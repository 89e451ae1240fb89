package deploy

import (
	"testing"

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

func TestControlled(t *testing.T) {
	w := newNet(t, 16, 16, 4.4721)
	holes := []grid.Coord{grid.C(3, 3), grid.C(10, 12)}
	if err := Controlled(w, 55, holes, randx.New(4)); err != nil {
		t.Fatal(err)
	}
	// Exactly N spares, exactly the requested holes.
	if got := w.TotalSpares(); got != 55 {
		t.Errorf("TotalSpares = %d, want 55", got)
	}
	vac := w.VacantCells(nil)
	if len(vac) != 2 {
		t.Fatalf("VacantCells = %v", vac)
	}
	for _, h := range holes {
		if !w.IsVacant(h) {
			t.Errorf("hole %v not vacant", h)
		}
	}
	// 254 occupied cells each have a head.
	heads := 0
	for _, c := range w.System().AllCoords() {
		if w.HeadOf(c) != node.Invalid {
			heads++
		}
	}
	if heads != 254 {
		t.Errorf("heads = %d, want 254", heads)
	}
	if w.EnabledCount() != 254+55 {
		t.Errorf("enabled = %d, want %d", w.EnabledCount(), 254+55)
	}
}

func TestControlledValidation(t *testing.T) {
	w := newNet(t, 4, 4, 1)
	if err := Controlled(w, 1, []grid.Coord{grid.C(9, 9)}, randx.New(1)); err == nil {
		t.Error("off-grid hole should fail")
	}
	w2 := newNet(t, 2, 1, 1)
	allHoles := []grid.Coord{grid.C(0, 0), grid.C(1, 0)}
	if err := Controlled(w2, 1, allHoles, randx.New(1)); err == nil {
		t.Error("no non-hole cells with spares should fail")
	}
	// Zero spares with all holes is acceptable (degenerate but valid).
	w3 := newNet(t, 2, 1, 1)
	if err := Controlled(w3, 0, allHoles, randx.New(1)); err != nil {
		t.Errorf("zero-spare all-hole deploy: %v", err)
	}
	// Cells elect as their nodes land, which equals the election only
	// on a network without nodes.
	w4 := newNet(t, 4, 4, 1)
	if err := Controlled(w4, 3, nil, randx.New(1)); err != nil {
		t.Fatal(err)
	}
	if err := Controlled(w4, 3, nil, randx.New(2)); err == nil {
		t.Error("deploying into a populated network should fail")
	}
}

// addUniform adds count nodes at uniform points of the field.
func addUniform(t *testing.T, w *network.Network, count int, rng *randx.Rand) {
	t.Helper()
	for i := 0; i < count; i++ {
		if _, err := w.AddNodeAt(rng.InRect(w.System().Bounds())); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFailRandom(t *testing.T) {
	w := newNet(t, 4, 4, 1)
	addUniform(t, w, 100, randx.New(5))
	got := FailRandom(w, 30, randx.New(6))
	if got != 30 {
		t.Errorf("disabled %d, want 30", got)
	}
	if w.EnabledCount() != 70 {
		t.Errorf("enabled = %d, want 70", w.EnabledCount())
	}
	// Requesting more than available disables everything.
	got = FailRandom(w, 1000, randx.New(7))
	if got != 70 || w.EnabledCount() != 0 {
		t.Errorf("disabled %d, enabled %d", got, w.EnabledCount())
	}
}

func TestFailRegion(t *testing.T) {
	w := newNet(t, 4, 4, 1)
	a, err := w.AddNodeAt(geom.Pt(0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.AddNodeAt(geom.Pt(3.5, 3.5))
	if err != nil {
		t.Fatal(err)
	}
	got := FailRegion(w, geom.Pt(0.5, 0.5), 1.0)
	if got != 1 {
		t.Errorf("jammed %d, want 1", got)
	}
	if w.Node(a).Enabled() {
		t.Error("node in jam radius should be disabled")
	}
	if !w.Node(b).Enabled() {
		t.Error("node outside jam radius should survive")
	}
}

func TestFailCells(t *testing.T) {
	w := newNet(t, 3, 1, 1)
	rng := randx.New(8)
	for _, c := range w.System().AllCoords() {
		for i := 0; i < 2; i++ {
			if _, err := w.AddNodeAt(rng.InRect(w.System().CellRect(c))); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := FailCells(w, []grid.Coord{grid.C(0, 0), grid.C(2, 0)})
	if got != 4 {
		t.Errorf("disabled %d, want 4", got)
	}
	if !w.IsVacant(grid.C(0, 0)) || !w.IsVacant(grid.C(2, 0)) || w.IsVacant(grid.C(1, 0)) {
		t.Error("wrong cells vacated")
	}
}

func TestFailDepleted(t *testing.T) {
	sys, err := grid.New(2, 1, 10, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	w := network.New(sys, node.EnergyModel{PerMeter: 1})
	mover, err := w.AddNodeAt(geom.Pt(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	idle, err := w.AddNodeAt(geom.Pt(15, 5))
	if err != nil {
		t.Fatal(err)
	}
	w.ElectHeads()
	if _, err := w.MoveNodeDist(mover, geom.Pt(14, 5)); err != nil {
		t.Fatal(err)
	}
	got := FailDepleted(w, 5)
	if got != 1 {
		t.Errorf("depleted %d, want 1", got)
	}
	if w.Node(mover).Enabled() {
		t.Error("heavy mover should be depleted")
	}
	if !w.Node(idle).Enabled() {
		t.Error("idle node should survive")
	}
}

func TestPickHoleCells(t *testing.T) {
	sys, err := grid.New(6, 6, 1, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	holes, err := PickHoleCells(sys, 5, false, randx.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(holes) != 5 {
		t.Fatalf("picked %d", len(holes))
	}
	seen := map[grid.Coord]bool{}
	for _, h := range holes {
		if seen[h] {
			t.Error("duplicate hole")
		}
		seen[h] = true
		if !sys.Contains(h) {
			t.Error("hole off grid")
		}
	}
}

func TestPickHoleCellsAvoidAdjacent(t *testing.T) {
	sys, err := grid.New(8, 8, 1, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 20; seed++ {
		holes, err := PickHoleCells(sys, 6, true, randx.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for i := range holes {
			for j := i + 1; j < len(holes); j++ {
				if holes[i].IsNeighbor(holes[j]) {
					t.Fatalf("seed %d: adjacent holes %v, %v", seed, holes[i], holes[j])
				}
			}
		}
	}
}

func TestPickHoleCellsErrors(t *testing.T) {
	sys, err := grid.New(2, 2, 1, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PickHoleCells(sys, 5, false, randx.New(1)); err == nil {
		t.Error("too many holes should fail")
	}
	// 2x2 grid admits at most 2 mutually non-adjacent cells.
	if _, err := PickHoleCells(sys, 3, true, randx.New(1)); err == nil {
		t.Error("infeasible non-adjacent request should fail")
	}
	if got, err := PickHoleCells(sys, 0, false, randx.New(1)); err != nil || len(got) != 0 {
		t.Errorf("zero holes: %v, %v", got, err)
	}
}

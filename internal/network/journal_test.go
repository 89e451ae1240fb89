package network

import (
	"reflect"
	"testing"

	"wsncover/internal/geom"
	"wsncover/internal/grid"
	"wsncover/internal/node"
)

func drain(w *Network) []grid.Coord { return w.DrainVacancyEvents(nil) }

// TestVacancyJournalTransitions covers every mutation that can flip a
// cell's emptiness: first node added, last node removed, node moved in and
// out, and verifies the drain is index-sorted, deduplicated, and reset.
func TestVacancyJournalTransitions(t *testing.T) {
	w := newNet(t, 4, 4, 1)
	if got := drain(w); got != nil {
		t.Fatalf("fresh network has events %v", got)
	}
	if w.VacantCount() != 16 {
		t.Fatalf("VacantCount = %d, want 16", w.VacantCount())
	}

	// Populate two cells out of order: events come back index-sorted.
	b := addAt(t, w, geom.Pt(2.5, 2.5)) // cell (2,2), index 10
	addAt(t, w, geom.Pt(0.5, 0.5))      // cell (0,0), index 0
	if got, want := drain(w), []grid.Coord{grid.C(0, 0), grid.C(2, 2)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	if got := drain(w); got != nil {
		t.Fatalf("journal not reset: %v", got)
	}
	if w.VacantCount() != 14 {
		t.Fatalf("VacantCount = %d, want 14", w.VacantCount())
	}

	// A second node in an occupied cell is not a transition.
	addAt(t, w, geom.Pt(2.4, 2.4))
	if got := drain(w); got != nil {
		t.Fatalf("non-transition recorded: %v", got)
	}

	// Moving the head out of (2,2) leaves the spare behind (no
	// transition); the destination (3,3) flips to occupied.
	w.ElectHeads()
	drain(w) // elections do not touch emptiness, but clear defensively
	if _, err := w.MoveNodeDist(b, geom.Pt(3.5, 3.5)); err != nil {
		t.Fatal(err)
	}
	if got, want := drain(w), []grid.Coord{grid.C(3, 3)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("move events = %v, want %v", got, want)
	}

	// Disabling the last node of a cell vacates it.
	if err := w.DisableNode(b); err != nil {
		t.Fatal(err)
	}
	if got, want := drain(w), []grid.Coord{grid.C(3, 3)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("disable events = %v, want %v", got, want)
	}
	if w.VacantCount() != 14 {
		t.Fatalf("VacantCount = %d, want 14", w.VacantCount())
	}

	// A flip-and-flip-back cell is reported once; consumers resync against
	// IsVacant, which is back to vacant=false here.
	c := addAt(t, w, geom.Pt(1.5, 1.5))
	if err := w.DisableNode(c); err != nil {
		t.Fatal(err)
	}
	addAt(t, w, geom.Pt(1.5, 1.5))
	if got, want := drain(w), []grid.Coord{grid.C(1, 1)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("flip-flip-back events = %v, want %v", got, want)
	}
	if w.IsVacant(grid.C(1, 1)) {
		t.Error("cell (1,1) should be occupied after resync")
	}

	w.ElectHeads() // restore the election invariant before auditing
	if bad := w.Audit(); len(bad) > 0 {
		t.Fatalf("audit: %v", bad)
	}
}

// TestIncrementalCountersMatchRecount drives a chaotic schedule and checks
// the O(1) counters against brute-force recounts after every step.
func TestIncrementalCountersMatchRecount(t *testing.T) {
	w := newNet(t, 5, 5, 1)
	check := func(stage string) {
		t.Helper()
		enabled, vacant := 0, 0
		for idx := range w.cells {
			n := 0
			for cur := w.cells[idx].first; cur != 0; cur = w.nextInCell[cur-1] {
				n++
			}
			enabled += n
			if n == 0 {
				vacant++
			}
		}
		spares := 0
		for idx := range w.cells {
			spares += w.SpareCount(w.sys.CoordAt(idx))
		}
		if w.EnabledCount() != enabled {
			t.Errorf("%s: EnabledCount = %d, recount %d", stage, w.EnabledCount(), enabled)
		}
		if w.VacantCount() != vacant {
			t.Errorf("%s: VacantCount = %d, recount %d", stage, w.VacantCount(), vacant)
		}
		if w.TotalSpares() != spares {
			t.Errorf("%s: TotalSpares = %d, recount %d", stage, w.TotalSpares(), spares)
		}
		if bad := w.Audit(); len(bad) > 0 {
			t.Errorf("%s: audit: %v", stage, bad)
		}
	}

	var ids []int
	for i := 0; i < 40; i++ {
		x := float64(i%5) + 0.5
		y := float64((i/5)%5) + 0.3
		ids = append(ids, int(addAt(t, w, geom.Pt(x, y))))
	}
	w.ElectHeads()
	check("deployed")

	w.DisableAllInCell(grid.C(2, 2))
	check("cell jammed")

	for _, id := range ids[:10] {
		nd := w.Node(node.ID(id))
		if !nd.Valid() || !nd.Enabled() {
			continue
		}
		if _, err := w.MoveNodeDist(node.ID(id), geom.Pt(4.5, 4.5)); err != nil {
			t.Fatal(err)
		}
		check("moved")
	}
	for _, id := range ids[10:20] {
		if err := w.DisableNode(node.ID(id)); err != nil {
			t.Fatal(err)
		}
		check("disabled")
	}
}

// TestDisableAllInCellScratchReuse proves repeated bulk disables reuse the
// network-owned buffer instead of allocating per call.
func TestDisableAllInCellScratchReuse(t *testing.T) {
	w := newNet(t, 4, 4, 1)
	for i := 0; i < 8; i++ {
		addAt(t, w, geom.Pt(1.5, 1.5))
	}
	w.ElectHeads()
	w.DisableAllInCell(grid.C(1, 1)) // warm the scratch buffer
	for i := 0; i < 8; i++ {
		addAt(t, w, geom.Pt(2.5, 2.5))
	}
	allocs := testing.AllocsPerRun(1, func() {
		w.DisableAllInCell(grid.C(2, 2))
		w.DisableAllInCell(grid.C(2, 2)) // second call is a no-op scan
	})
	// The only tolerated allocations are journal growth, not the id
	// snapshot (8 ids would force a fresh slice each call otherwise).
	if allocs > 1 {
		t.Errorf("DisableAllInCell allocates %.0f times per run", allocs)
	}
}

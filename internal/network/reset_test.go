package network

import (
	"fmt"
	"testing"

	"wsncover/internal/geom"
	"wsncover/internal/grid"
	"wsncover/internal/node"
	"wsncover/internal/randx"
)

// exercise drives a network through a representative slice of its API —
// deployment, elections, messaging, rounds, moves, failures — so a Reset
// afterwards has every piece of state to restore.
func exercise(t *testing.T, w *Network, seed int64) {
	t.Helper()
	rng := randx.New(seed)
	sys := w.System()
	bounds := sys.Bounds()
	for i := 0; i < 40; i++ {
		if _, err := w.AddNodeAt(rng.InRect(bounds)); err != nil {
			t.Fatal(err)
		}
	}
	w.ElectHeads()
	if err := w.SetMessageLoss(0.2, randx.New(seed+1)); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 6; r++ {
		from := sys.CoordAt(rng.Intn(sys.NumCells()))
		var to grid.Coord
		nbrs := sys.Neighbors(nil, from)
		to = nbrs[rng.Intn(len(nbrs))]
		_ = w.Send(Message{From: from, To: to, Kind: 1})
		w.StepRound()
		id := node.ID(rng.Intn(w.NumNodes()))
		if w.Node(id).Enabled() {
			if _, err := w.MoveNodeDist(id, rng.InRect(bounds)); err != nil {
				t.Fatal(err)
			}
		}
	}
	w.DisableAllInCell(sys.CoordAt(rng.Intn(sys.NumCells())))
}

// stateFingerprint captures the externally observable network state.
func stateFingerprint(w *Network) string {
	s := fmt.Sprintf("nodes=%d enabled=%d spares=%d vacant=%d round=%d moves=%d dist=%.12g lost=%d\n",
		w.NumNodes(), w.EnabledCount(), w.TotalSpares(), w.VacantCount(),
		w.Round(), w.TotalMoves(), w.TotalDistance(), w.MessagesLost())
	for id := 0; id < w.NumNodes(); id++ {
		nd := w.Node(node.ID(id))
		s += fmt.Sprintf("n%d %v %v %v %.12g\n",
			id, nd.Location(), nd.Status(), nd.Role(), nd.EnergySpent())
	}
	sys := w.System()
	for idx := 0; idx < sys.NumCells(); idx++ {
		c := sys.CoordAt(idx)
		s += fmt.Sprintf("c%d head=%d vac=%v spares=%d\n", idx, w.HeadOf(c), w.IsVacant(c), w.SpareCount(c))
	}
	s += fmt.Sprintf("journal=%v inbox=%d\n", w.DrainVacancyEvents(nil), len(w.Inbox()))
	return s
}

// TestResetEquivalentToFresh is the Reset contract: after any usage
// history, Reset followed by a deterministic redeploy must be observably
// identical to the same deploy on a freshly constructed network.
func TestResetEquivalentToFresh(t *testing.T) {
	sys, err := grid.New(6, 7, 10, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	em := node.EnergyModel{PerMeter: 1}
	for seed := int64(1); seed <= 4; seed++ {
		pooled := New(sys, em)
		exercise(t, pooled, seed)
		pooled.Reset()

		fresh := New(sys, em)
		if a, b := stateFingerprint(pooled), stateFingerprint(fresh); a != b {
			t.Fatalf("seed %d: reset state differs from pristine:\n%s\nvs\n%s", seed, a, b)
		}

		// Redeploy both from the same stream: every observable must agree,
		// including journal contents and election results.
		exercise(t, pooled, seed+100)
		exercise(t, fresh, seed+100)
		if a, b := stateFingerprint(pooled), stateFingerprint(fresh); a != b {
			t.Fatalf("seed %d: redeploy after reset diverged:\n%s\nvs\n%s", seed, a, b)
		}
	}
}

// TestResetDoesNotAllocate pins the tentpole claim: restoring a used
// network costs zero allocations, and redeploying the same population
// into it allocates nothing once the pool is warm.
func TestResetDoesNotAllocate(t *testing.T) {
	sys, err := grid.New(8, 8, 10, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	w := New(sys, node.EnergyModel{})
	exercise(t, w, 9)
	if allocs := testing.AllocsPerRun(20, w.Reset); allocs > 0 {
		t.Errorf("Reset allocates %.1f times", allocs)
	}

	// Warm the node pool and cell lists, then check a reset+redeploy
	// cycle of a fixed population stays allocation-free. The points are
	// pre-drawn so the measurement sees only network work, not the RNG.
	rng := randx.New(17)
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = rng.InRect(sys.Bounds())
	}
	deployAll := func() {
		for _, p := range pts {
			if _, err := w.AddNodeAt(p); err != nil {
				t.Fatal(err)
			}
		}
		w.ElectHeads()
	}
	w.Reset()
	deployAll()
	allocs := testing.AllocsPerRun(20, func() {
		w.Reset()
		deployAll()
	})
	if allocs > 0 {
		t.Errorf("reset+redeploy allocates %.1f times", allocs)
	}
}

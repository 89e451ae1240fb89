package network

import (
	"testing"
	"testing/quick"

	"wsncover/internal/geom"
	"wsncover/internal/grid"
	"wsncover/internal/node"
	"wsncover/internal/randx"
)

func TestAuditCleanNetwork(t *testing.T) {
	w := newNet(t, 4, 4, 1)
	rng := randx.New(1)
	for i := 0; i < 30; i++ {
		addAt(t, w, rng.InRect(w.System().Bounds()))
	}
	w.ElectHeads()
	if bad := w.Audit(); len(bad) != 0 {
		t.Errorf("clean network audit: %v", bad)
	}
}

func TestAuditSurvivesChurn(t *testing.T) {
	// Random interleavings of add / disable / move must never corrupt the
	// registries.
	f := func(seed int64, opsU uint8) bool {
		rng := randx.New(seed)
		sys, err := grid.New(5, 5, 2, geom.Pt(0, 0))
		if err != nil {
			return false
		}
		w := New(sys, node.EnergyModel{})
		ops := int(opsU)%120 + 30
		var ids []node.ID
		for i := 0; i < ops; i++ {
			switch rng.Intn(4) {
			case 0, 1: // add
				id, err := w.AddNodeAt(rng.InRect(sys.Bounds()))
				if err != nil {
					return false
				}
				ids = append(ids, id)
				w.ElectHeads()
			case 2: // disable random
				if len(ids) > 0 {
					_ = w.DisableNode(ids[rng.Intn(len(ids))])
				}
			case 3: // move random enabled node
				if len(ids) > 0 {
					id := ids[rng.Intn(len(ids))]
					if w.Node(id).Enabled() {
						if _, err := w.MoveNodeDist(id, rng.InRect(sys.Bounds())); err != nil {
							return false
						}
					}
				}
			}
		}
		return len(w.Audit()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPopcountCountsMatchBruteForce drives the same random add /
// disable / move churn as the audit test above, but after every single
// operation cross-checks the popcount-derived EnabledCount and
// VacantCount against brute-force scans of the node store and the
// grid, and checks VacantCells/IsVacant agree with both. This pins the
// bitset bookkeeping (occupancy words, enabled words, tail masks) the
// counts are derived from.
func TestPopcountCountsMatchBruteForce(t *testing.T) {
	f := func(seed int64, opsU uint8) bool {
		rng := randx.New(seed)
		sys, err := grid.New(5, 5, 2, geom.Pt(0, 0))
		if err != nil {
			return false
		}
		w := New(sys, node.EnergyModel{})
		check := func() bool {
			enabled := 0
			occupied := make(map[int]bool)
			for i := 0; i < w.NumNodes(); i++ {
				id := node.ID(i)
				if !w.Node(id).Enabled() {
					continue
				}
				enabled++
				c, ok := sys.CoordOf(w.Node(id).Location())
				if !ok {
					return false
				}
				occupied[sys.Index(c)] = true
			}
			if w.EnabledCount() != enabled {
				return false
			}
			if w.VacantCount() != sys.NumCells()-len(occupied) {
				return false
			}
			vac := w.VacantCells(nil)
			if len(vac) != w.VacantCount() {
				return false
			}
			for _, c := range vac {
				if occupied[sys.Index(c)] || !w.IsVacant(c) {
					return false
				}
			}
			return true
		}
		ops := int(opsU)%120 + 30
		var ids []node.ID
		for i := 0; i < ops; i++ {
			switch rng.Intn(4) {
			case 0, 1: // add
				id, err := w.AddNodeAt(rng.InRect(sys.Bounds()))
				if err != nil {
					return false
				}
				ids = append(ids, id)
				w.ElectHeads()
			case 2: // disable random
				if len(ids) > 0 {
					_ = w.DisableNode(ids[rng.Intn(len(ids))])
				}
			case 3: // move random enabled node
				if len(ids) > 0 {
					id := ids[rng.Intn(len(ids))]
					if w.Node(id).Enabled() {
						if _, err := w.MoveNodeDist(id, rng.InRect(sys.Bounds())); err != nil {
							return false
						}
					}
				}
			}
			if !check() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAuditDetectsCorruption(t *testing.T) {
	w := newNet(t, 2, 2, 1)
	id := addAt(t, w, geom.Pt(0.5, 0.5))
	w.ElectHeads()
	// Corrupt: move the node out of its registered cell behind the
	// registry's back.
	if _, err := w.Node(id).MoveTo(geom.Pt(1.5, 1.5), node.EnergyModel{}); err != nil {
		t.Fatal(err)
	}
	bad := w.Audit()
	if len(bad) == 0 {
		t.Error("audit should flag a node outside its registered cell")
	}
	// Corrupt: strip the head role directly.
	w2 := newNet(t, 1, 1, 1)
	h := addAt(t, w2, geom.Pt(0.5, 0.5))
	w2.ElectHeads()
	w2.Node(h).SetRole(node.Spare)
	if len(w2.Audit()) == 0 {
		t.Error("audit should flag a head without the Head role")
	}
}

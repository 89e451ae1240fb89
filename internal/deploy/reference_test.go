package deploy

import (
	"fmt"
	"testing"

	"wsncover/internal/geom"
	"wsncover/internal/grid"
	"wsncover/internal/network"
	"wsncover/internal/node"
	"wsncover/internal/randx"
)

// The reference implementations below are the straightforward forms the
// production code must stay stream-identical to: a full permutation of
// the cell indices for hole picking, and an explicit list of the
// occupied cells for the controlled and resupply deployments.

func refPickHoleCells(sys *grid.System, count int, avoidAdjacent bool, rng *randx.Rand) ([]grid.Coord, error) {
	if count < 0 || count > sys.NumCells() {
		return nil, fmt.Errorf("deploy: cannot pick %d holes from %d cells", count, sys.NumCells())
	}
	var out []grid.Coord
	for _, idx := range rng.PermInto(nil, sys.NumCells()) {
		if len(out) == count {
			break
		}
		c := sys.CoordAt(idx)
		conflict := false
		for _, prev := range out {
			if avoidAdjacent && c.IsNeighbor(prev) {
				conflict = true
				break
			}
		}
		if !conflict {
			out = append(out, c)
		}
	}
	if len(out) < count {
		return nil, fmt.Errorf("deploy: only %d/%d non-adjacent holes fit", len(out), count)
	}
	return out, nil
}

func refControlled(w *network.Network, spares int, holeCells []grid.Coord, rng *randx.Rand) error {
	sys := w.System()
	hole := make([]bool, sys.NumCells())
	for _, h := range holeCells {
		if !sys.Contains(h) {
			return fmt.Errorf("controlled deploy: hole %v off-grid", h)
		}
		hole[sys.Index(h)] = true
	}
	var occupied []grid.Coord
	for idx := range hole {
		if !hole[idx] {
			occupied = append(occupied, sys.CoordAt(idx))
		}
	}
	if len(occupied) == 0 && spares > 0 {
		return fmt.Errorf("controlled deploy: no non-hole cells for %d spares", spares)
	}
	for _, c := range occupied {
		if _, err := w.AddNodeAt(rng.InRect(sys.CellRect(c))); err != nil {
			return err
		}
	}
	for i := 0; i < spares; i++ {
		c := occupied[rng.Intn(len(occupied))]
		if _, err := w.AddNodeAt(rng.InRect(sys.CellRect(c))); err != nil {
			return err
		}
	}
	w.ElectHeads()
	return nil
}

func refResupply(w *network.Network, count int, rng *randx.Rand) error {
	if count <= 0 {
		return nil
	}
	sys := w.System()
	var occupied []grid.Coord
	for idx := 0; idx < sys.NumCells(); idx++ {
		if c := sys.CoordAt(idx); !w.IsVacant(c) {
			occupied = append(occupied, c)
		}
	}
	wipeout := len(occupied) == 0
	for i := 0; i < count; i++ {
		var c grid.Coord
		if wipeout {
			c = sys.CoordAt(rng.Intn(sys.NumCells()))
		} else {
			c = occupied[rng.Intn(len(occupied))]
		}
		if _, err := w.AddNodeAt(rng.InRect(sys.CellRect(c))); err != nil {
			return err
		}
	}
	if wipeout {
		w.ElectHeads()
	}
	return nil
}

// sameStream reports whether two streams are in the same state.
func sameStream(a, b *randx.Rand) bool { return a.Int63() == b.Int63() }

// sameNetwork fails the test unless both networks hold the same nodes,
// in the same order, with the same roles, statuses and heads.
func sameNetwork(t *testing.T, label string, got, want *network.Network) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("%s: %d nodes, reference %d", label, got.NumNodes(), want.NumNodes())
	}
	for id := node.ID(0); int(id) < got.NumNodes(); id++ {
		g, r := got.Node(id), want.Node(id)
		if g.Location() != r.Location() || g.Role() != r.Role() || g.Status() != r.Status() {
			t.Fatalf("%s: node %d is %v/%v/%v, reference %v/%v/%v", label, id,
				g.Location(), g.Role(), g.Status(), r.Location(), r.Role(), r.Status())
		}
	}
	for _, c := range got.System().AllCoords() {
		if got.HeadOf(c) != want.HeadOf(c) {
			t.Fatalf("%s: head of %v is %d, reference %d", label, c, got.HeadOf(c), want.HeadOf(c))
		}
	}
}

func TestPickHoleCellsMatchesFullPermutation(t *testing.T) {
	errorsSeen := 0
	for _, dim := range [][2]int{{1, 1}, {2, 2}, {1, 9}, {4, 4}, {5, 7}, {16, 16}, {32, 32}} {
		sys, err := grid.New(dim[0], dim[1], 1, geom.Pt(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		n := sys.NumCells()
		for _, avoid := range []bool{false, true} {
			for seed := int64(0); seed < 40; seed++ {
				// Counts span zero, sparse sets, dense sets whose
				// non-adjacent scan needs most of its 5*count prefix
				// (n/6, n/5), the non-adjacent capacity region, every
				// cell, and one past it.
				for _, count := range []int{0, 1, n / 8, n / 6, n / 5, n / 3, n/2 - 1, n / 2, n/2 + 1, n, n + 1} {
					a, b := randx.New(seed), randx.New(seed)
					got, gotErr := PickHoleCells(sys, count, avoid, a)
					want, wantErr := refPickHoleCells(sys, count, avoid, b)
					label := fmt.Sprintf("%dx%d count=%d avoid=%v seed=%d", dim[0], dim[1], count, avoid, seed)
					if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
						t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
					}
					if gotErr != nil {
						errorsSeen++
						continue
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: picked %v, reference %v", label, got, want)
					}
					if !sameStream(a, b) {
						t.Fatalf("%s: stream state diverged", label)
					}
				}
			}
		}
	}
	if errorsSeen == 0 {
		t.Error("no case reached the non-adjacent capacity error")
	}
}

func TestControlledMatchesOccupiedList(t *testing.T) {
	sys, err := grid.New(9, 7, 1, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	holeSets := [][]grid.Coord{
		nil,
		{grid.C(0, 0)},
		{grid.C(8, 6)},
		{grid.C(4, 3), grid.C(0, 0), grid.C(8, 6)},               // unsorted
		{grid.C(2, 2), grid.C(2, 2), grid.C(1, 0), grid.C(2, 2)}, // duplicates
		{grid.C(3, 0), grid.C(4, 0), grid.C(5, 0), grid.C(6, 0)}, // a run
		{grid.C(8, 0), grid.C(0, 1), grid.C(0, 1), grid.C(7, 0)}, // across a row break
	}
	// Large sets: every other cell, all cells but one in reverse order
	// with each listed twice, and every cell.
	var alternate, allButOne []grid.Coord
	for idx := sys.NumCells() - 1; idx >= 0; idx-- {
		c := sys.CoordAt(idx)
		if idx%2 == 0 {
			alternate = append(alternate, c)
		}
		if idx != 31 {
			allButOne = append(allButOne, c, c)
		}
	}
	holeSets = append(holeSets, alternate, allButOne, sys.AllCoords())
	for i, holes := range holeSets {
		for _, spares := range []int{0, 1, 17} {
			for seed := int64(0); seed < 5; seed++ {
				got, gotLog := observed(sys)
				want, wantLog := observed(sys)
				a, b := randx.New(seed), randx.New(seed)
				gotErr := Controlled(got, spares, holes, a)
				wantErr := refControlled(want, spares, holes, b)
				label := fmt.Sprintf("hole set %d spares=%d seed=%d", i, spares, seed)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
				}
				sameNetwork(t, label, got, want)
				if gotErr == nil && fmt.Sprint(gotLog.events) != fmt.Sprint(wantLog.events) {
					t.Fatalf("%s: HeadElected events %v, reference %v", label, gotLog.events, wantLog.events)
				}
				if !sameStream(a, b) {
					t.Fatalf("%s: stream state diverged", label)
				}
			}
		}
	}
}

// electionLog records a network's HeadElected events in order.
type electionLog struct{ events []string }

func (l *electionLog) NodeMoved(node.ID, geom.Point, geom.Point, grid.Coord, grid.Coord) {}
func (l *electionLog) MessageSent(network.Message)                                       {}
func (l *electionLog) NodeDisabled(node.ID, grid.Coord)                                  {}
func (l *electionLog) RoundStarted(int)                                                  {}
func (l *electionLog) HeadElected(id node.ID, c grid.Coord) {
	l.events = append(l.events, fmt.Sprintf("%d@%v", id, c))
}

// observed returns a network over sys with an election log attached.
func observed(sys *grid.System) (*network.Network, *electionLog) {
	w, log := network.New(sys, node.EnergyModel{}), &electionLog{}
	w.SetObserver(log)
	return w, log
}

// TestBaseReplayMatchesControlled records a base with 5 spares and
// replays it under spare counts below, at and above the recording, with
// and without extending it, into fresh networks whose streams start
// elsewhere: each network must end as Controlled leaves it, with the
// same HeadElected events, and after drawing spares past the recording
// the stream must be where Controlled leaves it too. Only an extending
// replay grows the recording, and a replay that fails leaves it whole.
func TestBaseReplayMatchesControlled(t *testing.T) {
	sys, err := grid.New(9, 7, 1, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	holeSets := [][]grid.Coord{
		nil,
		{grid.C(8, 6)},
		{grid.C(4, 3), grid.C(0, 0), grid.C(8, 6), grid.C(4, 3)},
		sys.AllCoords(),
	}
	steps := []struct {
		spares int
		extend bool
	}{{0, false}, {3, false}, {5, true}, {9, false}, {9, true}, {4, false}, {40, true}, {12, false}, {41, false}}
	var b Base // reused across recordings, like a memo entry
	for i, holes := range holeSets {
		recorded := 5
		if len(holes) == sys.NumCells() {
			recorded = 0 // no cell to scatter spares over
		}
		for seed := int64(0); seed < 4; seed++ {
			rec, recLog := observed(sys)
			recRNG := randx.New(seed)
			if err := b.Place(rec, recorded, holes, recRNG, true); err != nil {
				t.Fatal(err)
			}
			if err := b.AddSpares(rec, recorded, recRNG); err != nil {
				t.Fatal(err)
			}
			ref, refLog := observed(sys)
			refRNG := randx.New(seed)
			if err := refControlled(ref, recorded, holes, refRNG); err != nil {
				t.Fatal(err)
			}
			sameNetwork(t, "recording", rec, ref)
			if fmt.Sprint(recLog.events) != fmt.Sprint(refLog.events) || !sameStream(recRNG, refRNG) {
				t.Fatalf("hole set %d seed %d: the recording's events or stream differ from the reference", i, seed)
			}
			for _, st := range steps {
				label := fmt.Sprintf("hole set %d seed=%d spares=%d extend=%v", i, seed, st.spares, st.extend)
				want, wantLog := observed(sys)
				wantRNG := randx.New(seed)
				wantErr := refControlled(want, st.spares, holes, wantRNG)
				got, gotLog := observed(sys)
				gotRNG := randx.New(-seed - 1)
				before := b.Recorded()
				gotErr := b.Replay(got, st.spares, gotRNG, st.extend)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
				}
				wantRecorded := before
				if st.extend && gotErr == nil {
					wantRecorded = max(before, st.spares)
				}
				if b.Recorded() != wantRecorded {
					t.Fatalf("%s: recording holds %d spares, want %d", label, b.Recorded(), wantRecorded)
				}
				if gotErr != nil {
					continue
				}
				sameNetwork(t, label, got, want)
				if fmt.Sprint(gotLog.events) != fmt.Sprint(wantLog.events) {
					t.Fatalf("%s: HeadElected events %v, reference %v", label, gotLog.events, wantLog.events)
				}
				if st.spares > before && !sameStream(gotRNG, wantRNG) {
					t.Fatalf("%s: stream state diverged", label)
				}
			}
		}
	}
	// A recording of the placed nodes alone serves every spare count.
	if err := b.Place(network.New(sys, node.EnergyModel{}), 0, holeSets[2], randx.New(3), true); err != nil {
		t.Fatal(err)
	}
	got, gotRNG := network.New(sys, node.EnergyModel{}), randx.New(99)
	if err := b.Replay(got, 7, gotRNG, true); err != nil {
		t.Fatal(err)
	}
	want, wantRNG := network.New(sys, node.EnergyModel{}), randx.New(3)
	if err := refControlled(want, 7, holeSets[2], wantRNG); err != nil {
		t.Fatal(err)
	}
	sameNetwork(t, "placed-only recording", got, want)
	if !sameStream(gotRNG, wantRNG) || b.Recorded() != 7 {
		t.Fatalf("placed-only recording: stream diverged or %d spares recorded, want 7", b.Recorded())
	}

	crowded := network.New(sys, node.EnergyModel{})
	if _, err := crowded.AddNodeAt(geom.Pt(0.5, 0.5)); err != nil {
		t.Fatal(err)
	}
	if err := b.Place(network.New(sys, node.EnergyModel{}), 0, nil, randx.New(1), true); err != nil {
		t.Fatal(err)
	}
	if err := b.Replay(crowded, 0, randx.New(1), false); err == nil {
		t.Error("replay into a populated network should fail")
	}
	if err := b.Place(network.New(sys, node.EnergyModel{}), 0, nil, randx.New(1), false); err != nil {
		t.Fatal(err)
	}
	if err := b.Replay(network.New(sys, node.EnergyModel{}), 0, randx.New(1), false); err == nil {
		t.Error("replay of an unrecorded base should fail")
	}
}

func TestResupplyMatchesOccupiedList(t *testing.T) {
	sys, err := grid.New(6, 5, 1, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 20; seed++ {
		got, want := network.New(sys, node.EnergyModel{}), network.New(sys, node.EnergyModel{})
		for _, w := range []*network.Network{got, want} {
			if err := Controlled(w, 10, nil, randx.New(seed)); err != nil {
				t.Fatal(err)
			}
		}
		a, b := randx.New(seed), randx.New(seed)
		// Empty a growing share of the field, ending in a wipeout, and
		// resupply after each step.
		for step, cells := range [][]grid.Coord{nil, {grid.C(0, 0), grid.C(5, 4)}, {grid.C(3, 2)}, sys.AllCoords()} {
			FailCells(got, cells)
			FailCells(want, cells)
			got.ElectHeads()
			want.ElectHeads()
			if err := Resupply(got, 7, a); err != nil {
				t.Fatal(err)
			}
			if err := refResupply(want, 7, b); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("seed=%d step=%d", seed, step)
			sameNetwork(t, label, got, want)
			if !sameStream(a, b) {
				t.Fatalf("%s: stream state diverged", label)
			}
		}
	}
}

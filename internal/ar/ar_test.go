package ar

import (
	"testing"

	"wsncover/internal/coverage"
	"wsncover/internal/geom"
	"wsncover/internal/grid"
	"wsncover/internal/metrics"
	"wsncover/internal/network"
	"wsncover/internal/node"
	"wsncover/internal/randx"
)

// scenario builds a network with one head per cell except holes, plus one
// spare per listed cell.
func scenario(t *testing.T, cols, rows int, holes, spares []grid.Coord) *network.Network {
	t.Helper()
	sys, err := grid.New(cols, rows, 10, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(sys, node.EnergyModel{})
	holeSet := map[grid.Coord]bool{}
	for _, h := range holes {
		holeSet[h] = true
	}
	for _, c := range sys.AllCoords() {
		if !holeSet[c] {
			if _, err := net.AddNodeAt(sys.Center(c)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := randx.New(77)
	for _, c := range spares {
		if _, err := net.AddNodeAt(rng.InRect(sys.CellRect(c))); err != nil {
			t.Fatal(err)
		}
	}
	net.ElectHeads()
	return net
}

func run(t *testing.T, c *Controller, maxRounds int) {
	t.Helper()
	idle := 0
	for r := 0; r < maxRounds; r++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		if c.Done() {
			idle++
			if idle >= 3 {
				return
			}
		} else {
			idle = 0
		}
	}
	c.Finalize()
}

func TestDefaults(t *testing.T) {
	net := scenario(t, 4, 4, nil, nil)
	c := New(net, Config{})
	if c.Name() != "AR" {
		t.Errorf("Name = %q", c.Name())
	}
	if c.initProb != DefaultInitProb || c.maxHops != DefaultMaxHops {
		t.Error("defaults not applied")
	}
	if c.active != 0 || !c.Done() {
		t.Error("fresh controller should be idle")
	}
}

func TestNoHolesNoProcesses(t *testing.T) {
	net := scenario(t, 4, 4, nil, nil)
	c := New(net, Config{RNG: randx.New(1)})
	run(t, c, 10)
	if got := c.Collector().Summarize().Initiated; got != 0 {
		t.Errorf("initiated = %d", got)
	}
}

func TestRedundantInitiators(t *testing.T) {
	// With InitProb = 1 every head-neighbor of the hole initiates: an
	// interior hole gets 4 concurrent processes — the paper's redundancy.
	hole := grid.C(4, 4)
	spares := []grid.Coord{grid.C(3, 4), grid.C(5, 4), grid.C(4, 3), grid.C(4, 5)}
	net := scenario(t, 8, 8, []grid.Coord{hole}, spares)
	c := New(net, Config{RNG: randx.New(1), InitProb: 1})
	run(t, c, 100)
	s := c.Collector().Summarize()
	if s.Initiated != 4 {
		t.Errorf("initiated = %d, want 4", s.Initiated)
	}
	if s.Converged != 4 {
		t.Errorf("converged = %d, want 4 (each found its neighbor spare)", s.Converged)
	}
	// Redundancy: 4 movements for a single hole (3 wasted).
	if s.Moves != 4 {
		t.Errorf("moves = %d, want 4", s.Moves)
	}
	if !coverage.Complete(net) {
		t.Error("coverage should be complete")
	}
	// The extra movers ended up as spares of the hole cell.
	if got := net.SpareCount(hole); got != 3 {
		t.Errorf("hole cell spare count = %d, want 3", got)
	}
}

func TestAtLeastOneInitiator(t *testing.T) {
	// Even with a tiny InitProb, a hole with head-neighbors is always
	// detected by at least one process.
	net := scenario(t, 6, 6, []grid.Coord{grid.C(3, 3)}, []grid.Coord{grid.C(2, 3)})
	c := New(net, Config{RNG: randx.New(2), InitProb: 1e-9})
	run(t, c, 100)
	s := c.Collector().Summarize()
	if s.Initiated != 1 {
		t.Errorf("initiated = %d, want exactly 1 (forced minimum)", s.Initiated)
	}
	if !coverage.Complete(net) {
		t.Error("coverage should be complete")
	}
}

func TestCascadePullsDistantSpare(t *testing.T) {
	// Hole in a corner, single spare 3 cells away in the same row: the
	// greedy walk must cascade along the row.
	hole := grid.C(0, 0)
	net := scenario(t, 8, 1, []grid.Coord{hole}, []grid.Coord{grid.C(4, 0)})
	c := New(net, Config{RNG: randx.New(3), InitProb: 1, MaxHops: 8})
	run(t, c, 100)
	s := c.Collector().Summarize()
	if s.Initiated != 1 { // only one neighbor exists in a 1-row corner
		t.Fatalf("initiated = %d", s.Initiated)
	}
	if s.Converged != 1 {
		t.Fatalf("summary = %v", s)
	}
	if s.Moves != 4 {
		t.Errorf("moves = %d, want 4 (3 cascades + spare)", s.Moves)
	}
	if !coverage.Complete(net) {
		t.Error("coverage should be complete")
	}
}

func TestMaxHopsBudgetFails(t *testing.T) {
	// Spare beyond the hop budget: the localized search gives up.
	hole := grid.C(0, 0)
	net := scenario(t, 8, 1, []grid.Coord{hole}, []grid.Coord{grid.C(7, 0)})
	c := New(net, Config{RNG: randx.New(4), InitProb: 1, MaxHops: 3})
	run(t, c, 100)
	s := c.Collector().Summarize()
	if s.Failed != 1 {
		t.Errorf("summary = %v, want 1 failure", s)
	}
	if coverage.Complete(net) {
		t.Error("hole should remain")
	}
	// Movements were still spent before giving up (the paper's point
	// about wasted work in AR).
	if s.Moves == 0 {
		t.Error("failed process should still have moved heads")
	}
}

func TestStuckWalkFails(t *testing.T) {
	// 2x2 grid, hole at one corner, no spares anywhere: each process
	// exhausts its unvisited neighbors and fails.
	net := scenario(t, 2, 2, []grid.Coord{grid.C(0, 0)}, nil)
	c := New(net, Config{RNG: randx.New(5), InitProb: 1, MaxHops: 10})
	run(t, c, 100)
	s := c.Collector().Summarize()
	if s.Converged != 0 {
		t.Errorf("no spare exists; summary = %v", s)
	}
	if s.Failed != s.Initiated {
		t.Errorf("all processes should fail: %v", s)
	}
}

func TestPrefersSpareNeighbor(t *testing.T) {
	// The greedy step prefers a neighbor with a spare over one with only
	// a head: repair in exactly 2 moves via the spare-holding neighbor.
	hole := grid.C(2, 2)
	// Initiator will be (1,2) (forced single neighbor choice below);
	// spare sits at (1,3), adjacent to the initiator.
	net := scenario(t, 5, 5, []grid.Coord{hole}, []grid.Coord{grid.C(1, 3)})
	c := New(net, Config{RNG: randx.New(6), InitProb: 1, MaxHops: 4})
	run(t, c, 100)
	s := c.Collector().Summarize()
	// With a single spare and four redundant processes, only one can
	// converge; the others fail — AR's documented redundancy cost.
	if s.Converged < 1 {
		t.Errorf("summary = %v", s)
	}
	if net.IsVacant(hole) {
		t.Error("original hole should be filled")
	}
	// The converging process must have used the greedy spare preference:
	// short cascade, not a wander.
	for _, p := range records(c.Collector()) {
		if p.Outcome == metrics.Converged && p.Hops > 4 {
			t.Errorf("process %d took %d hops; greedy spare preference suspect", p.ID, p.Hops)
		}
	}
}

func TestMultipleHolesConcurrent(t *testing.T) {
	holes := []grid.Coord{grid.C(1, 1), grid.C(6, 6), grid.C(1, 6)}
	var spares []grid.Coord
	// Plenty of spares everywhere.
	for x := 0; x < 8; x += 2 {
		for y := 0; y < 8; y += 2 {
			c := grid.C(x, y)
			if c != holes[0] && c != holes[1] && c != holes[2] {
				spares = append(spares, c)
			}
		}
	}
	net := scenario(t, 8, 8, holes, spares)
	c := New(net, Config{RNG: randx.New(7)})
	run(t, c, 200)
	// Every original hole must be filled (at least one process per hole
	// delivers), though failed redundant processes may abandon displaced
	// vacancies elsewhere — AR's robustness gap.
	for _, h := range holes {
		if net.IsVacant(h) {
			t.Errorf("original hole %v not filled", h)
		}
	}
	s := c.Collector().Summarize()
	if s.Initiated < 3 {
		t.Errorf("initiated = %d, want >= 3", s.Initiated)
	}
	if s.Converged < 3 {
		t.Errorf("converged = %d, want >= 3 (one per hole)", s.Converged)
	}
}

func TestMoreProcessesThanSR(t *testing.T) {
	// The comparison the paper's Figure 6a makes: AR initiates more than
	// one process per hole on average.
	total := 0
	for seed := int64(0); seed < 10; seed++ {
		net := scenario(t, 8, 8, []grid.Coord{grid.C(4, 4)}, []grid.Coord{grid.C(3, 4)})
		c := New(net, Config{RNG: randx.New(seed)})
		run(t, c, 100)
		total += c.Collector().Summarize().Initiated
	}
	if total <= 15 { // average must exceed 1.5 processes per hole
		t.Errorf("total initiated over 10 seeds = %d, want > 15", total)
	}
}

func TestFinalizeFailsActive(t *testing.T) {
	net := scenario(t, 8, 1, []grid.Coord{grid.C(0, 0)}, []grid.Coord{grid.C(6, 0)})
	c := New(net, Config{RNG: randx.New(8), InitProb: 1, MaxHops: 8})
	// Run one round only: the process is mid-cascade.
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if c.Done() {
		t.Skip("converged too fast to test Finalize")
	}
	c.Finalize()
	if !c.Done() {
		t.Error("Finalize should drain processes")
	}
	s := c.Collector().Summarize()
	if s.Active != 0 || s.Failed == 0 {
		t.Errorf("summary = %v", s)
	}
}

// records returns a copy of every process record of col, in start order.
func records(col *metrics.Collector) []metrics.Replacement {
	out := make([]metrics.Replacement, col.Summarize().Initiated)
	for id := range out {
		out[id] = *col.Process(id)
	}
	return out
}

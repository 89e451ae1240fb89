package core

import (
	"math"
	"testing"
	"testing/quick"

	"wsncover/internal/coverage"
	"wsncover/internal/geom"
	"wsncover/internal/grid"
	"wsncover/internal/hamilton"
	"wsncover/internal/metrics"
	"wsncover/internal/network"
	"wsncover/internal/node"
	"wsncover/internal/randx"
)

// scenario builds a network with one head per cell except the given holes,
// plus spares in the named cells (one per occurrence).
func scenario(t *testing.T, cols, rows int, holes, spares []grid.Coord) (*network.Network, *hamilton.Topology) {
	t.Helper()
	sys, err := grid.New(cols, rows, 10, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(sys, node.EnergyModel{})
	holeSet := make(map[grid.Coord]bool)
	for _, h := range holes {
		holeSet[h] = true
	}
	for _, c := range sys.AllCoords() {
		if holeSet[c] {
			continue
		}
		if _, err := net.AddNodeAt(sys.Center(c)); err != nil {
			t.Fatal(err)
		}
	}
	rng := randx.New(99)
	for _, c := range spares {
		if holeSet[c] {
			t.Fatalf("spare requested in hole cell %v", c)
		}
		if _, err := net.AddNodeAt(rng.InRect(sys.CellRect(c))); err != nil {
			t.Fatal(err)
		}
	}
	net.ElectHeads()
	topo, err := hamilton.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	return net, topo
}

func newSR(t *testing.T, net *network.Network, topo *hamilton.Topology) *Controller {
	t.Helper()
	c, err := New(net, Config{Topology: topo, RNG: randx.New(5)})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// run steps the controller until idle for three rounds or the budget runs
// out, returning rounds executed.
func run(t *testing.T, c *Controller, maxRounds int) int {
	t.Helper()
	idle := 0
	for r := 0; r < maxRounds; r++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		if c.Done() {
			idle++
			if idle >= 3 {
				return r + 1
			}
		} else {
			idle = 0
		}
	}
	c.Finalize()
	return maxRounds
}

func TestNewValidation(t *testing.T) {
	net, topo := scenario(t, 4, 4, nil, nil)
	if _, err := New(net, Config{}); err == nil {
		t.Error("missing topology should fail")
	}
	otherSys, err := grid.New(6, 4, 10, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	otherTopo, err := hamilton.Build(otherSys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(net, Config{Topology: otherTopo}); err == nil {
		t.Error("mismatched grid system should fail")
	}
	c, err := New(net, Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "SR" {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestNoHolesNoProcesses(t *testing.T) {
	net, topo := scenario(t, 4, 4, nil, nil)
	c := newSR(t, net, topo)
	run(t, c, 10)
	s := c.Collector().Summarize()
	if s.Initiated != 0 {
		t.Errorf("initiated %d processes with no holes", s.Initiated)
	}
	if net.TotalMoves() != 0 {
		t.Error("no movements expected")
	}
}

func TestInitiatorSpareFillsHoleImmediately(t *testing.T) {
	// Place the spare in the hole's monitor grid: one movement suffices.
	sys, err := grid.New(4, 5, 10, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := hamilton.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	hole := grid.C(2, 2)
	mon := topo.MonitorOf(hole)
	net, topo2 := scenario(t, 4, 5, []grid.Coord{hole}, []grid.Coord{mon})
	c := newSR(t, net, topo2)
	rounds := run(t, c, 50)
	s := c.Collector().Summarize()
	if s.Initiated != 1 || s.Converged != 1 {
		t.Fatalf("summary = %v", s)
	}
	if s.Moves != 1 {
		t.Errorf("moves = %d, want 1", s.Moves)
	}
	if s.Messages != 0 {
		t.Errorf("messages = %d, want 0 (no cascade needed)", s.Messages)
	}
	if !coverage.Complete(net) {
		t.Error("coverage should be complete")
	}
	if rounds > 5 {
		t.Errorf("took %d rounds for a 1-move repair", rounds)
	}
}

func TestCascadeReachesDistantSpare(t *testing.T) {
	// Put the only spare k hops back along the walk; the snake must make
	// exactly k movements (k-1 cascading heads + the spare).
	sys, err := grid.New(4, 5, 10, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := hamilton.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	hole := grid.C(1, 3)
	w := topo.NewWalk(hole)
	const k = 5
	for i := 1; i < k; i++ {
		if !w.Advance(nil) {
			t.Fatal("walk too short")
		}
	}
	spareCell := w.Current()

	net, _ := scenario(t, 4, 5, []grid.Coord{hole}, []grid.Coord{spareCell})
	c := newSR(t, net, topo)
	run(t, c, 100)
	s := c.Collector().Summarize()
	if s.Converged != 1 {
		t.Fatalf("summary = %v", s)
	}
	if s.Moves != k {
		t.Errorf("moves = %d, want %d", s.Moves, k)
	}
	if s.MaxHops != k {
		t.Errorf("hops = %d, want %d", s.MaxHops, k)
	}
	if s.Messages != k-1 {
		t.Errorf("messages = %d, want %d", s.Messages, k-1)
	}
	if !coverage.Complete(net) {
		t.Error("coverage should be complete")
	}
	// Every intermediate walk grid still has a head (refilled by the
	// cascade), and the spare cell's head remains.
	for _, g := range net.System().AllCoords() {
		if net.HeadOf(g) == node.Invalid {
			t.Errorf("grid %v left vacant", g)
		}
	}
}

func TestExactlyOneProcessPerHole(t *testing.T) {
	// The paper's headline synchronization claim: one and only one
	// replacement process per hole, even with several simultaneous holes.
	holes := []grid.Coord{grid.C(0, 0), grid.C(5, 5), grid.C(10, 3), grid.C(15, 15), grid.C(7, 12)}
	spares := []grid.Coord{grid.C(1, 1), grid.C(6, 6), grid.C(11, 4), grid.C(14, 14), grid.C(8, 13)}
	net, topo := scenario(t, 16, 16, holes, spares)
	c := newSR(t, net, topo)
	run(t, c, 600)
	s := c.Collector().Summarize()
	if s.Initiated != len(holes) {
		t.Errorf("initiated = %d, want %d (one per hole)", s.Initiated, len(holes))
	}
	if s.Converged != len(holes) {
		t.Errorf("converged = %d, want %d", s.Converged, len(holes))
	}
	if !coverage.Complete(net) {
		t.Error("coverage should be complete")
	}
	// Origins must be exactly the holes, no duplicates.
	seen := map[grid.Coord]int{}
	for _, p := range records(c.Collector()) {
		seen[p.Origin]++
	}
	for _, h := range holes {
		if seen[h] != 1 {
			t.Errorf("hole %v served by %d processes", h, seen[h])
		}
	}
}

func TestAdjacentHolesRecovered(t *testing.T) {
	// A hole whose monitor grid is also a hole: detection must wait until
	// the monitor is refilled, then fire exactly once.
	sys, err := grid.New(4, 5, 10, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := hamilton.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	hole1 := grid.C(2, 2)
	hole2 := topo.MonitorOf(hole1) // adjacent on the cycle
	net, _ := scenario(t, 4, 5, []grid.Coord{hole1, hole2},
		[]grid.Coord{grid.C(0, 0), grid.C(0, 0)})
	c := newSR(t, net, topo)
	run(t, c, 200)
	if !coverage.Complete(net) {
		t.Errorf("coverage incomplete; vacant: %v", net.VacantCells(nil))
	}
	s := c.Collector().Summarize()
	if s.Initiated != 2 || s.Converged != 2 {
		t.Errorf("summary = %v", s)
	}
}

func TestDualPathAllHoleLocations(t *testing.T) {
	// Algorithm 2: recovery must work for holes at the special grids A,
	// B, C, D and at a shared grid, with a single spare far away.
	sys, err := grid.New(5, 5, 10, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := hamilton.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	a, b, cGrid, d, _ := topo.ABCD()
	cases := map[string]grid.Coord{
		"A": a, "B": b, "C": cGrid, "D": d, "shared": grid.C(0, 2),
	}
	for name, hole := range cases {
		t.Run(name, func(t *testing.T) {
			// Single spare in the far corner (0,0) unless that's the hole.
			spare := grid.C(0, 0)
			if hole == spare {
				spare = grid.C(2, 0)
			}
			net, topo := scenario(t, 5, 5, []grid.Coord{hole}, []grid.Coord{spare})
			c := newSR(t, net, topo)
			run(t, c, 200)
			if !coverage.Complete(net) {
				t.Errorf("hole at %s not recovered; vacant: %v", name, net.VacantCells(nil))
			}
			s := c.Collector().Summarize()
			if s.Initiated != 1 || s.Converged != 1 {
				t.Errorf("summary = %v", s)
			}
		})
	}
}

func TestDualPathPrefersSpareAtAForHoleAtD(t *testing.T) {
	// Algorithm 2 case two: hole at D, spares at A: the cascade should
	// finish after B, C, A — three movements — instead of walking the
	// shared part.
	sys, err := grid.New(5, 5, 10, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := hamilton.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	a, _, _, d, _ := topo.ABCD()
	net, _ := scenario(t, 5, 5, []grid.Coord{d}, []grid.Coord{a})
	c := newSR(t, net, topo)
	run(t, c, 100)
	s := c.Collector().Summarize()
	if s.Converged != 1 {
		t.Fatalf("summary = %v", s)
	}
	if s.Moves != 3 {
		t.Errorf("moves = %d, want 3 (B, C, then A's spare)", s.Moves)
	}
	if !coverage.Complete(net) {
		t.Error("coverage should be complete")
	}
}

func TestFailureOnlyWhenNoSpares(t *testing.T) {
	// Theorem 1 / Corollary 1 contrapositive: with zero spares the
	// process must fail after exhausting the walk; the hole remains.
	net, topo := scenario(t, 4, 4, []grid.Coord{grid.C(2, 2)}, nil)
	c := newSR(t, net, topo)
	run(t, c, 200)
	s := c.Collector().Summarize()
	if s.Initiated != 1 || s.Failed != 1 {
		t.Errorf("summary = %v", s)
	}
	if coverage.HoleCount(net) != 1 {
		t.Errorf("holes = %d, want exactly 1 travelling vacancy", coverage.HoleCount(net))
	}
	// No re-initiation storm: initiated stays 1 even after more rounds.
	run(t, c, 20)
	if got := c.Collector().Summarize().Initiated; got != 1 {
		t.Errorf("initiated grew to %d after failure", got)
	}
}

func TestResetFailedAllowsRetry(t *testing.T) {
	net, topo := scenario(t, 4, 4, []grid.Coord{grid.C(2, 2)}, nil)
	c := newSR(t, net, topo)
	run(t, c, 200)
	if coverage.Complete(net) {
		t.Fatal("setup: recovery should have failed")
	}
	// New spare arrives; the failed hole must be retried after reset.
	if _, err := net.AddNodeAt(net.System().Center(grid.C(0, 0))); err != nil {
		t.Fatal(err)
	}
	net.ElectHeads()
	c.ResetFailed()
	run(t, c, 200)
	if !coverage.Complete(net) {
		t.Errorf("retry failed; vacant: %v", net.VacantCells(nil))
	}
}

func TestTheorem1Property(t *testing.T) {
	// Theorem 1: every vacant grid gains a head whenever enough spares
	// exist, across random grid sizes, hole sets, and spare placements —
	// including dual-path (odd x odd) systems.
	f := func(colsU, rowsU, holesU, seed uint8) bool {
		cols := int(colsU%6) + 2 // 2..7
		rows := int(rowsU%6) + 2
		if cols*rows < 6 {
			cols = 3
			rows = 3
		}
		rng := randx.New(int64(seed) + 1)
		nHoles := int(holesU)%3 + 1
		// Random distinct holes.
		perm := rng.Perm(cols * rows)
		holes := make([]grid.Coord, 0, nHoles)
		sys, err := grid.New(cols, rows, 10, geom.Pt(0, 0))
		if err != nil {
			return false
		}
		for _, idx := range perm[:nHoles] {
			holes = append(holes, sys.CoordAt(idx))
		}
		// As many spares as holes, in random non-hole cells.
		holeSet := map[grid.Coord]bool{}
		for _, h := range holes {
			holeSet[h] = true
		}
		var spares []grid.Coord
		for len(spares) < nHoles {
			c := sys.CoordAt(rng.Intn(cols * rows))
			if !holeSet[c] {
				spares = append(spares, c)
			}
		}
		net, topo := scenarioQuick(sys, holes, spares, rng)
		ctrl, err := New(net, Config{Topology: topo, RNG: rng.Split(7)})
		if err != nil {
			return false
		}
		idle := 0
		for r := 0; r < 4*cols*rows+40; r++ {
			if err := ctrl.Step(); err != nil {
				return false
			}
			if ctrl.Done() {
				idle++
				if idle >= 3 {
					break
				}
			} else {
				idle = 0
			}
		}
		s := ctrl.Collector().Summarize()
		return coverage.Complete(net) && s.Initiated == nHoles && s.Converged == nHoles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// scenarioQuick is the non-failing variant of scenario for property tests.
func scenarioQuick(sys *grid.System, holes, spares []grid.Coord, rng *randx.Rand) (*network.Network, *hamilton.Topology) {
	net := network.New(sys, node.EnergyModel{})
	holeSet := map[grid.Coord]bool{}
	for _, h := range holes {
		holeSet[h] = true
	}
	for _, c := range sys.AllCoords() {
		if !holeSet[c] {
			_, _ = net.AddNodeAt(sys.Center(c))
		}
	}
	for _, c := range spares {
		_, _ = net.AddNodeAt(rng.InRect(sys.CellRect(c)))
	}
	net.ElectHeads()
	topo, _ := hamilton.Build(sys)
	return net, topo
}

func TestMovementDistanceWithinBounds(t *testing.T) {
	// Every movement goes to a neighboring cell's central area, so the
	// total distance is bounded by moves * [r/4, sqrt(58)/4*r].
	holes := []grid.Coord{grid.C(3, 3), grid.C(12, 12)}
	spares := []grid.Coord{grid.C(0, 0), grid.C(15, 0)}
	net, topo := scenario(t, 16, 16, holes, spares)
	c := newSR(t, net, topo)
	run(t, c, 700)
	s := c.Collector().Summarize()
	if s.Converged != 2 {
		t.Fatalf("summary = %v", s)
	}
	r := net.System().CellSize()
	lo := float64(s.Moves) * r / 4
	hi := float64(s.Moves) * math.Sqrt(58) / 4 * r
	if s.Distance < lo || s.Distance > hi {
		t.Errorf("distance %v outside [%v, %v] for %d moves", s.Distance, lo, hi, s.Moves)
	}
}

func TestConvergedMovesEqualHops(t *testing.T) {
	// For a converged process, movements equal grids asked: hops-1 head
	// moves plus the final spare move.
	net, topo := scenario(t, 16, 16, []grid.Coord{grid.C(8, 8)}, []grid.Coord{grid.C(0, 15)})
	c := newSR(t, net, topo)
	run(t, c, 700)
	for _, p := range records(c.Collector()) {
		if p.Outcome != metrics.Converged {
			t.Fatalf("process %d: %v", p.ID, p.Outcome)
		}
		if p.Moves != p.Hops {
			t.Errorf("process %d: moves %d != hops %d", p.ID, p.Moves, p.Hops)
		}
	}
}

func TestNeighborShortcutReducesMoves(t *testing.T) {
	// Spare sits in a grid adjacent to the hole but far along the
	// Hamilton walk: plain SR must cascade, SR+shortcut pulls directly.
	sys, err := grid.New(16, 16, 10, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := hamilton.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	hole := grid.C(8, 8)
	// Find the hole's neighbor that is farthest back along the walk.
	w := topo.NewWalk(hole)
	dist := map[grid.Coord]int{}
	for i := 1; ; i++ {
		dist[w.Current()] = i
		if !w.Advance(nil) {
			break
		}
	}
	var spareCell grid.Coord
	best := -1
	var buf []grid.Coord
	for _, nb := range sys.Neighbors(buf, hole) {
		if d := dist[nb]; d > best {
			best = d
			spareCell = nb
		}
	}
	if best < 3 {
		t.Skip("no distant neighbor on this topology")
	}

	runWith := func(shortcut bool) metrics.Summary {
		net, _ := scenario(t, 16, 16, []grid.Coord{hole}, []grid.Coord{spareCell})
		ctrl, err := New(net, Config{Topology: topo, RNG: randx.New(5), NeighborShortcut: shortcut})
		if err != nil {
			t.Fatal(err)
		}
		run(t, ctrl, 700)
		if !coverage.Complete(net) {
			t.Fatalf("shortcut=%v: coverage incomplete", shortcut)
		}
		return ctrl.Collector().Summarize()
	}
	plain := runWith(false)
	short := runWith(true)
	if short.Moves >= plain.Moves {
		t.Errorf("shortcut moves %d should beat plain %d", short.Moves, plain.Moves)
	}
	if short.Moves != 1 {
		t.Errorf("shortcut should repair in 1 move, got %d", short.Moves)
	}
}

func TestShortcutName(t *testing.T) {
	net, topo := scenario(t, 4, 4, nil, nil)
	c, err := New(net, Config{Topology: topo, NeighborShortcut: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "SR+shortcut" {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestConnectivityMaintainedThroughout(t *testing.T) {
	// The paper's guarantee: connectivity and coverage hold once each
	// grid regains a head; during the cascade the head overlay may have
	// a single travelling vacancy but must re-converge.
	net, topo := scenario(t, 8, 8, []grid.Coord{grid.C(4, 4)}, []grid.Coord{grid.C(0, 0)})
	c := newSR(t, net, topo)
	run(t, c, 300)
	if !coverage.Complete(net) || !net.HeadGraphConnected() {
		t.Error("network must end complete and connected")
	}
	if !physicallyConnected(net, net.System().CommRange()) {
		t.Error("physical connectivity at R=sqrt(5)r must hold")
	}
}

// physicallyConnected reports whether the enabled nodes form a single
// connected component under the disc communication model with the given
// range, by a breadth-first search over all pairs.
func physicallyConnected(net *network.Network, commRange float64) bool {
	var ids []node.ID
	for id := node.ID(0); int(id) < net.NumNodes(); id++ {
		if net.Node(id).Enabled() {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return false
	}
	r2 := commRange * commRange
	reached := map[node.ID]bool{ids[0]: true}
	for queue := []node.ID{ids[0]}; len(queue) > 0; queue = queue[1:] {
		p := net.Node(queue[0]).Location()
		for _, id := range ids {
			if !reached[id] && net.Node(id).Location().Dist2(p) <= r2 {
				reached[id] = true
				queue = append(queue, id)
			}
		}
	}
	return len(reached) == len(ids)
}

func TestConvergenceSpeedTracksHops(t *testing.T) {
	// The paper: SR "has the same bound of converging speed as AR" — a
	// cascade that finds its spare at hop k converges within k + O(1)
	// rounds (one hop advances per round after the initial handshake).
	sys, err := grid.New(16, 16, 10, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := hamilton.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	hole := grid.C(8, 8)
	for _, k := range []int{2, 5, 10, 25} {
		w := topo.NewWalk(hole)
		for i := 1; i < k; i++ {
			if !w.Advance(nil) {
				t.Fatal("walk too short")
			}
		}
		net, _ := scenario(t, 16, 16, []grid.Coord{hole}, []grid.Coord{w.Current()})
		c := newSR(t, net, topo)
		rounds := run(t, c, 700) - 3 // subtract the idle-grace rounds
		s := c.Collector().Summarize()
		if s.Converged != 1 {
			t.Fatalf("k=%d: %v", k, s)
		}
		if rounds < k-2 || rounds > k+4 {
			t.Errorf("k=%d hops converged in %d rounds, want within [k-2, k+4]", k, rounds)
		}
	}
}

func TestActiveProcessesAccounting(t *testing.T) {
	net, topo := scenario(t, 8, 8, []grid.Coord{grid.C(4, 4)}, []grid.Coord{grid.C(0, 0)})
	c := newSR(t, net, topo)
	if c.active != 0 {
		t.Error("no processes before start")
	}
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if c.active != 1 {
		t.Errorf("active processes = %d, want 1", c.active)
	}
	run(t, c, 300)
	if c.active != 0 {
		t.Error("processes should drain")
	}
}

// TestDeadCommittedHeadReleasesClaim pins the mid-run-damage failure
// path: when a head already committed to a cascade move dies before
// executing it (a churn wave or depletion check), its process fails —
// but the outstanding vacancy's claim must be released so a fresh
// process repairs the hole from the remaining spares, instead of the
// cell staying shielded from detection forever.
func TestDeadCommittedHeadReleasesClaim(t *testing.T) {
	hole := grid.C(2, 2)
	spareCell := grid.C(0, 0)
	net, topo := scenario(t, 5, 5, []grid.Coord{hole},
		[]grid.Coord{spareCell, spareCell, spareCell})
	monitor := topo.MonitorOf(hole)
	if monitor == spareCell || monitor == hole {
		t.Fatalf("fixture broken: monitor %v collides with spare cell or hole", monitor)
	}
	c := newSR(t, net, topo)
	// Round 1: the hole's monitor detects it and, having no spare of its
	// own, commits to a cascade departure for the next round.
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if c.active != 1 {
		t.Fatalf("processes = %d, want 1", c.active)
	}
	head := net.HeadOf(monitor)
	if head == node.Invalid {
		t.Fatalf("monitor %v has no head", monitor)
	}
	if err := net.DisableNode(head); err != nil {
		t.Fatal(err)
	}
	idle := 0
	for r := 0; r < 200 && idle < 3; r++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		if c.Done() {
			idle++
		} else {
			idle = 0
		}
	}
	if !net.AllHeadsPresent() {
		t.Fatalf("coverage not restored after committed head died: %d vacant cells",
			net.VacantCount())
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

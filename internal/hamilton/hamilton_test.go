package hamilton

import (
	"testing"

	"wsncover/internal/geom"
	"wsncover/internal/grid"
)

func sysOf(t *testing.T, cols, rows int) *grid.System {
	t.Helper()
	s, err := grid.New(cols, rows, 1, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func buildOf(t *testing.T, cols, rows int) *Topology {
	t.Helper()
	topo, err := Build(sysOf(t, cols, rows))
	if err != nil {
		t.Fatalf("Build(%dx%d): %v", cols, rows, err)
	}
	return topo
}

func TestBuildRejectsDegenerateGrids(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {1, 5}, {7, 1}, {2, 1}} {
		if _, err := Build(sysOf(t, dims[0], dims[1])); err == nil {
			t.Errorf("Build(%dx%d) should fail", dims[0], dims[1])
		}
	}
}

func TestBuildKindSelection(t *testing.T) {
	tests := []struct {
		cols, rows int
		want       Kind
	}{
		{4, 5, KindCycle}, // paper Figure 1(b)
		{16, 16, KindCycle},
		{2, 2, KindCycle},
		{3, 4, KindCycle},
		{5, 5, KindDualPath}, // paper Figure 4
		{3, 3, KindDualPath},
		{7, 9, KindDualPath},
	}
	for _, tt := range tests {
		topo := buildOf(t, tt.cols, tt.rows)
		if topo.Kind() != tt.want {
			t.Errorf("Build(%dx%d).Kind = %v, want %v", tt.cols, tt.rows, topo.Kind(), tt.want)
		}
	}
	if KindCycle.String() != "cycle" || KindDualPath.String() != "dual-path" {
		t.Error("Kind.String mismatch")
	}
	if Kind(42).String() == "" {
		t.Error("invalid Kind should still render")
	}
}

// verifyCycle checks that the successor relation of a KindCycle topology is
// a single Hamilton cycle over all cells with grid-adjacent consecutive
// cells and consistent pred/succ.
func verifyCycle(t *testing.T, topo *Topology) {
	t.Helper()
	sys := topo.System()
	order := topo.CycleOrder()
	if len(order) != sys.NumCells() {
		t.Fatalf("cycle visits %d cells, want %d", len(order), sys.NumCells())
	}
	seen := make(map[grid.Coord]bool, len(order))
	for i, g := range order {
		if seen[g] {
			t.Fatalf("cell %v visited twice", g)
		}
		seen[g] = true
		next := order[(i+1)%len(order)]
		if !g.IsNeighbor(next) {
			t.Fatalf("consecutive cycle cells %v -> %v are not grid neighbors", g, next)
		}
		if topo.Succ(g) != next {
			t.Fatalf("Succ(%v) = %v, want %v", g, topo.Succ(g), next)
		}
		if topo.MonitorOf(next) != g {
			t.Fatalf("MonitorOf(%v) = %v, want %v", next, topo.MonitorOf(next), g)
		}
	}
}

func TestCycleConstructionSweep(t *testing.T) {
	for cols := 2; cols <= 9; cols++ {
		for rows := 2; rows <= 9; rows++ {
			if cols*rows%2 == 1 {
				continue
			}
			topo := buildOf(t, cols, rows)
			if topo.Kind() != KindCycle {
				t.Fatalf("%dx%d: kind %v", cols, rows, topo.Kind())
			}
			verifyCycle(t, topo)
		}
	}
}

func TestCycleLargeGrid(t *testing.T) {
	verifyCycle(t, buildOf(t, 16, 16))
	verifyCycle(t, buildOf(t, 16, 17)) // odd rows, even cols
	verifyCycle(t, buildOf(t, 17, 16)) // odd cols, even rows
}

func TestCyclePathLength(t *testing.T) {
	// Paper: L=19 on 4x5, L=255 on 16x16.
	if got := buildOf(t, 4, 5).PathLength(grid.C(2, 2)); got != 19 {
		t.Errorf("4x5 PathLength = %d, want 19", got)
	}
	if got := buildOf(t, 16, 16).PathLength(grid.C(0, 0)); got != 255 {
		t.Errorf("16x16 PathLength = %d, want 255", got)
	}
}

// verifyDualPath checks the structural invariants of the dual-path
// construction: the shared order is a Hamilton path from D to C over all
// cells except A and B, and the A/B/C/D adjacency relations hold.
func verifyDualPath(t *testing.T, topo *Topology) {
	t.Helper()
	sys := topo.System()
	a, b, c, d, ok := topo.ABCD()
	if !ok {
		t.Fatal("ABCD not available")
	}
	// C is the common predecessor (neighbor) of A and B; D the common
	// successor.
	for _, pair := range []struct {
		x, y grid.Coord
		name string
	}{
		{c, a, "C-A"}, {c, b, "C-B"}, {d, a, "D-A"}, {d, b, "D-B"},
	} {
		if !pair.x.IsNeighbor(pair.y) {
			t.Errorf("%s not adjacent: %v, %v", pair.name, pair.x, pair.y)
		}
	}
	shared := topo.SharedOrder()
	if len(shared) != sys.NumCells()-2 {
		t.Fatalf("shared order has %d cells, want %d", len(shared), sys.NumCells()-2)
	}
	if shared[0] != d {
		t.Errorf("shared order starts at %v, want D=%v", shared[0], d)
	}
	if shared[len(shared)-1] != c {
		t.Errorf("shared order ends at %v, want C=%v", shared[len(shared)-1], c)
	}
	seen := make(map[grid.Coord]bool, len(shared))
	for i, g := range shared {
		if g == a || g == b {
			t.Fatalf("shared order contains excluded cell %v", g)
		}
		if seen[g] {
			t.Fatalf("shared order visits %v twice", g)
		}
		seen[g] = true
		if i+1 < len(shared) && !g.IsNeighbor(shared[i+1]) {
			t.Fatalf("shared cells %v -> %v not adjacent", g, shared[i+1])
		}
	}
}

func TestDualPathConstructionSweep(t *testing.T) {
	for cols := 3; cols <= 11; cols += 2 {
		for rows := 3; rows <= 11; rows += 2 {
			topo := buildOf(t, cols, rows)
			if topo.Kind() != KindDualPath {
				t.Fatalf("%dx%d: kind %v", cols, rows, topo.Kind())
			}
			verifyDualPath(t, topo)
		}
	}
}

func TestDualPathPaper5x5(t *testing.T) {
	topo := buildOf(t, 5, 5)
	verifyDualPath(t, topo)
	// L = m*n-1 = 24 for holes at A and B; m*n-2 = 23 elsewhere.
	a, b, _, d, _ := topo.ABCD()
	if got := topo.PathLength(a); got != 24 {
		t.Errorf("PathLength(A) = %d, want 24", got)
	}
	if got := topo.PathLength(b); got != 24 {
		t.Errorf("PathLength(B) = %d, want 24", got)
	}
	if got := topo.PathLength(d); got != 23 {
		t.Errorf("PathLength(D) = %d, want 23", got)
	}
	if got := topo.PathLength(grid.C(0, 0)); got != 23 {
		t.Errorf("PathLength(shared) = %d, want 23", got)
	}
}

func TestCycleABCDUnavailable(t *testing.T) {
	topo := buildOf(t, 4, 4)
	if _, _, _, _, ok := topo.ABCD(); ok {
		t.Error("ABCD should be unavailable on a cycle")
	}
	if topo.SharedOrder() != nil {
		t.Error("SharedOrder should be nil on a cycle")
	}
	if buildOf(t, 3, 3).CycleOrder() != nil {
		t.Error("CycleOrder should be nil on a dual path")
	}
}

func TestMonitorOfCycle(t *testing.T) {
	topo := buildOf(t, 4, 5)
	for _, g := range topo.System().AllCoords() {
		mon := topo.MonitorOf(g)
		if topo.Succ(mon) != g {
			t.Errorf("MonitorOf(%v) = %v but its successor is %v", g, mon, topo.Succ(mon))
		}
	}
}

func TestMonitoredIsInverseOfMonitorOf(t *testing.T) {
	for _, dims := range [][2]int{{4, 5}, {16, 16}, {3, 3}, {5, 5}, {7, 5}} {
		topo := buildOf(t, dims[0], dims[1])
		count := make(map[grid.Coord]int)
		for _, g := range topo.System().AllCoords() {
			for _, watched := range topo.Monitored(nil, g) {
				count[watched]++
				if topo.MonitorOf(watched) != g {
					t.Errorf("%dx%d: %v watches %v but MonitorOf(%v) = %v",
						dims[0], dims[1], g, watched, watched, topo.MonitorOf(watched))
				}
			}
		}
		// Every grid has exactly one monitor.
		for _, g := range topo.System().AllCoords() {
			if count[g] != 1 {
				t.Errorf("%dx%d: grid %v monitored by %d heads, want 1", dims[0], dims[1], g, count[g])
			}
		}
	}
}

func TestMonitorRankMatchesMonitoredPosition(t *testing.T) {
	for _, dims := range [][2]int{{4, 5}, {16, 16}, {3, 3}, {5, 5}, {7, 5}} {
		topo := buildOf(t, dims[0], dims[1])
		ranked := 0
		for _, g := range topo.System().AllCoords() {
			for rank, watched := range topo.Monitored(nil, g) {
				if got, want := topo.ScanKey(watched), 2*topo.System().Index(g)+rank; got != want {
					t.Errorf("%dx%d: ScanKey(%v) = %d, want %d", dims[0], dims[1], watched, got, want)
				}
				if rank > 0 {
					ranked++
				}
			}
		}
		// Only grid B of a dual path sits at rank 1; cycles have none.
		wantRanked := 0
		if topo.Kind() == KindDualPath {
			wantRanked = 1
			_, b, _, _, _ := topo.ABCD()
			if got := topo.ScanKey(b) - 2*topo.System().Index(topo.MonitorOf(b)); got != 1 {
				t.Errorf("%dx%d: rank of B = %d, want 1", dims[0], dims[1], got)
			}
		}
		if ranked != wantRanked {
			t.Errorf("%dx%d: %d grids at rank > 0, want %d", dims[0], dims[1], ranked, wantRanked)
		}
	}
}

func TestMonitorAdjacency(t *testing.T) {
	// The monitor must be a 1-hop grid neighbor of the monitored grid so
	// that R = sqrt(5)*r surveillance suffices.
	for _, dims := range [][2]int{{4, 5}, {5, 5}, {16, 16}, {9, 7}} {
		topo := buildOf(t, dims[0], dims[1])
		for _, g := range topo.System().AllCoords() {
			if mon := topo.MonitorOf(g); !mon.IsNeighbor(g) {
				t.Errorf("%dx%d: MonitorOf(%v) = %v not adjacent", dims[0], dims[1], g, mon)
			}
		}
	}
}

// collectWalk runs a walk to exhaustion with a static probe and returns the
// visited grids in order.
func collectWalk(topo *Topology, origin grid.Coord, probe SpareProbe) []grid.Coord {
	w := topo.NewWalk(origin)
	out := []grid.Coord{w.Current()}
	for w.Advance(probe) {
		out = append(out, w.Current())
	}
	return out
}

func TestWalkCycleCoversEverythingOnce(t *testing.T) {
	for _, dims := range [][2]int{{4, 5}, {2, 2}, {16, 16}, {6, 3}} {
		topo := buildOf(t, dims[0], dims[1])
		for _, origin := range topo.System().AllCoords() {
			visited := collectWalk(topo, origin, nil)
			if len(visited) != topo.System().NumCells()-1 {
				t.Fatalf("%dx%d walk from %v: %d grids, want %d",
					dims[0], dims[1], origin, len(visited), topo.System().NumCells()-1)
			}
			seen := map[grid.Coord]bool{origin: true}
			for _, g := range visited {
				if seen[g] {
					t.Fatalf("walk from %v revisits %v", origin, g)
				}
				seen[g] = true
			}
		}
	}
}

func TestWalkCycleMatchesPathLength(t *testing.T) {
	topo := buildOf(t, 4, 5)
	origin := grid.C(1, 1)
	visited := collectWalk(topo, origin, nil)
	if len(visited) != topo.PathLength(origin) {
		t.Errorf("walk length %d != PathLength %d", len(visited), topo.PathLength(origin))
	}
}

func TestWalkDualPathHoleAtA(t *testing.T) {
	topo := buildOf(t, 5, 5)
	a, b, c, d, _ := topo.ABCD()
	visited := collectWalk(topo, a, nil)
	// Backward along path two: C, shared reversed to D, then B.
	if visited[0] != c {
		t.Errorf("first grid = %v, want C=%v", visited[0], c)
	}
	if visited[len(visited)-1] != b {
		t.Errorf("last grid = %v, want B=%v", visited[len(visited)-1], b)
	}
	if len(visited) != topo.System().NumCells()-1 {
		t.Errorf("walk covers %d grids, want %d", len(visited), topo.System().NumCells()-1)
	}
	for _, g := range visited {
		if g == a {
			t.Error("walk must not revisit the hole A")
		}
		if g == d {
			return // D must be visited (second to last before B)
		}
	}
	_ = d
}

func TestWalkDualPathHoleAtB(t *testing.T) {
	topo := buildOf(t, 5, 5)
	a, b, c, _, _ := topo.ABCD()
	visited := collectWalk(topo, b, nil)
	if visited[0] != c {
		t.Errorf("first grid = %v, want C=%v", visited[0], c)
	}
	if visited[len(visited)-1] != a {
		t.Errorf("last grid = %v, want A=%v", visited[len(visited)-1], a)
	}
	if len(visited) != topo.System().NumCells()-1 {
		t.Errorf("walk covers %d grids, want %d", len(visited), topo.System().NumCells()-1)
	}
}

func TestWalkDualPathHoleAtD(t *testing.T) {
	topo := buildOf(t, 5, 5)
	a, b, c, d, _ := topo.ABCD()

	// Without spares anywhere: B initiates, then C, then continues along
	// path one (shared backward), skipping A per the preference rule.
	visited := collectWalk(topo, d, nil)
	if visited[0] != b {
		t.Errorf("initiator = %v, want B=%v", visited[0], b)
	}
	if visited[1] != c {
		t.Errorf("second = %v, want C=%v", visited[1], c)
	}
	for _, g := range visited {
		if g == a {
			t.Errorf("walk should skip A when A has no spares")
		}
	}
	// Covers everything except A and the hole D itself.
	if len(visited) != topo.System().NumCells()-2 {
		t.Errorf("walk covers %d grids, want %d", len(visited), topo.System().NumCells()-2)
	}

	// With a spare at A: the walk detours to A right after C.
	probeA := func(g grid.Coord) bool { return g == a }
	visited = collectWalk(topo, d, probeA)
	if visited[0] != b || visited[1] != c || visited[2] != a {
		t.Errorf("walk with spare at A = %v..., want B,C,A prefix", visited[:3])
	}
}

func TestWalkDualPathHoleAtSharedGrid(t *testing.T) {
	topo := buildOf(t, 5, 5)
	a, b, _, d, _ := topo.ABCD()
	origin := grid.C(0, 0)

	// No spares: cascade goes backward along the shared part to D, then
	// unconditionally through A, then C, then back along the shared part.
	visited := collectWalk(topo, origin, nil)
	seen := map[grid.Coord]bool{}
	for _, g := range visited {
		seen[g] = true
	}
	if !seen[d] || !seen[a] {
		t.Error("walk should pass through D and A")
	}
	if seen[b] {
		t.Error("walk should skip B when B has no spares")
	}
	if seen[origin] {
		t.Error("walk must not revisit the hole")
	}
	// Everything except B and the hole.
	if len(visited) != topo.System().NumCells()-2 {
		t.Errorf("walk covers %d grids, want %d", len(visited), topo.System().NumCells()-2)
	}

	// Spare at B only: from D the walk detours to B.
	probeB := func(g grid.Coord) bool { return g == b }
	visited = collectWalk(topo, origin, probeB)
	var afterD grid.Coord
	for i, g := range visited {
		if g == d && i+1 < len(visited) {
			afterD = visited[i+1]
		}
	}
	if afterD != b {
		t.Errorf("after D the walk went to %v, want B=%v", afterD, b)
	}
}

func TestWalkDualPathHoleAtC(t *testing.T) {
	topo := buildOf(t, 5, 5)
	a, b, c, _, _ := topo.ABCD()
	visited := collectWalk(topo, c, nil)
	seen := map[grid.Coord]bool{}
	for _, g := range visited {
		if g == c {
			t.Fatal("walk revisits hole C")
		}
		seen[g] = true
	}
	if !seen[a] {
		t.Error("walk for hole at C should cascade through A")
	}
	if seen[b] {
		t.Error("walk for hole at C should skip spare-less B")
	}
	// Terminates when the next grid would be the hole C itself: A's
	// predecessor in path two is C, so A is the last grid.
	if visited[len(visited)-1] != a {
		t.Errorf("last grid = %v, want A=%v", visited[len(visited)-1], a)
	}
}

func TestWalkDualPathSweepCoverage(t *testing.T) {
	// For every odd x odd size and every hole, the no-spare walk visits
	// n*m-1 grids (holes at A or B) or n*m-2 grids (all other holes,
	// where exactly one of A/B is skipped), with no repeats.
	for _, dims := range [][2]int{{3, 3}, {5, 5}, {3, 7}, {9, 5}} {
		topo := buildOf(t, dims[0], dims[1])
		a, b, _, _, _ := topo.ABCD()
		for _, origin := range topo.System().AllCoords() {
			visited := collectWalk(topo, origin, nil)
			want := topo.System().NumCells() - 2
			if origin == a || origin == b {
				want = topo.System().NumCells() - 1
			}
			if len(visited) != want {
				t.Fatalf("%dx%d hole %v: walk covers %d, want %d",
					dims[0], dims[1], origin, len(visited), want)
			}
			seen := map[grid.Coord]bool{origin: true}
			for _, g := range visited {
				if seen[g] {
					t.Fatalf("%dx%d hole %v: walk revisits %v", dims[0], dims[1], origin, g)
				}
				seen[g] = true
			}
		}
	}
}

func TestWalkStepsAreGridNeighborsOrProtocolHops(t *testing.T) {
	// Each consecutive pair of walk grids must be 1-hop grid neighbors:
	// the notification travels between adjacent grids and the moving node
	// crosses a single cell boundary.
	for _, dims := range [][2]int{{4, 5}, {5, 5}, {3, 3}, {16, 16}} {
		topo := buildOf(t, dims[0], dims[1])
		for _, origin := range topo.System().AllCoords() {
			w := topo.NewWalk(origin)
			if !w.Current().IsNeighbor(origin) {
				t.Fatalf("%dx%d: initiator %v not adjacent to hole %v",
					dims[0], dims[1], w.Current(), origin)
			}
			prev := w.Current()
			for w.Advance(nil) {
				if !prev.IsNeighbor(w.Current()) {
					t.Fatalf("%dx%d hole %v: walk step %v -> %v not adjacent",
						dims[0], dims[1], origin, prev, w.Current())
				}
				prev = w.Current()
			}
		}
	}
}

func TestWalkHopsAccounting(t *testing.T) {
	topo := buildOf(t, 4, 5)
	w := topo.NewWalk(grid.C(0, 0))
	if w.Hops() != 1 {
		t.Errorf("initial Hops = %d, want 1", w.Hops())
	}
	w.Advance(nil)
	if w.Hops() != 2 {
		t.Errorf("after one Advance Hops = %d, want 2", w.Hops())
	}
	for w.Advance(nil) {
	}
	if w.Advance(nil) {
		t.Error("Advance after exhaustion should return false")
	}
	if w.Origin() != grid.C(0, 0) {
		t.Errorf("Origin = %v", w.Origin())
	}
}

package network

import (
	"math"
	"testing"

	"wsncover/internal/geom"
	"wsncover/internal/grid"
	"wsncover/internal/node"
	"wsncover/internal/randx"
)

func newNet(t *testing.T, cols, rows int, cell float64) *Network {
	t.Helper()
	sys, err := grid.New(cols, rows, cell, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	return New(sys, node.EnergyModel{})
}

func addAt(t *testing.T, w *Network, p geom.Point) node.ID {
	t.Helper()
	id, err := w.AddNodeAt(p)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestAddNodeAt(t *testing.T) {
	w := newNet(t, 4, 4, 1)
	id := addAt(t, w, geom.Pt(0.5, 0.5))
	if id != 0 {
		t.Errorf("first id = %d", id)
	}
	if w.NumNodes() != 1 || w.EnabledCount() != 1 {
		t.Error("counts wrong")
	}
	c, ok := w.System().CoordOf(w.Node(id).Location())
	if !ok || c != grid.C(0, 0) {
		t.Errorf("cell = %v, %v", c, ok)
	}
	if _, err := w.AddNodeAt(geom.Pt(-1, 0)); err == nil {
		t.Error("off-field add should fail")
	}
	if w.Node(node.ID(99)).Valid() {
		t.Error("unknown id should yield an invalid ref")
	}
}

func TestElectHeadsPicksCenterClosest(t *testing.T) {
	w := newNet(t, 2, 2, 2)
	far := addAt(t, w, geom.Pt(0.1, 0.1))
	near := addAt(t, w, geom.Pt(1.1, 0.9)) // closer to center (1,1)
	w.ElectHeads()
	if got := w.HeadOf(grid.C(0, 0)); got != near {
		t.Errorf("head = %v, want %v (closest to center)", got, near)
	}
	if w.Node(near).Role() != node.Head {
		t.Error("elected node should carry Head role")
	}
	if w.Node(far).Role() != node.Spare {
		t.Error("other node should be spare")
	}
	if w.HeadOf(grid.C(1, 1)) != node.Invalid {
		t.Error("empty cell should have no head")
	}
}

func TestVacancyAndSpares(t *testing.T) {
	w := newNet(t, 3, 3, 1)
	h := addAt(t, w, geom.Pt(0.5, 0.5))
	s1 := addAt(t, w, geom.Pt(0.2, 0.2))
	s2 := addAt(t, w, geom.Pt(0.8, 0.8))
	w.ElectHeads()

	if w.IsVacant(grid.C(0, 0)) {
		t.Error("occupied cell reported vacant")
	}
	if !w.IsVacant(grid.C(2, 2)) {
		t.Error("empty cell not reported vacant")
	}
	if got := w.SpareCount(grid.C(0, 0)); got != 2 {
		t.Errorf("SpareCount = %d, want 2", got)
	}
	if !w.HasSpare(grid.C(0, 0)) {
		t.Error("HasSpare should be true")
	}
	if got := w.TotalSpares(); got != 2 {
		t.Errorf("TotalSpares = %d, want 2", got)
	}
	_ = h
	_ = s1
	_ = s2
}

func TestSpareNearest(t *testing.T) {
	w := newNet(t, 2, 1, 10)
	addAt(t, w, geom.Pt(5, 5)) // becomes head (center)
	far := addAt(t, w, geom.Pt(1, 1))
	near := addAt(t, w, geom.Pt(9, 9))
	w.ElectHeads()
	target := geom.Pt(15, 5)
	if got := w.SpareNearest(grid.C(0, 0), target); got != near {
		t.Errorf("SpareNearest = %v, want %v", got, near)
	}
	if got := w.SpareNearest(grid.C(1, 0), target); got != node.Invalid {
		t.Errorf("SpareNearest on empty cell = %v", got)
	}
	_ = far
	// A lone member is a spare until an election makes it the head.
	lone := addAt(t, w, geom.Pt(12, 5))
	if got := w.SpareNearest(grid.C(1, 0), target); got != lone {
		t.Errorf("SpareNearest on an unelected lone member = %v, want %v", got, lone)
	}
	w.ElectHeads()
	if got := w.SpareNearest(grid.C(1, 0), target); got != node.Invalid {
		t.Errorf("SpareNearest on a head-only cell = %v", got)
	}
}

func TestDisableNode(t *testing.T) {
	w := newNet(t, 2, 2, 1)
	h := addAt(t, w, geom.Pt(0.5, 0.5))
	s := addAt(t, w, geom.Pt(0.4, 0.4))
	w.ElectHeads()
	if w.HeadOf(grid.C(0, 0)) != h {
		t.Fatalf("unexpected head")
	}
	// Disabling the head promotes the spare immediately.
	if err := w.DisableNode(h); err != nil {
		t.Fatal(err)
	}
	if got := w.HeadOf(grid.C(0, 0)); got != s {
		t.Errorf("after disable head = %v, want %v", got, s)
	}
	if w.EnabledCount() != 1 {
		t.Errorf("EnabledCount = %d", w.EnabledCount())
	}
	// Disabling the last node leaves the cell vacant.
	if err := w.DisableNode(s); err != nil {
		t.Fatal(err)
	}
	if !w.IsVacant(grid.C(0, 0)) {
		t.Error("cell should be vacant")
	}
	// Idempotent on already-disabled nodes; error on unknown ids.
	if err := w.DisableNode(h); err != nil {
		t.Errorf("re-disable: %v", err)
	}
	if err := w.DisableNode(node.ID(42)); err == nil {
		t.Error("unknown id should error")
	}
}

func TestDisableAllInCell(t *testing.T) {
	w := newNet(t, 2, 2, 1)
	addAt(t, w, geom.Pt(0.5, 0.5))
	addAt(t, w, geom.Pt(0.2, 0.8))
	addAt(t, w, geom.Pt(1.5, 0.5))
	w.ElectHeads()
	if got := w.DisableAllInCell(grid.C(0, 0)); got != 2 {
		t.Errorf("disabled %d, want 2", got)
	}
	if !w.IsVacant(grid.C(0, 0)) {
		t.Error("cell should be vacant")
	}
	if w.IsVacant(grid.C(1, 0)) {
		t.Error("other cell untouched")
	}
	vac := w.VacantCells(nil)
	if len(vac) != 3 { // (0,0) plus the two never-populated cells
		t.Errorf("VacantCells = %v", vac)
	}
}

func TestMoveNodeBetweenCells(t *testing.T) {
	w := newNet(t, 2, 1, 10)
	h := addAt(t, w, geom.Pt(5, 5))
	s := addAt(t, w, geom.Pt(2, 5))
	w.ElectHeads()

	// Spare moves into the vacant cell and is promoted to head there.
	if _, err := w.MoveNodeDist(s, geom.Pt(15, 5)); err != nil {
		t.Fatal(err)
	}
	if got := w.HeadOf(grid.C(1, 0)); got != s {
		t.Errorf("mover should head the vacant cell, head = %v", got)
	}
	if w.Node(s).Role() != node.Head {
		t.Error("mover role should be Head")
	}
	if w.HeadOf(grid.C(0, 0)) != h {
		t.Error("origin head should be unchanged")
	}
	if w.TotalMoves() != 1 {
		t.Errorf("TotalMoves = %d", w.TotalMoves())
	}
	if math.Abs(w.TotalDistance()-13) > 1e-12 {
		t.Errorf("TotalDistance = %v, want 13", w.TotalDistance())
	}

	// Moving into an occupied cell demotes the mover to spare.
	if _, err := w.MoveNodeDist(h, geom.Pt(14, 5)); err != nil {
		t.Fatal(err)
	}
	if w.Node(h).Role() != node.Spare {
		t.Error("mover into occupied cell should be spare")
	}
	if !w.IsVacant(grid.C(0, 0)) {
		t.Error("origin should now be vacant")
	}
}

func TestMoveHeadElectsReplacement(t *testing.T) {
	w := newNet(t, 2, 1, 10)
	addAt(t, w, geom.Pt(5, 5))
	spare := addAt(t, w, geom.Pt(2, 2))
	w.ElectHeads()
	head := w.HeadOf(grid.C(0, 0))
	if _, err := w.MoveNodeDist(head, geom.Pt(15, 5)); err != nil {
		t.Fatal(err)
	}
	if got := w.HeadOf(grid.C(0, 0)); got != spare {
		t.Errorf("replacement head = %v, want %v", got, spare)
	}
}

func TestMoveNodeErrors(t *testing.T) {
	w := newNet(t, 2, 1, 10)
	id := addAt(t, w, geom.Pt(5, 5))
	w.ElectHeads()
	if _, err := w.MoveNodeDist(node.ID(9), geom.Pt(1, 1)); err == nil {
		t.Error("unknown node should fail")
	}
	if _, err := w.MoveNodeDist(id, geom.Pt(100, 100)); err == nil {
		t.Error("off-field target should fail")
	}
	w.Node(id).Disable()
	if _, err := w.MoveNodeDist(id, geom.Pt(1, 1)); err == nil {
		t.Error("disabled node should fail to move")
	}
}

// sendCounter counts the messages the observer sees sent.
type sendCounter struct {
	electionLog
	sent int
}

func (c *sendCounter) MessageSent(Message) { c.sent++ }

func TestMessaging(t *testing.T) {
	w := newNet(t, 3, 3, 1)
	count := &sendCounter{}
	w.SetObserver(count)
	msg := Message{From: grid.C(0, 0), To: grid.C(0, 1), Kind: 7, Process: 3}
	if err := w.Send(msg); err != nil {
		t.Fatal(err)
	}
	if len(w.Inbox()) != 0 {
		t.Error("message must not arrive in the sending round")
	}
	w.StepRound()
	in := w.Inbox()
	if len(in) != 1 || in[0] != msg {
		t.Errorf("Inbox = %v", in)
	}
	w.StepRound()
	if len(w.Inbox()) != 0 {
		t.Error("inbox should drain after the round")
	}
	if count.sent != 1 {
		t.Errorf("observed %d sends, want 1", count.sent)
	}
	if w.Round() != 2 {
		t.Errorf("Round = %d", w.Round())
	}
}

func TestSendValidation(t *testing.T) {
	w := newNet(t, 3, 3, 1)
	if err := w.Send(Message{From: grid.C(0, 0), To: grid.C(2, 2)}); err == nil {
		t.Error("non-adjacent send should fail")
	}
	if err := w.Send(Message{From: grid.C(0, 0), To: grid.C(0, -1)}); err == nil {
		t.Error("off-grid send should fail")
	}
	if err := w.Send(Message{From: grid.C(1, 1), To: grid.C(1, 1)}); err != nil {
		t.Errorf("self send should be allowed: %v", err)
	}
}

func TestRequeueMessage(t *testing.T) {
	w := newNet(t, 3, 3, 1)
	count := &sendCounter{}
	w.SetObserver(count)
	msg := Message{From: grid.C(0, 0), To: grid.C(0, 1)}
	if err := w.Send(msg); err != nil {
		t.Fatal(err)
	}
	w.StepRound()
	w.RequeueMessage(w.Inbox()[0])
	w.StepRound()
	if len(w.Inbox()) != 1 {
		t.Error("requeued message should arrive next round")
	}
	if count.sent != 1 {
		t.Error("requeue must not send the message again")
	}
}

func TestHeadGraphConnected(t *testing.T) {
	w := newNet(t, 3, 1, 1)
	if w.HeadGraphConnected() {
		t.Error("no heads: disconnected")
	}
	addAt(t, w, geom.Pt(0.5, 0.5))
	w.ElectHeads()
	if !w.HeadGraphConnected() {
		t.Error("single head: connected")
	}
	addAt(t, w, geom.Pt(2.5, 0.5))
	w.ElectHeads()
	if w.HeadGraphConnected() {
		t.Error("heads in cells 0 and 2 with a gap: disconnected")
	}
	addAt(t, w, geom.Pt(1.5, 0.5))
	w.ElectHeads()
	if !w.HeadGraphConnected() {
		t.Error("full row of heads: connected")
	}
	if !w.AllHeadsPresent() {
		t.Error("all heads present")
	}
}

func TestAllHeadsPresent(t *testing.T) {
	w := newNet(t, 2, 1, 1)
	addAt(t, w, geom.Pt(0.5, 0.5))
	w.ElectHeads()
	if w.AllHeadsPresent() {
		t.Error("one vacant cell: not all heads")
	}
}

func TestNodesWithin(t *testing.T) {
	w := newNet(t, 4, 4, 1)
	a := addAt(t, w, geom.Pt(0.5, 0.5))
	b := addAt(t, w, geom.Pt(1.2, 0.5))
	c := addAt(t, w, geom.Pt(3.5, 3.5))
	got := w.NodesWithin(nil, geom.Pt(0.5, 0.5), 1.0)
	if len(got) != 2 {
		t.Fatalf("NodesWithin = %v", got)
	}
	seen := map[node.ID]bool{}
	for _, id := range got {
		seen[id] = true
	}
	if !seen[a] || !seen[b] || seen[c] {
		t.Errorf("NodesWithin = %v", got)
	}
	// Disabled nodes are invisible.
	w.Node(b).Disable()
	w.removeTestHelper(b)
	got = w.NodesWithin(nil, geom.Pt(0.5, 0.5), 1.0)
	if len(got) != 1 {
		t.Errorf("after disable NodesWithin = %v", got)
	}
}

// removeTestHelper performs registry removal for a node disabled directly
// through the node API in tests.
func (w *Network) removeTestHelper(id node.ID) {
	c, _ := w.System().CoordOf(w.Node(id).Location())
	w.removeFromCell(id, c)
}

// physicallyConnected reports whether the enabled nodes form a single
// connected component under the disc communication model with the given
// range.
func physicallyConnected(w *Network, commRange float64) bool {
	var enabled []node.ID
	for id := node.ID(0); int(id) < w.NumNodes(); id++ {
		if w.Node(id).Enabled() {
			enabled = append(enabled, id)
		}
	}
	if len(enabled) == 0 {
		return false
	}
	visited := make(map[node.ID]bool, len(enabled))
	queue := []node.ID{enabled[0]}
	visited[enabled[0]] = true
	var buf []node.ID
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		buf = w.NodesWithin(buf[:0], w.Node(id).Location(), commRange)
		for _, other := range buf {
			if !visited[other] {
				visited[other] = true
				queue = append(queue, other)
			}
		}
	}
	return len(visited) == len(enabled)
}

func TestPhysicallyConnected(t *testing.T) {
	w := newNet(t, 4, 1, 1)
	if physicallyConnected(w, 10) {
		t.Error("empty network: disconnected")
	}
	addAt(t, w, geom.Pt(0.5, 0.5))
	addAt(t, w, geom.Pt(1.5, 0.5))
	addAt(t, w, geom.Pt(3.5, 0.5))
	if physicallyConnected(w, 1.2) {
		t.Error("gap of 2 cells should disconnect at range 1.2")
	}
	if !physicallyConnected(w, 2.5) {
		t.Error("range 2.5 should connect all three")
	}
}

// TestHeadConnectivityUnderCommRange cross-checks the virtual-grid claim:
// if every cell has a head, physical connectivity at R = sqrt(5)*r holds
// regardless of where nodes sit inside their cells.
func TestHeadConnectivityUnderCommRange(t *testing.T) {
	w := newNet(t, 5, 4, 2)
	rng := randx.New(42)
	for _, c := range w.System().AllCoords() {
		p := rng.InRect(w.System().CellRect(c))
		addAt(t, w, p)
	}
	w.ElectHeads()
	if !w.AllHeadsPresent() {
		t.Fatal("setup: all cells should have heads")
	}
	if !physicallyConnected(w, w.System().CommRange()) {
		t.Error("full head occupancy must imply physical connectivity at R=sqrt(5)r")
	}
	if !w.HeadGraphConnected() {
		t.Error("head graph should be connected")
	}
}

func TestCentralTargetStaysInCentralArea(t *testing.T) {
	w := newNet(t, 3, 3, 4)
	rng := randx.New(7)
	ca := w.System().CentralArea(grid.C(1, 2))
	for i := 0; i < 200; i++ {
		p := w.CentralTarget(grid.C(1, 2), rng)
		if !ca.ContainsClosed(p) {
			t.Fatalf("target %v outside central area %v", p, ca)
		}
	}
}

// TestHeadGraphFullCoverageFastPath checks the O(1) answer for a fully
// headed field against the breadth-first search it skips, on single
// rows, single columns and rectangles, and that removing one head
// falls back to a search that agrees with it.
func TestHeadGraphFullCoverageFastPath(t *testing.T) {
	for _, dim := range [][2]int{{1, 1}, {1, 7}, {7, 1}, {2, 2}, {5, 3}, {3, 5}, {16, 16}} {
		w := newNet(t, dim[0], dim[1], 1)
		for _, c := range w.System().AllCoords() {
			addAt(t, w, w.System().Center(c))
		}
		w.ElectHeads()
		cells := w.System().NumCells()
		if !w.AllHeadsPresent() || !w.HeadGraphConnected() || w.headGraphSearch() != cells {
			t.Fatalf("%dx%d full coverage: connected=%v, search reached %d of %d",
				dim[0], dim[1], w.HeadGraphConnected(), w.headGraphSearch(), cells)
		}
		if cells < 3 {
			continue
		}
		// Empty a middle cell: the fast path no longer applies, and the
		// answer must be the search's.
		mid := w.System().CoordAt(cells / 2)
		w.DisableAllInCell(mid)
		want := w.headGraphSearch() == cells-1
		if got := w.HeadGraphConnected(); got != want {
			t.Errorf("%dx%d minus %v: connected=%v, search says %v", dim[0], dim[1], mid, got, want)
		}
		if (dim[0] == 1 || dim[1] == 1) && want {
			t.Errorf("%dx%d: a line cut in the middle must disconnect", dim[0], dim[1])
		}
	}
}

// refHeadGraphSearch is the breadth-first search headGraphSearch makes,
// written over grid coordinates and System.Neighbors: the number of
// head cells reachable from the lowest-index head cell.
func refHeadGraphSearch(w *Network) int {
	sys := w.System()
	seen := map[grid.Coord]bool{}
	var queue []grid.Coord
	for _, c := range sys.AllCoords() {
		if w.HeadOf(c) != node.Invalid {
			queue = append(queue, c)
			seen[c] = true
			break
		}
	}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, nb := range sys.Neighbors(nil, c) {
			if !seen[nb] && w.HeadOf(nb) != node.Invalid {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return len(seen)
}

// TestHeadGraphSearchMatchesReference checks the index walk of
// headGraphSearch (±1 within a row, ±cols across rows) against the
// coordinate search on random head sets: single rows and columns,
// rectangles of either orientation and sizes around a bitset word,
// at head densities from sparse to nearly full, where rows wrap in the
// index space but not on the grid.
func TestHeadGraphSearchMatchesReference(t *testing.T) {
	rng := randx.New(17)
	dims := [][2]int{{1, 1}, {1, 9}, {9, 1}, {2, 3}, {3, 2}, {7, 5}, {5, 7}, {8, 8}, {13, 5}, {11, 11}}
	disconnected := 0
	for _, dim := range dims {
		for trial := 0; trial < 40; trial++ {
			w := newNet(t, dim[0], dim[1], 1)
			density := 0.3 + 0.65*rng.Float64()
			for _, c := range w.System().AllCoords() {
				if rng.Float64() < density {
					addAt(t, w, w.System().Center(c))
				}
			}
			w.ElectHeads()
			if w.headCount == 0 {
				continue
			}
			got, want := w.headGraphSearch(), refHeadGraphSearch(w)
			if got != want {
				t.Fatalf("%dx%d trial %d: index walk reached %d head cells, reference %d", dim[0], dim[1], trial, got, want)
			}
			if got < w.headCount {
				disconnected++
			}
		}
	}
	if disconnected == 0 {
		t.Error("no random head set was disconnected")
	}
}

package network

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"wsncover/internal/geom"
	"wsncover/internal/grid"
	"wsncover/internal/node"
	"wsncover/internal/randx"
)

// electionLog records the observer's HeadElected events in order.
type electionLog struct{ events []string }

func (l *electionLog) NodeMoved(node.ID, geom.Point, geom.Point, grid.Coord, grid.Coord) {}
func (l *electionLog) MessageSent(Message)                                               {}
func (l *electionLog) NodeDisabled(node.ID, grid.Coord)                                  {}
func (l *electionLog) RoundStarted(int)                                                  {}
func (l *electionLog) HeadElected(id node.ID, c grid.Coord) {
	l.events = append(l.events, fmt.Sprintf("%d@%v", id, c))
}

// electAll is ElectHeads as it was before the empty, headed and
// single-member shortcuts: the full election in every cell, in index
// order. It is the specification the shortcut pass must match.
func (w *Network) electAll() {
	for idx := range w.cells {
		w.electLocked(w.sys.CoordAt(idx))
	}
}

// bulkCase is one population deployed into an empty network: the pre
// nodes, then one node per cell outside skip, then spares nodes at
// random points, then one more node at each listed cell's point (a tie
// with that cell's node, which must not displace it).
type bulkCase struct {
	name       string
	cols, rows int
	pre        []geom.Point
	skip       []int
	spares     int
	// edges lists cells whose point is the north-east corner of their
	// rect, which grid.CoordOf assigns to another cell (or folds back on
	// the field's outer edge).
	edges []int
	ties  []int
}

// cellPoints draws one point per cell from seed, then moves the listed
// cells' points onto their rect's north-east corner.
func cellPoints(sys *grid.System, seed int64, edges []int) []geom.Point {
	rng := randx.New(seed)
	pts := make([]geom.Point, sys.NumCells())
	for idx := range pts {
		pts[idx] = rng.InRect(sys.CellRect(sys.CoordAt(idx)))
	}
	for _, idx := range edges {
		pts[idx] = sys.CellRect(sys.CoordAt(idx)).Max
	}
	return pts
}

// points returns the case's cell points and its later nodes' points.
func (bc bulkCase) points(sys *grid.System) (cellPts, later []geom.Point) {
	cellPts = cellPoints(sys, 11, bc.edges)
	rng := randx.New(5)
	for i := 0; i < bc.spares; i++ {
		later = append(later, rng.InRect(sys.Bounds()))
	}
	for _, idx := range bc.ties {
		later = append(later, cellPts[idx])
	}
	return cellPts, later
}

// buildMode is how a bulkCase is deployed.
type buildMode int

const (
	// landed: AddOnePerCell, then DeployNodeAt for the later nodes, then
	// AnnounceHeads — elected as the nodes land.
	landed buildMode = iota
	// elected: AddNodeAt for every node, then ElectHeads.
	elected
	// full: AddNodeAt for every node, then the full election in every
	// cell (electAll), the specification of ElectHeads' shortcuts.
	full
)

// build deploys the case into a fresh network in the given mode and
// returns the network, its election events and, when landed, every
// node's position and Landing in id order.
func (bc bulkCase) build(t *testing.T, mode buildMode) (*Network, []string, []geom.Point, []Landing) {
	t.Helper()
	w := newNet(t, bc.cols, bc.rows, 1)
	sys := w.System()
	log := &electionLog{}
	w.SetObserver(log)
	cellPts, later := bc.points(sys)
	var locs []geom.Point
	var landings []Landing
	if mode == landed {
		for _, p := range bc.pre {
			l, err := w.DeployNodeAt(p)
			if err != nil {
				t.Fatal(err)
			}
			locs, landings = append(locs, p), append(landings, l)
		}
		err := w.AddOnePerCell(slices.Clone(bc.skip), func(c grid.Coord) geom.Point {
			p := cellPts[sys.Index(c)]
			locs = append(locs, p)
			return p
		}, &landings)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range later {
			l, err := w.DeployNodeAt(p)
			if err != nil {
				t.Fatal(err)
			}
			locs, landings = append(locs, p), append(landings, l)
		}
		w.AnnounceHeads()
		return w, log.events, locs, landings
	}
	for _, p := range bc.pre {
		addAt(t, w, p)
	}
	for idx, p := range cellPts {
		if !slices.Contains(bc.skip, idx) {
			addAt(t, w, p)
		}
	}
	for _, p := range later {
		addAt(t, w, p)
	}
	if mode == elected {
		w.ElectHeads()
	} else {
		w.electAll()
	}
	return w, log.events, nil, nil
}

// snapshot renders everything the identity tests compare: every node's
// location, status, role and energy; every cell's head, count and
// member set; the vacant cells; and the drained vacancy journal (drained
// last, since draining mutates it).
func snapshot(w *Network) string {
	var b strings.Builder
	for id := node.ID(0); int(id) < w.NumNodes(); id++ {
		nd := w.Node(id)
		fmt.Fprintf(&b, "n%d %v %v %v %.17g\n", id, nd.Location(), nd.Status(),
			nd.Role(), nd.EnergySpent())
	}
	for idx := range w.cells {
		var members []int
		for cur := w.cells[idx].first; cur != 0; cur = w.nextInCell[cur-1] {
			members = append(members, int(cur-1))
		}
		slices.Sort(members)
		fmt.Fprintf(&b, "c%d head=%d count=%d members=%v\n", idx,
			w.HeadOf(w.sys.CoordAt(idx)), w.cells[idx].count, members)
	}
	fmt.Fprintf(&b, "vacant=%v heads=%d spares=%d\n", w.VacantCells(nil), w.headCount, w.TotalSpares())
	fmt.Fprintf(&b, "journal=%v\n", w.DrainVacancyEvents(nil))
	return b.String()
}

// bulkCases are the populations the bulk paths are checked on.
var bulkCases = []bulkCase{
	{name: "empty-skip", cols: 6, rows: 5, spares: 9},
	{name: "duplicate-skip", cols: 6, rows: 5, skip: []int{3, 3, 3, 7, 7, 29, 29}, spares: 9},
	{name: "unsorted-skip", cols: 6, rows: 5, skip: []int{17, 2, 29, 0, 11}, spares: 9},
	{name: "no-spares", cols: 6, rows: 5, skip: []int{4, 12}},
	{name: "all-skipped", cols: 2, rows: 2, skip: []int{3, 1, 0, 2, 1}},
	{
		// The per-cell pass lands in cells that already have a head,
		// one of them twice, and nearer the centre than some.
		name: "already-populated", cols: 6, rows: 5,
		pre:  []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.25, 0.75), geom.Pt(3.5, 2.5), geom.Pt(5.9, 4.9), geom.Pt(2.02, 1.97)},
		skip: []int{0, 21}, spares: 7,
	},
	{
		// Edge points land in a neighbouring cell, so it gets two
		// members and its own cell none; the last cell's corner folds
		// back into itself. A tie lands on an edge point too.
		name: "edge-rounding", cols: 6, rows: 5,
		skip: []int{8}, edges: []int{1, 7, 14, 29}, spares: 4, ties: []int{7, 20},
	},
	{name: "ties", cols: 4, rows: 4, spares: 6, ties: []int{0, 5, 5, 15}},
	{name: "multi-word", cols: 23, rows: 11, skip: []int{64, 128, 5, 250}, spares: 400},
}

// TestAddOnePerCellMatchesPerNode is the identity contract of election
// as nodes land: AddOnePerCell, DeployNodeAt for the later nodes and
// AnnounceHeads must leave an empty network exactly as AddNodeAt for
// every node followed by ElectHeads (and by the full election) would —
// nodes and roles, cells and heads, vacancy state and journal, and the
// HeadElected events in order.
func TestAddOnePerCellMatchesPerNode(t *testing.T) {
	displaced := 0
	for _, bc := range bulkCases {
		t.Run(bc.name, func(t *testing.T) {
			got, gotEvents, _, landings := bc.build(t, landed)
			if bad := got.Audit(); len(bad) > 0 {
				t.Errorf("landed audit: %v", bad)
			}
			gotSnap := snapshot(got)
			for _, mode := range []buildMode{elected, full} {
				ref, refEvents, _, _ := bc.build(t, mode)
				if !slices.Equal(gotEvents, refEvents) {
					t.Errorf("mode %d: HeadElected events differ:\nlanded %v\nref    %v", mode, gotEvents, refEvents)
				}
				if bad := ref.Audit(); len(bad) > 0 {
					t.Errorf("mode %d audit: %v", mode, bad)
				}
				if g, w := gotSnap, snapshot(ref); g != w {
					t.Errorf("landed network differs from mode %d:\n--- landed\n%s--- ref\n%s", mode, g, w)
				}
			}
			// Every occupied cell's first node took its head; any other
			// node that did displaced one.
			for _, l := range landings {
				if l.Head() {
					displaced++
				}
			}
			displaced -= got.EnabledCount() - got.TotalSpares()
		})
	}
	if displaced == 0 {
		t.Error("no later node displaced a head: the nearer-newcomer rule went unchecked")
	}
}

// TestAddPlacedMatchesAddOnePerCell is the identity contract of the replay
// path: AddPlaced of the positions and Landings a landed deployment
// (AddOnePerCell and DeployNodeAt) recorded must leave an empty network
// as that deployment left it — the
// same node columns, cell registry (list links included), heads,
// occupancy bitset, vacancy journal and HeadElected events — and so must
// AddPlaced of a prefix followed by DeployNodeAt of the rest.
func TestAddPlacedMatchesAddOnePerCell(t *testing.T) {
	for _, bc := range bulkCases {
		t.Run(bc.name, func(t *testing.T) {
			want, wantEvents, locs, landings := bc.build(t, landed)
			wantJournal := slices.Clone(want.vacancyEvents)
			wantSnap := snapshot(want) // drains want's journal
			for _, prefix := range []int{len(locs), len(locs) - bc.spares - len(bc.ties), len(bc.pre), len(locs) - 1} {
				if prefix < 0 {
					continue
				}
				got := newNet(t, bc.cols, bc.rows, 1)
				log := &electionLog{}
				got.SetObserver(log)
				if err := got.AddPlaced(locs[:prefix], landings[:prefix]); err != nil {
					t.Fatal(err)
				}
				for i, p := range locs[prefix:] {
					l, err := got.DeployNodeAt(p)
					if err != nil {
						t.Fatal(err)
					}
					if l != landings[prefix+i] {
						t.Errorf("prefix %d: node %d landed %d, recorded %d", prefix, prefix+i, l, landings[prefix+i])
					}
				}
				got.AnnounceHeads()
				if !slices.Equal(got.cells, want.cells) || !slices.Equal(got.nextInCell, want.nextInCell) {
					t.Errorf("prefix %d: cell registry differs", prefix)
				}
				if !slices.Equal(got.occ, want.occ) {
					t.Errorf("prefix %d: occupancy bitset differs", prefix)
				}
				if !slices.Equal(got.vacancyEvents, wantJournal) {
					t.Errorf("prefix %d: vacancy journal differs", prefix)
				}
				if !slices.Equal(got.store.EnabledWords(), want.store.EnabledWords()) {
					t.Errorf("prefix %d: enabled bitset differs", prefix)
				}
				if !slices.Equal(log.events, wantEvents) {
					t.Errorf("prefix %d: HeadElected events differ", prefix)
				}
				if bad := got.Audit(); len(bad) > 0 {
					t.Errorf("prefix %d audit: %v", prefix, bad)
				}
				if g, w := snapshot(got), wantSnap; g != w {
					t.Errorf("prefix %d: placed network differs:\n--- placed\n%s--- landed\n%s", prefix, g, w)
				}
			}
		})
	}
	if err := newNet(t, 2, 2, 1).AddPlaced(make([]geom.Point, 2), make([]Landing, 1)); err == nil {
		t.Error("AddPlaced with fewer landings than positions should fail")
	}
}

// TestAddOnePerCellErrors checks that an out-of-range skip index is
// rejected before anything is added, and that an off-field point keeps
// the nodes before it, exactly as the AddNodeAt loop it replaces would.
func TestAddOnePerCellErrors(t *testing.T) {
	w := newNet(t, 4, 3, 1)
	if err := w.AddOnePerCell([]int{2, 12}, func(grid.Coord) geom.Point { return geom.Pt(0.5, 0.5) }, nil); err == nil {
		t.Error("skip index 12 on a 12-cell grid should fail")
	}
	if err := w.AddOnePerCell([]int{-1}, func(grid.Coord) geom.Point { return geom.Pt(0.5, 0.5) }, nil); err == nil {
		t.Error("negative skip index should fail")
	}
	if w.NumNodes() != 0 || len(w.DrainVacancyEvents(nil)) != 0 {
		t.Fatal("rejected skip list must leave the network untouched")
	}

	pts := cellPoints(w.System(), 3, nil)
	pts[6] = geom.Pt(-1, 0.5) // off-field
	bulk := newNet(t, 4, 3, 1)
	addAt(t, bulk, geom.Pt(3.5, 2.5))
	if err := bulk.AddOnePerCell([]int{1}, func(c grid.Coord) geom.Point { return pts[bulk.System().Index(c)] }, nil); err == nil {
		t.Fatal("off-field point should fail")
	}
	ref := newNet(t, 4, 3, 1)
	addAt(t, ref, geom.Pt(3.5, 2.5))
	for idx := range pts {
		if idx == 1 {
			continue
		}
		if _, err := ref.AddNodeAt(pts[idx]); err != nil {
			break
		}
	}
	if bulk.NumNodes() != 6 {
		t.Errorf("NumNodes after failed bulk add = %d, want 6 (1 prior + 5 before the bad point)", bulk.NumNodes())
	}
	bulk.ElectHeads()
	ref.electAll()
	if bad := bulk.Audit(); len(bad) > 0 {
		t.Errorf("audit after failed bulk add: %v", bad)
	}
	if got, want := snapshot(bulk), snapshot(ref); got != want {
		t.Errorf("failed bulk add differs from the per-node loop:\n--- bulk\n%s--- ref\n%s", got, want)
	}
	// The truncated store keeps working: the next node takes the next id
	// and its enabled bit.
	if id := addAt(t, bulk, geom.Pt(0.5, 0.5)); id != 6 || !bulk.Node(id).Enabled() {
		t.Errorf("node added after truncation: id %d enabled %v", id, bulk.Node(id).Enabled())
	}
}

// TestCellRecordSize pins the packed per-cell registry record; see
// node.TestRecordSize for why its size is a performance contract.
func TestCellRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(cell{}); got != 12 {
		t.Errorf("cell record is %d bytes, want 12", got)
	}
}

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

// bulkCase is one population built both ways: pre nodes added (and pre
// moves made) before the per-cell pass, skip handed to it, then spares
// added node by node.
type bulkCase struct {
	name       string
	cols, rows int
	pre        []geom.Point
	moves      [][2]int // pre node index, destination cell index
	skip       []int
	spares     int
	// edges lists cells whose point is the north-east corner of their
	// rect, which grid.CoordOf assigns to another cell (or folds back on
	// the field's outer edge).
	edges []int
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

// build runs the case on a fresh network, either through AddOnePerCell
// and ElectHeads or through per-node AddNodeAt and the full election,
// and returns the network and its election events.
func (bc bulkCase) build(t *testing.T, bulk bool) (*Network, []string) {
	t.Helper()
	w := newNet(t, bc.cols, bc.rows, 1)
	sys := w.System()
	log := &electionLog{}
	w.SetObserver(log)
	for _, p := range bc.pre {
		addAt(t, w, p)
	}
	for _, mv := range bc.moves {
		if err := w.MoveNode(node.ID(mv[0]), sys.Center(sys.CoordAt(mv[1]))); err != nil {
			t.Fatal(err)
		}
	}
	pts := cellPoints(sys, 11, bc.edges)
	skip := slices.Clone(bc.skip)
	if bulk {
		if err := w.AddOnePerCell(skip, func(c grid.Coord) geom.Point { return pts[sys.Index(c)] }); err != nil {
			t.Fatal(err)
		}
	} else {
		for idx := range pts {
			if !slices.Contains(skip, idx) {
				addAt(t, w, pts[idx])
			}
		}
	}
	rng := randx.New(5)
	for i := 0; i < bc.spares; i++ {
		addAt(t, w, rng.InRect(sys.Bounds()))
	}
	if bulk {
		w.ElectHeads()
	} else {
		w.electAll()
	}
	return w, log.events
}

// snapshot renders everything the identity tests compare: every node's
// location, status, role and odometer; every cell's head, count and
// member set; the vacant cells; and the drained vacancy journal (drained
// last, since draining mutates it).
func snapshot(w *Network) string {
	var b strings.Builder
	for id := node.ID(0); int(id) < w.NumNodes(); id++ {
		nd := w.Node(id)
		fmt.Fprintf(&b, "n%d %v %v %v %d %.17g %.17g\n", id, nd.Location(), nd.Status(),
			nd.Role(), nd.Moves(), nd.Traveled(), nd.EnergySpent())
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
		name: "already-populated", cols: 6, rows: 5,
		pre:   []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.25, 0.75), geom.Pt(3.5, 2.5), geom.Pt(5.9, 4.9)},
		moves: [][2]int{{1, 9}},
		skip:  []int{0, 21}, spares: 7,
	},
	{
		// Edge points land in a neighbouring cell, so it gets two
		// members and its own cell none; the last cell's corner folds
		// back into itself.
		name: "edge-rounding", cols: 6, rows: 5,
		skip: []int{8}, edges: []int{1, 7, 14, 29}, spares: 4,
	},
	{name: "multi-word", cols: 23, rows: 11, skip: []int{64, 128, 5, 250}, spares: 80},
}

// TestAddOnePerCellMatchesPerNode is the identity contract of the bulk
// deployment path: AddOnePerCell followed by ElectHeads must leave the
// network exactly as per-node AddNodeAt followed by the full election
// would — nodes, cells, vacancy state and journal, and the order of the
// HeadElected events.
func TestAddOnePerCellMatchesPerNode(t *testing.T) {
	for _, bc := range bulkCases {
		t.Run(bc.name, func(t *testing.T) {
			bulk, bulkEvents := bc.build(t, true)
			ref, refEvents := bc.build(t, false)
			if !slices.Equal(bulkEvents, refEvents) {
				t.Errorf("HeadElected order differs:\nbulk %v\nref  %v", bulkEvents, refEvents)
			}
			if bad := bulk.Audit(); len(bad) > 0 {
				t.Errorf("bulk audit: %v", bad)
			}
			if bad := ref.Audit(); len(bad) > 0 {
				t.Errorf("reference audit: %v", bad)
			}
			if got, want := snapshot(bulk), snapshot(ref); got != want {
				t.Errorf("bulk network differs from per-node build:\n--- bulk\n%s--- ref\n%s", got, want)
			}
		})
	}
}

// TestAddPlacedMatchesAddOnePerCell is the identity contract of the
// replay path: AddPlaced of the positions AddOnePerCell placed, each
// with the cell it registered in, must leave the network as
// AddOnePerCell left it — the same node columns, cell registry (list
// links included), occupancy bitset and vacancy journal — before and
// after spares and the election.
func TestAddPlacedMatchesAddOnePerCell(t *testing.T) {
	for _, bc := range bulkCases {
		t.Run(bc.name, func(t *testing.T) {
			var nets [2]*Network
			var locs []geom.Point
			var cells []int32
			for i := range nets {
				w := newNet(t, bc.cols, bc.rows, 1)
				sys := w.System()
				for _, p := range bc.pre {
					addAt(t, w, p)
				}
				for _, mv := range bc.moves {
					if err := w.MoveNode(node.ID(mv[0]), sys.Center(sys.CoordAt(mv[1]))); err != nil {
						t.Fatal(err)
					}
				}
				if i == 0 {
					pts := cellPoints(sys, 11, bc.edges)
					err := w.AddOnePerCell(slices.Clone(bc.skip), func(c grid.Coord) geom.Point {
						p := pts[sys.Index(c)]
						rc, _ := sys.CoordOf(p)
						locs = append(locs, p)
						cells = append(cells, int32(sys.Index(rc)))
						return p
					})
					if err != nil {
						t.Fatal(err)
					}
				} else if err := w.AddPlaced(locs, cells); err != nil {
					t.Fatal(err)
				}
				nets[i] = w
			}
			bulk, placed := nets[0], nets[1]
			same := func(stage string) {
				t.Helper()
				if !slices.Equal(placed.cells, bulk.cells) || !slices.Equal(placed.nextInCell, bulk.nextInCell) {
					t.Errorf("%s: cell registry differs", stage)
				}
				if !slices.Equal(placed.occ, bulk.occ) {
					t.Errorf("%s: occupancy bitset differs", stage)
				}
				if !slices.Equal(placed.vacancyEvents, bulk.vacancyEvents) || !slices.Equal(placed.vacancyDirty, bulk.vacancyDirty) {
					t.Errorf("%s: vacancy journal differs", stage)
				}
				if !slices.Equal(placed.store.EnabledWords(), bulk.store.EnabledWords()) {
					t.Errorf("%s: enabled bitset differs", stage)
				}
			}
			same("placed")
			for _, w := range nets {
				rng := randx.New(5)
				for i := 0; i < bc.spares; i++ {
					addAt(t, w, rng.InRect(w.System().Bounds()))
				}
				w.ElectHeads()
			}
			same("elected")
			if bad := placed.Audit(); len(bad) > 0 {
				t.Errorf("placed audit: %v", bad)
			}
			if got, want := snapshot(placed), snapshot(bulk); got != want {
				t.Errorf("placed network differs from AddOnePerCell's:\n--- placed\n%s--- bulk\n%s", got, want)
			}
		})
	}
	if err := newNet(t, 2, 2, 1).AddPlaced(make([]geom.Point, 2), make([]int32, 1)); err == nil {
		t.Error("AddPlaced with fewer cells than positions should fail")
	}
}

// TestAddOnePerCellErrors checks that an out-of-range skip index is
// rejected before anything is added, and that an off-field point keeps
// the nodes before it, exactly as the AddNodeAt loop it replaces would.
func TestAddOnePerCellErrors(t *testing.T) {
	w := newNet(t, 4, 3, 1)
	if err := w.AddOnePerCell([]int{2, 12}, func(grid.Coord) geom.Point { return geom.Pt(0.5, 0.5) }); err == nil {
		t.Error("skip index 12 on a 12-cell grid should fail")
	}
	if err := w.AddOnePerCell([]int{-1}, func(grid.Coord) geom.Point { return geom.Pt(0.5, 0.5) }); err == nil {
		t.Error("negative skip index should fail")
	}
	if w.NumNodes() != 0 || len(w.DrainVacancyEvents(nil)) != 0 {
		t.Fatal("rejected skip list must leave the network untouched")
	}

	pts := cellPoints(w.System(), 3, nil)
	pts[6] = geom.Pt(-1, 0.5) // off-field
	bulk := newNet(t, 4, 3, 1)
	addAt(t, bulk, geom.Pt(3.5, 2.5))
	if err := bulk.AddOnePerCell([]int{1}, func(c grid.Coord) geom.Point { return pts[bulk.System().Index(c)] }); err == nil {
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

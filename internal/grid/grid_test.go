package grid

import (
	"math"
	"testing"
	"testing/quick"

	"wsncover/internal/geom"
)

func mustNew(t *testing.T, cols, rows int, cell float64) *System {
	t.Helper()
	s, err := New(cols, rows, cell, geom.Pt(0, 0))
	if err != nil {
		t.Fatalf("New(%d, %d, %v): %v", cols, rows, cell, err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name       string
		cols, rows int
		cell       float64
		wantErr    bool
	}{
		{"valid", 4, 5, 1, false},
		{"single cell", 1, 1, 1, false},
		{"zero cols", 0, 5, 1, true},
		{"negative rows", 4, -1, 1, true},
		{"zero cell size", 4, 5, 0, true},
		{"negative cell size", 4, 5, -2, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.cols, tt.rows, tt.cell, geom.Pt(0, 0))
			if (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestNewForCommRangePaperSetup(t *testing.T) {
	// The paper: R = 10 m gives 4.4721 m cells.
	s, err := NewForCommRange(16, 16, 10, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.CellSize()-4.4721) > 1e-3 {
		t.Errorf("cell size = %v, want 4.4721", s.CellSize())
	}
	if math.Abs(s.CommRange()-10) > 1e-9 {
		t.Errorf("CommRange = %v, want 10", s.CommRange())
	}
	if _, err := NewForCommRange(4, 4, 0, geom.Pt(0, 0)); err == nil {
		t.Error("zero comm range should fail")
	}
}

func TestDirectionBasics(t *testing.T) {
	for _, d := range Directions {
		if d.String() == "" {
			t.Errorf("%v: empty String", d)
		}
	}
	if Direction(99).Delta() != (Coord{}) {
		t.Error("invalid direction Delta should be zero")
	}
}

func TestCoordNeighbors(t *testing.T) {
	c := C(2, 3)
	if got := c.Step(North); got != C(2, 4) {
		t.Errorf("north = %v", got)
	}
	if got := c.Step(East); got != C(3, 3) {
		t.Errorf("east = %v", got)
	}
	if got := c.Step(South); got != C(2, 2) {
		t.Errorf("south = %v", got)
	}
	if got := c.Step(West); got != C(1, 3) {
		t.Errorf("west = %v", got)
	}
	if !c.IsNeighbor(C(2, 4)) || c.IsNeighbor(C(3, 4)) || c.IsNeighbor(c) {
		t.Error("IsNeighbor misclassifies")
	}
}

func TestDirTo(t *testing.T) {
	c := C(5, 5)
	for _, d := range Directions {
		got, ok := c.DirTo(c.Step(d))
		if !ok || got != d {
			t.Errorf("DirTo(step %v) = %v, %v", d, got, ok)
		}
	}
	if _, ok := c.DirTo(C(6, 6)); ok {
		t.Error("diagonal should not have a direction")
	}
	if _, ok := c.DirTo(c); ok {
		t.Error("self should not have a direction")
	}
}

func TestManhattanDist(t *testing.T) {
	tests := []struct {
		a, b Coord
		want int
	}{
		{C(0, 0), C(0, 0), 0},
		{C(0, 0), C(3, 4), 7},
		{C(3, 4), C(0, 0), 7},
		{C(-2, 1), C(1, -1), 5},
	}
	for _, tt := range tests {
		if got := tt.a.ManhattanDist(tt.b); got != tt.want {
			t.Errorf("ManhattanDist(%v, %v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestIndexCoordRoundTrip(t *testing.T) {
	s := mustNew(t, 7, 3, 1)
	seen := make(map[int]bool)
	for _, c := range s.AllCoords() {
		i := s.Index(c)
		if i < 0 || i >= s.NumCells() {
			t.Fatalf("Index(%v) = %d out of range", c, i)
		}
		if seen[i] {
			t.Fatalf("Index(%v) = %d duplicated", c, i)
		}
		seen[i] = true
		if back := s.CoordAt(i); back != c {
			t.Fatalf("CoordAt(Index(%v)) = %v", c, back)
		}
	}
	if len(seen) != 21 {
		t.Errorf("visited %d cells, want 21", len(seen))
	}
}

func TestCellRectAndCenter(t *testing.T) {
	s, err := New(4, 5, 2, geom.Pt(10, 20))
	if err != nil {
		t.Fatal(err)
	}
	r := s.CellRect(C(1, 2))
	if r.Min != geom.Pt(12, 24) || r.Max != geom.Pt(14, 26) {
		t.Errorf("CellRect = %v", r)
	}
	if got := s.Center(C(1, 2)); got != geom.Pt(13, 25) {
		t.Errorf("Center = %v", got)
	}
	b := s.Bounds()
	if b.Min != geom.Pt(10, 20) || b.Max != geom.Pt(18, 30) {
		t.Errorf("Bounds = %v", b)
	}
}

func TestCentralAreaGeometry(t *testing.T) {
	s := mustNew(t, 3, 3, 4)
	ca := s.CentralArea(C(1, 1))
	cell := s.CellRect(C(1, 1))
	if ca.Width() != 2 || ca.Height() != 2 {
		t.Errorf("central area should be r/2 square, got %v x %v", ca.Width(), ca.Height())
	}
	if ca.Center() != cell.Center() {
		t.Error("central area should be concentric with the cell")
	}
}

// TestMovementDistanceBounds verifies the paper's Section 4 claim: a node
// moving from anywhere in a cell to a point of a neighboring cell's central
// area travels at least r/4 and at most sqrt(58)/4*r.
func TestMovementDistanceBounds(t *testing.T) {
	const r = 10.0
	s := mustNew(t, 2, 1, r)
	src := s.CellRect(C(0, 0))
	dst := s.CentralArea(C(1, 0))

	minWant := r / 4
	maxWant := math.Sqrt(58) / 4 * r

	// Extremes are attained at corner configurations; scan a fine lattice
	// of both rectangles including corners.
	const steps = 8
	minGot, maxGot := math.Inf(1), math.Inf(-1)
	for i := 0; i <= steps; i++ {
		for j := 0; j <= steps; j++ {
			a := geom.Pt(
				src.Min.X+src.Width()*float64(i)/steps,
				src.Min.Y+src.Height()*float64(j)/steps,
			)
			for k := 0; k <= steps; k++ {
				for l := 0; l <= steps; l++ {
					b := geom.Pt(
						dst.Min.X+dst.Width()*float64(k)/steps,
						dst.Min.Y+dst.Height()*float64(l)/steps,
					)
					d := a.Dist(b)
					minGot = math.Min(minGot, d)
					maxGot = math.Max(maxGot, d)
				}
			}
		}
	}
	if math.Abs(minGot-minWant) > 1e-9 {
		t.Errorf("min distance = %v, want %v", minGot, minWant)
	}
	if math.Abs(maxGot-maxWant) > 1e-9 {
		t.Errorf("max distance = %v, want %v", maxGot, maxWant)
	}
}

func TestCoordOf(t *testing.T) {
	s := mustNew(t, 4, 5, 2)
	tests := []struct {
		p    geom.Point
		want Coord
		ok   bool
	}{
		{geom.Pt(0, 0), C(0, 0), true},
		{geom.Pt(1.9, 1.9), C(0, 0), true},
		{geom.Pt(2, 0), C(1, 0), true},  // shared edge goes east
		{geom.Pt(0, 2), C(0, 1), true},  // shared edge goes north
		{geom.Pt(8, 10), C(3, 4), true}, // far corner folds into last cell
		{geom.Pt(7.5, 9.5), C(3, 4), true},
		{geom.Pt(-0.1, 0), Coord{}, false},
		{geom.Pt(8.1, 5), Coord{}, false},
	}
	for _, tt := range tests {
		got, ok := s.CoordOf(tt.p)
		if ok != tt.ok || (ok && got != tt.want) {
			t.Errorf("CoordOf(%v) = %v, %v; want %v, %v", tt.p, got, ok, tt.want, tt.ok)
		}
	}
}

func TestCoordOfRoundTripProperty(t *testing.T) {
	s := mustNew(t, 9, 7, 3.5)
	f := func(xi, yi uint16, fx, fy float64) bool {
		c := C(int(xi)%9, int(yi)%7)
		// A point strictly inside the cell must map back to the cell.
		fx = math.Mod(math.Abs(fx), 1)
		fy = math.Mod(math.Abs(fy), 1)
		rect := s.CellRect(c)
		p := geom.Pt(
			rect.Min.X+0.001+fx*(rect.Width()-0.002),
			rect.Min.Y+0.001+fy*(rect.Height()-0.002),
		)
		got, ok := s.CoordOf(p)
		return ok && got == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNeighbors(t *testing.T) {
	s := mustNew(t, 4, 5, 1)
	tests := []struct {
		c    Coord
		want int
	}{
		{C(0, 0), 2}, // corner
		{C(3, 4), 2}, // corner
		{C(0, 2), 3}, // west edge
		{C(2, 0), 3}, // south edge
		{C(1, 1), 4}, // interior
	}
	for _, tt := range tests {
		got := s.Neighbors(nil, tt.c)
		if len(got) != tt.want {
			t.Errorf("Neighbors(%v) = %v (%d), want %d", tt.c, got, len(got), tt.want)
		}
		for _, nb := range got {
			if !s.Contains(nb) {
				t.Errorf("neighbor %v of %v out of bounds", nb, tt.c)
			}
			if !tt.c.IsNeighbor(nb) {
				t.Errorf("neighbor %v of %v not adjacent", nb, tt.c)
			}
		}
	}
}

func TestNeighborsAppendsToDst(t *testing.T) {
	s := mustNew(t, 3, 3, 1)
	buf := make([]Coord, 0, 8)
	buf = append(buf, C(9, 9))
	out := s.Neighbors(buf, C(1, 1))
	if len(out) != 5 || out[0] != C(9, 9) {
		t.Errorf("Neighbors should append, got %v", out)
	}
}

// TestCommRangeCoversNeighborCells verifies the virtual-grid guarantee the
// whole scheme rests on: two nodes anywhere within edge-adjacent cells are
// within R = sqrt(5)*r of each other.
func TestCommRangeCoversNeighborCells(t *testing.T) {
	s := mustNew(t, 2, 1, 7)
	a := s.CellRect(C(0, 0))
	b := s.CellRect(C(1, 0))
	R := s.CommRange()
	worst := 0.0
	const steps = 10
	for i := 0; i <= steps; i++ {
		for j := 0; j <= steps; j++ {
			p := geom.Pt(a.Min.X+a.Width()*float64(i)/steps, a.Min.Y+a.Height()*float64(j)/steps)
			for k := 0; k <= steps; k++ {
				for l := 0; l <= steps; l++ {
					q := geom.Pt(b.Min.X+b.Width()*float64(k)/steps, b.Min.Y+b.Height()*float64(l)/steps)
					worst = math.Max(worst, p.Dist(q))
				}
			}
		}
	}
	if worst > R+1e-9 {
		t.Errorf("worst-case neighbor distance %v exceeds comm range %v", worst, R)
	}
	if math.Abs(worst-R) > 1e-9 {
		t.Errorf("bound should be tight: worst %v vs R %v", worst, R)
	}
}

func TestAllCoordsOrder(t *testing.T) {
	s := mustNew(t, 3, 2, 1)
	want := []Coord{C(0, 0), C(1, 0), C(2, 0), C(0, 1), C(1, 1), C(2, 1)}
	got := s.AllCoords()
	if len(got) != len(want) {
		t.Fatalf("AllCoords len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("AllCoords[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestStringers(t *testing.T) {
	s := mustNew(t, 4, 5, 1.5)
	if s.String() == "" {
		t.Error("System String empty")
	}
	if C(1, 2).String() != "(1,2)" {
		t.Errorf("Coord String = %q", C(1, 2).String())
	}
}

// Package grid implements the virtual grid model of Xu and Heidemann
// (GAF, MOBICOM'01) as used by the paper: the surveillance area is
// partitioned into an n x m system of square cells of side r, and with
// communication range R = sqrt(5) * r a node anywhere in a cell can talk to
// a node anywhere in each of the four edge-adjacent cells. One enabled node
// per cell (the grid head) suffices for connectivity and coverage.
package grid

import (
	"fmt"
	"math"

	"wsncover/internal/geom"
)

// Sqrt5 is the communication-range factor of the virtual grid model:
// R = Sqrt5 * r guarantees head-to-head links between neighboring cells.
const Sqrt5 = 2.2360679774997896964091736687747

// Direction identifies one of the four edge-adjacent neighbor relations of
// a cell. Enums start at 1 so that the zero value is invalid.
type Direction int

// The four grid directions. North is +Y, East is +X.
const (
	North Direction = iota + 1
	East
	South
	West
)

// Directions lists all four directions in clockwise order starting north.
var Directions = [4]Direction{North, East, South, West}

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case North:
		return "north"
	case East:
		return "east"
	case South:
		return "south"
	case West:
		return "west"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Delta returns the coordinate offset of one step in direction d.
func (d Direction) Delta() Coord {
	switch d {
	case North:
		return Coord{X: 0, Y: 1}
	case East:
		return Coord{X: 1, Y: 0}
	case South:
		return Coord{X: 0, Y: -1}
	case West:
		return Coord{X: -1, Y: 0}
	default:
		return Coord{}
	}
}

// Coord addresses a cell of the grid system by its column X (0..Cols-1,
// west to east) and row Y (0..Rows-1, south to north), exactly the (x, y)
// addressing of the paper's Figure 1.
type Coord struct {
	X int
	Y int
}

// C is shorthand for Coord{x, y}.
func C(x, y int) Coord { return Coord{X: x, Y: y} }

// Add returns c displaced by d.
func (c Coord) Add(d Coord) Coord { return Coord{X: c.X + d.X, Y: c.Y + d.Y} }

// Step returns the cell one step from c in direction dir.
func (c Coord) Step(dir Direction) Coord { return c.Add(dir.Delta()) }

// ManhattanDist returns |dx| + |dy| between c and o.
func (c Coord) ManhattanDist(o Coord) int {
	dx := c.X - o.X
	if dx < 0 {
		dx = -dx
	}
	dy := c.Y - o.Y
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// IsNeighbor reports whether c and o are edge-adjacent cells, i.e. their
// addresses differ by exactly one in exactly one dimension.
func (c Coord) IsNeighbor(o Coord) bool { return c.ManhattanDist(o) == 1 }

// DirTo returns the direction from c to the edge-adjacent cell o. The
// second result is false when o is not a neighbor of c.
func (c Coord) DirTo(o Coord) (Direction, bool) {
	switch {
	case o.X == c.X && o.Y == c.Y+1:
		return North, true
	case o.X == c.X+1 && o.Y == c.Y:
		return East, true
	case o.X == c.X && o.Y == c.Y-1:
		return South, true
	case o.X == c.X-1 && o.Y == c.Y:
		return West, true
	default:
		return 0, false
	}
}

// String implements fmt.Stringer.
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// System is an n x m virtual grid partition of a rectangular surveillance
// field anchored at Origin, with square cells of side CellSize (the paper's
// r). The zero value is not usable; construct with New.
type System struct {
	cols     int
	rows     int
	cellSize float64
	origin   geom.Point
}

// New builds a grid system of cols x rows cells of side cellSize anchored
// with its south-west corner at origin. It returns an error for
// non-positive dimensions.
func New(cols, rows int, cellSize float64, origin geom.Point) (*System, error) {
	if cols < 1 || rows < 1 {
		return nil, fmt.Errorf("grid: dimensions %dx%d must be at least 1x1", cols, rows)
	}
	if cellSize <= 0 {
		return nil, fmt.Errorf("grid: cell size %v must be positive", cellSize)
	}
	return &System{cols: cols, rows: rows, cellSize: cellSize, origin: origin}, nil
}

// NewForCommRange builds a grid system whose cell size is derived from the
// node communication range R via r = R / sqrt(5), the largest cell size for
// which the virtual grid model guarantees neighbor-cell connectivity. This
// reproduces the paper's experimental setup: R = 10 m yields cells of
// 4.4721 m x 4.4721 m.
func NewForCommRange(cols, rows int, commRange float64, origin geom.Point) (*System, error) {
	if commRange <= 0 {
		return nil, fmt.Errorf("grid: communication range %v must be positive", commRange)
	}
	return New(cols, rows, commRange/Sqrt5, origin)
}

// Cols returns the number of columns (the paper's n).
func (s *System) Cols() int { return s.cols }

// Rows returns the number of rows (the paper's m).
func (s *System) Rows() int { return s.rows }

// CellSize returns the side length of each square cell (the paper's r).
func (s *System) CellSize() float64 { return s.cellSize }

// Origin returns the south-west corner of the field.
func (s *System) Origin() geom.Point { return s.origin }

// NumCells returns the total number of cells, n x m.
func (s *System) NumCells() int { return s.cols * s.rows }

// Bounds returns the rectangle of the whole surveillance field.
func (s *System) Bounds() geom.Rect {
	return geom.RectFromSize(s.origin, float64(s.cols)*s.cellSize, float64(s.rows)*s.cellSize)
}

// CommRange returns the minimum communication range sqrt(5)*r under which
// heads of neighboring cells are guaranteed to be directly connected.
func (s *System) CommRange() float64 { return Sqrt5 * s.cellSize }

// Contains reports whether c addresses a cell of the system.
func (s *System) Contains(c Coord) bool {
	return c.X >= 0 && c.X < s.cols && c.Y >= 0 && c.Y < s.rows
}

// Index maps a cell address to a dense index in [0, NumCells). The caller
// must ensure Contains(c).
func (s *System) Index(c Coord) int { return c.Y*s.cols + c.X }

// CoordAt is the inverse of Index.
func (s *System) CoordAt(index int) Coord {
	return Coord{X: index % s.cols, Y: index / s.cols}
}

// CellRect returns the half-open square occupied by cell c.
func (s *System) CellRect(c Coord) geom.Rect {
	min := geom.Point{
		X: s.origin.X + float64(c.X)*s.cellSize,
		Y: s.origin.Y + float64(c.Y)*s.cellSize,
	}
	return geom.RectFromSize(min, s.cellSize, s.cellSize)
}

// Center returns the center point of cell c.
func (s *System) Center(c Coord) geom.Point { return s.CellRect(c).Center() }

// CentralArea returns the central (r/2) x (r/2) square of cell c. The
// paper's mobility control sends each moving node to a random point of the
// target cell's central area; with this definition the per-hop moving
// distance ranges from r/4 (adjacent cells, nearest points) to
// sqrt(58)/4*r (far corner to far corner), matching the bounds in Section 4.
func (s *System) CentralArea(c Coord) geom.Rect {
	return s.CellRect(c).Inset(s.cellSize / 4)
}

// CoordOf returns the cell containing point p, or ok=false when p lies
// outside the field. Points on shared cell edges belong to the cell to the
// north-east, except on the field's outer north and east edges, which are
// folded into the outermost cells so that the whole closed field maps to a
// cell.
func (s *System) CoordOf(p geom.Point) (Coord, bool) {
	b := s.Bounds()
	if !b.ContainsClosed(p) {
		return Coord{}, false
	}
	x := int(math.Floor((p.X - s.origin.X) / s.cellSize))
	y := int(math.Floor((p.Y - s.origin.Y) / s.cellSize))
	if x == s.cols {
		x--
	}
	if y == s.rows {
		y--
	}
	return Coord{X: x, Y: y}, true
}

// Neighbors appends to dst the cells edge-adjacent to c within the system
// (up to four) and returns the extended slice.
func (s *System) Neighbors(dst []Coord, c Coord) []Coord {
	for _, d := range Directions {
		n := c.Step(d)
		if s.Contains(n) {
			dst = append(dst, n)
		}
	}
	return dst
}

// AllCoords returns every cell address in index order.
func (s *System) AllCoords() []Coord {
	out := make([]Coord, 0, s.NumCells())
	for y := 0; y < s.rows; y++ {
		for x := 0; x < s.cols; x++ {
			out = append(out, Coord{X: x, Y: y})
		}
	}
	return out
}

// String implements fmt.Stringer.
func (s *System) String() string {
	return fmt.Sprintf("grid %dx%d r=%.4g origin=%v", s.cols, s.rows, s.cellSize, s.origin)
}

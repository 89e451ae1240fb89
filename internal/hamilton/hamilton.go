// Package hamilton constructs the directed Hamilton cycles that thread the
// virtual grid and drive the paper's synchronized replacement scheme.
//
// For an n x m grid system with n*m even, a true directed Hamilton cycle is
// built (Section 4, Figure 1(b)). When both n and m are odd no Hamilton
// cycle exists (the grid graph is bipartite with unequal color classes), so
// the paper's dual-path construction is used instead (Section 4, Figure 4):
// two directed Hamilton paths, path one A -> D -> ... -> C -> B and path
// two B -> D -> ... -> C -> A, sharing the middle n*m-2 grids. C is the
// common predecessor of A and B; D is their common successor.
//
// The package exposes the monitoring relation (which head watches which
// grid for vacancy) and the backward walk a cascading replacement follows,
// including the special routing rules of Algorithm 2 at grids C and D.
package hamilton

import (
	"fmt"

	"wsncover/internal/grid"
)

// Kind distinguishes the two constructions.
type Kind int

// Topology kinds. Enums start at 1 so the zero value is invalid.
const (
	// KindCycle is a single directed Hamilton cycle (n*m even).
	KindCycle Kind = iota + 1
	// KindDualPath is the dual-path construction for odd x odd grids.
	KindDualPath
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCycle:
		return "cycle"
	case KindDualPath:
		return "dual-path"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Topology is the directed Hamilton structure over a grid system. It is
// immutable after construction and safe for concurrent readers.
type Topology struct {
	sys  *grid.System
	kind Kind

	// Single-cycle state: succ is the dense-index map around the cycle.
	// Only set for KindCycle. The predecessor map is scanKey's monitor
	// half, since on a cycle every grid's monitor is its predecessor.
	// Every index table is int32: a cascade reads entries at cells a grid
	// row apart, so smaller tables spread those reads over fewer pages.
	succ []int32

	// Dual-path state. sharedOrder runs from D to C and covers every grid
	// except a and b; sharedNext/sharedPrev are dense-index maps along it
	// (-1 where undefined). Only set for KindDualPath.
	a, b, c, d  grid.Coord
	sharedOrder []grid.Coord
	sharedNext  []int32
	sharedPrev  []int32

	// scanKey is the precomputed reverse monitoring relation: for every
	// grid index, 2*m + r, where m is the dense index of the unique grid
	// whose head watches it for vacancy and r its position within m's
	// Monitored list (only grid B of the dual-path construction has rank
	// 1: C watches A first, then B). It gives event-driven hole detection
	// an O(1) "who detects this hole, and in what scan order" lookup in a
	// single load. Set for both kinds.
	scanKey []int32
}

// Build constructs the appropriate topology for the grid system: a single
// directed Hamilton cycle when n*m is even, the dual-path construction when
// both dimensions are odd. Grids smaller than 2x2 have no usable topology
// and yield an error.
func Build(sys *grid.System) (*Topology, error) {
	n, m := sys.Cols(), sys.Rows()
	if n < 2 || m < 2 {
		return nil, fmt.Errorf("hamilton: no Hamilton structure on a %dx%d grid (need at least 2x2)", n, m)
	}
	var (
		t   *Topology
		err error
	)
	if n*m%2 == 0 {
		t, err = buildCycle(sys)
	} else {
		t, err = buildDualPath(sys)
	}
	if err != nil {
		return nil, err
	}
	t.buildMonitorIndex()
	return t, nil
}

// buildMonitorIndex precomputes the reverse monitoring relation from the
// forward Monitored lists, so MonitorOf is a single slice lookup.
func (t *Topology) buildMonitorIndex() {
	n := t.sys.NumCells()
	t.scanKey = make([]int32, n)
	var buf []grid.Coord
	for idx := 0; idx < n; idx++ {
		g := t.sys.CoordAt(idx)
		buf = t.Monitored(buf[:0], g)
		for rank, s := range buf {
			t.scanKey[t.sys.Index(s)] = int32(2*idx + rank)
		}
	}
}

// Kind returns the construction kind.
func (t *Topology) Kind() Kind { return t.kind }

// System returns the underlying grid system.
func (t *Topology) System() *grid.System { return t.sys }

// ABCD returns the special grids of the dual-path construction. It must
// only be called on a KindDualPath topology; ok is false otherwise.
func (t *Topology) ABCD() (a, b, c, d grid.Coord, ok bool) {
	if t.kind != KindDualPath {
		return grid.Coord{}, grid.Coord{}, grid.Coord{}, grid.Coord{}, false
	}
	return t.a, t.b, t.c, t.d, true
}

// CycleOrder returns the cells in cycle order starting from (0,0). For a
// dual-path topology it returns nil.
func (t *Topology) CycleOrder() []grid.Coord {
	if t.kind != KindCycle {
		return nil
	}
	out := make([]grid.Coord, 0, t.sys.NumCells())
	start := grid.C(0, 0)
	cur := start
	for {
		out = append(out, cur)
		cur = t.sys.CoordAt(int(t.succ[t.sys.Index(cur)]))
		if cur == start {
			break
		}
	}
	return out
}

// SharedOrder returns a copy of the shared segment from D to C for a
// dual-path topology, or nil for a cycle.
func (t *Topology) SharedOrder() []grid.Coord {
	if t.kind != KindDualPath {
		return nil
	}
	out := make([]grid.Coord, len(t.sharedOrder))
	copy(out, t.sharedOrder)
	return out
}

// Succ returns the successor of cell g around a single Hamilton cycle. It
// must only be called on a KindCycle topology.
func (t *Topology) Succ(g grid.Coord) grid.Coord {
	return t.sys.CoordAt(int(t.succ[t.sys.Index(g)]))
}

// MonitorOf returns the unique grid whose head is responsible for
// detecting a vacancy of g and initiating its replacement process:
//
//   - single cycle: the cycle predecessor of g;
//   - dual path: C for holes at A or B, B for a hole at D (the paper's
//     "only B will initiate"), and the shared-segment predecessor for every
//     other grid.
//
// The relation is precomputed at Build time; the call is a single slice
// lookup, suitable for per-event hot paths.
func (t *Topology) MonitorOf(g grid.Coord) grid.Coord {
	return t.sys.CoordAt(int(t.scanKey[t.sys.Index(g)] >> 1))
}

// ScanKey returns 2*Index(MonitorOf(g)) + rank, the detection scan-order
// key of g, in one lookup. The rank is g's position within
// MonitorOf(g)'s Monitored list: 0 for every grid except B of the
// dual-path construction, whose monitor C watches A at rank 0 and B at
// rank 1. Detection schemes order by this key to reproduce a full
// index-order sweep over monitors.
func (t *Topology) ScanKey(g grid.Coord) int { return int(t.scanKey[t.sys.Index(g)]) }

// Monitored appends to dst the grids whose vacancy the head of g must
// watch for, and returns the extended slice. Every grid has exactly one
// monitor; in the dual-path construction C watches both A and B, while A
// watches nothing (only B initiates for D).
func (t *Topology) Monitored(dst []grid.Coord, g grid.Coord) []grid.Coord {
	if t.kind == KindCycle {
		return append(dst, t.Succ(g))
	}
	switch g {
	case t.c:
		return append(dst, t.a, t.b)
	case t.b:
		return append(dst, t.d)
	case t.a:
		return dst
	default:
		next := t.sharedNext[t.sys.Index(g)]
		if next < 0 {
			return dst
		}
		return append(dst, t.sys.CoordAt(int(next)))
	}
}

// PathLength returns the length L (in hops) of the directed Hamilton path
// a replacement for a hole at g can stretch along, as analyzed in the
// paper: n*m-1 for a single cycle and for holes at A or B of the dual-path
// construction, and n*m-2 for every other dual-path hole.
func (t *Topology) PathLength(g grid.Coord) int {
	nm := t.sys.NumCells()
	if t.kind == KindCycle {
		return nm - 1
	}
	if g == t.a || g == t.b {
		return nm - 1
	}
	return nm - 2
}

// SpareProbe reports whether a grid currently holds at least one spare
// node. It is consulted only at the dual-path decision points (grid D
// choosing between A and B, and grid C preferring A in the hole-at-D
// case), which the paper permits because A and B are 1-hop neighbors of
// both C and D.
type SpareProbe func(grid.Coord) bool

// Walk iterates the backward route a cascading replacement follows for a
// particular hole: the sequence of grids successively asked to supply a
// node. Current starts at the initiator (MonitorOf the hole) and Advance
// steps backward along the topology, applying the Algorithm 2 preferences
// at C and D.
type Walk struct {
	topo   *Topology
	origin grid.Coord
	cur    grid.Coord
	hops   int
	done   bool
}

// NewWalk returns the walk for a hole at origin. The walk's first grid is
// the initiator.
func (t *Topology) NewWalk(origin grid.Coord) *Walk {
	w := t.WalkFrom(origin)
	return &w
}

// WalkFrom is NewWalk by value, for callers that embed walks inside
// pooled process tables instead of boxing one per process. The returned
// Walk must be stored in addressable memory before Advance is called.
func (t *Topology) WalkFrom(origin grid.Coord) Walk {
	return Walk{topo: t, origin: origin, cur: t.MonitorOf(origin)}
}

// Origin returns the hole grid this walk serves.
func (w *Walk) Origin() grid.Coord { return w.origin }

// Current returns the grid currently asked to supply a node.
func (w *Walk) Current() grid.Coord { return w.cur }

// Hops returns the number of grids visited so far, counting the initiator
// as hop 1.
func (w *Walk) Hops() int {
	if w.done {
		return w.hops
	}
	return w.hops + 1
}

// Advance moves the walk to the next grid to notify, applying the
// dual-path preference rules with probe at decision points. It returns
// false when the walk is exhausted (the next grid would be the hole
// itself, i.e. the whole structure has been traversed).
func (w *Walk) Advance(probe SpareProbe) bool {
	if w.done {
		return false
	}
	w.hops++
	next, ok := w.topo.nextBack(w.origin, w.cur, probe)
	if !ok || w.hops >= 2*w.topo.sys.NumCells() {
		w.done = true
		return false
	}
	w.cur = next
	return true
}

// nextBack computes the grid notified after cur donates its head for a
// cascade serving a hole at origin.
func (t *Topology) nextBack(origin, cur grid.Coord, probe SpareProbe) (grid.Coord, bool) {
	if probe == nil {
		probe = func(grid.Coord) bool { return false }
	}
	var next grid.Coord
	if t.kind == KindCycle {
		next = t.MonitorOf(cur)
	} else {
		switch cur {
		case t.a:
			if origin == t.b {
				// A is the start of path one: walking backward for a hole
				// at B ends here.
				return grid.Coord{}, false
			}
			next = t.c
		case t.b:
			if origin == t.a {
				// B is the start of path two: walking backward for a hole
				// at A ends here.
				return grid.Coord{}, false
			}
			next = t.c
		case t.c:
			if origin == t.d && probe(t.a) {
				// Algorithm 2 case two: at C, grid A with spare nodes is
				// always preferred before stretching along path one.
				next = t.a
			} else {
				next = t.sys.CoordAt(int(t.sharedPrev[t.sys.Index(t.c)]))
			}
		case t.d:
			switch origin {
			case t.a:
				// Walking backward along path two: pred(D) is B.
				next = t.b
			case t.b:
				// Walking backward along path one: pred(D) is A.
				next = t.a
			default:
				// Algorithm 2 case three: from D, A or B is notified when
				// one of them has a spare; otherwise cascade through A.
				switch {
				case probe(t.a):
					next = t.a
				case probe(t.b):
					next = t.b
				default:
					next = t.a
				}
			}
		default:
			prev := t.sharedPrev[t.sys.Index(cur)]
			if prev < 0 {
				return grid.Coord{}, false
			}
			next = t.sys.CoordAt(int(prev))
		}
	}
	if next == origin {
		return grid.Coord{}, false
	}
	return next, true
}

// buildCycle constructs the single directed Hamilton cycle. At least one
// dimension is even. With even column count the cycle uses row 0 as the
// return highway and serpentines over the rows above it; otherwise the
// transposed construction is used.
func buildCycle(sys *grid.System) (*Topology, error) {
	n, m := sys.Cols(), sys.Rows()
	var order []grid.Coord
	switch {
	case n%2 == 0:
		order = cycleOrderEvenCols(n, m)
	case m%2 == 0:
		order = transpose(cycleOrderEvenCols(m, n))
	default:
		return nil, fmt.Errorf("hamilton: internal: buildCycle on odd x odd %dx%d", n, m)
	}
	t := &Topology{
		sys:  sys,
		kind: KindCycle,
		succ: make([]int32, sys.NumCells()),
	}
	for i, g := range order {
		t.succ[sys.Index(g)] = int32(sys.Index(order[(i+1)%len(order)]))
	}
	return t, nil
}

// cycleOrderEvenCols builds the cycle order for an n x m grid with n even:
// (0,0) up column 0, serpentine columns 1..n-1 over rows 1..m-1 ending at
// (n-1,1), then down to (n-1,0) and west along row 0 back to the start.
func cycleOrderEvenCols(n, m int) []grid.Coord {
	order := make([]grid.Coord, 0, n*m)
	order = append(order, grid.C(0, 0))
	// Column 0 upward over rows 1..m-1.
	for y := 1; y < m; y++ {
		order = append(order, grid.C(0, y))
	}
	// Serpentine columns 1..n-1 over rows 1..m-1; odd columns descend,
	// even columns ascend, so column n-1 (odd, n even) ends at row 1.
	for x := 1; x < n; x++ {
		if x%2 == 1 {
			for y := m - 1; y >= 1; y-- {
				order = append(order, grid.C(x, y))
			}
		} else {
			for y := 1; y < m; y++ {
				order = append(order, grid.C(x, y))
			}
		}
	}
	// Row 0 highway from (n-1,0) back west to (1,0).
	for x := n - 1; x >= 1; x-- {
		order = append(order, grid.C(x, 0))
	}
	return order
}

// transpose mirrors a cycle order across the diagonal, turning a
// construction for (cols, rows) into one for (rows, cols).
func transpose(order []grid.Coord) []grid.Coord {
	out := make([]grid.Coord, len(order))
	for i, g := range order {
		out[i] = grid.C(g.Y, g.X)
	}
	return out
}

// buildDualPath constructs the dual-path topology for odd x odd grids.
// The special 2x2 block sits in the north-east corner:
//
//	A = (n-1, m-1)   the corner itself
//	B = (n-2, m-2)
//	C = (n-2, m-1)   common predecessor of A and B
//	D = (n-1, m-2)   common successor of A and B
//
// The shared segment is a Hamilton path from D to C over every grid except
// A and B.
func buildDualPath(sys *grid.System) (*Topology, error) {
	n, m := sys.Cols(), sys.Rows()
	if n < 3 || m < 3 {
		return nil, fmt.Errorf("hamilton: dual-path needs at least 3x3, got %dx%d", n, m)
	}
	t := &Topology{
		sys:  sys,
		kind: KindDualPath,
		a:    grid.C(n-1, m-1),
		b:    grid.C(n-2, m-2),
		c:    grid.C(n-2, m-1),
		d:    grid.C(n-1, m-2),
	}
	t.sharedOrder = dualSharedOrder(n, m)
	t.sharedNext = make([]int32, sys.NumCells())
	t.sharedPrev = make([]int32, sys.NumCells())
	for i := range t.sharedNext {
		t.sharedNext[i] = -1
		t.sharedPrev[i] = -1
	}
	for i, g := range t.sharedOrder {
		if i+1 < len(t.sharedOrder) {
			t.sharedNext[sys.Index(g)] = int32(sys.Index(t.sharedOrder[i+1]))
			t.sharedPrev[sys.Index(t.sharedOrder[i+1])] = int32(sys.Index(g))
		}
	}
	return t, nil
}

// dualSharedOrder builds the shared Hamilton path from D=(n-1,m-2) to
// C=(n-2,m-1) over all grids except A=(n-1,m-1) and B=(n-2,m-2), for odd
// n,m >= 3. The route is:
//
//  1. D steps south to (n-1, m-3);
//  2. a Hamilton path over the full-width block of rows 0..m-3 from its
//     north-east corner to its north-west corner (column pairs swept
//     east to west, finishing with a 3-column zigzag);
//  3. north to (0, m-2), then a 2-row zigzag east over rows m-2 and m-1
//     (columns 0..n-3) ending at C.
func dualSharedOrder(n, m int) []grid.Coord {
	order := make([]grid.Coord, 0, n*m-2)
	order = append(order, grid.C(n-1, m-2)) // D
	h := m - 2                              // rows 0..m-3 span h rows, h odd >= 1
	top := h - 1                            // = m-3

	// Block rows 0..m-3, from (n-1, top) to (0, top).
	// Column pairs x, x-1 for x = n-1, n-3, ..., 3: down column x, west,
	// up column x-1, west to the next pair.
	x := n - 1
	for ; x >= 3; x -= 2 {
		for y := top; y >= 0; y-- {
			order = append(order, grid.C(x, y))
		}
		for y := 0; y <= top; y++ {
			order = append(order, grid.C(x-1, y))
		}
	}
	// Final three columns 2,1,0: down column 2, west along row 0, then a
	// 2-wide zigzag up rows 1..top ending at (0, top).
	for y := top; y >= 0; y-- {
		order = append(order, grid.C(2, y))
	}
	order = append(order, grid.C(1, 0), grid.C(0, 0))
	for y := 1; y <= top; y++ {
		if y%2 == 1 {
			order = append(order, grid.C(0, y), grid.C(1, y))
		} else {
			order = append(order, grid.C(1, y), grid.C(0, y))
		}
	}
	// Step north to row m-2, then zigzag east over rows m-2 and m-1 for
	// columns 0..n-3; even columns ascend, odd columns descend, so column
	// n-3 (even) exits at the top row next to C.
	for xx := 0; xx <= n-3; xx++ {
		if xx%2 == 0 {
			order = append(order, grid.C(xx, m-2), grid.C(xx, m-1))
		} else {
			order = append(order, grid.C(xx, m-1), grid.C(xx, m-2))
		}
	}
	order = append(order, grid.C(n-2, m-1)) // C
	return order
}

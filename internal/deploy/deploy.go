// Package deploy populates a network with sensor nodes and injects the
// failures that create coverage holes.
//
// Deployment strategies cover the paper's uniform random placement plus
// the clustered and per-grid layouts used by the examples and ablation
// benches. Failure injectors model random node failure, the region-wide
// jamming attack of Xu et al. cited in the paper's introduction, and
// battery depletion proportional to distance traveled.
package deploy

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"wsncover/internal/geom"
	"wsncover/internal/grid"
	"wsncover/internal/network"
	"wsncover/internal/node"
	"wsncover/internal/randx"
)

// holeRanks is the sorted, de-duplicated list of the cell indices a
// deployment excludes (holes, or vacant cells). It maps the rank of a
// non-excluded cell — its position among those cells in index order — to
// the cell's index without materializing the O(cells) list of them.
type holeRanks []int

// cell returns the index of the rank-k non-excluded cell. That cell is k
// plus the number of excluded cells before it, and h[j]-j — the number
// of non-excluded cells before h[j] — is non-decreasing in j, so the
// count is a binary search.
func (h holeRanks) cell(k int) int {
	return k + sort.Search(len(h), func(j int) bool { return h[j]-j > k })
}

// Uniform scatters count nodes uniformly at random over the whole field.
// This is the paper's deployment model.
func Uniform(w *network.Network, count int, rng *randx.Rand) error {
	bounds := w.System().Bounds()
	for i := 0; i < count; i++ {
		if _, err := w.AddNodeAt(rng.InRect(bounds)); err != nil {
			return fmt.Errorf("uniform deploy: %w", err)
		}
	}
	return nil
}

// PerGrid places exactly perCell nodes uniformly inside every cell,
// producing a perfectly balanced deployment (the idealized layout the
// density arguments of [3] and [6] assume).
func PerGrid(w *network.Network, perCell int, rng *randx.Rand) error {
	sys := w.System()
	for _, c := range sys.AllCoords() {
		rect := sys.CellRect(c)
		for i := 0; i < perCell; i++ {
			if _, err := w.AddNodeAt(rng.InRect(rect)); err != nil {
				return fmt.Errorf("per-grid deploy: %w", err)
			}
		}
	}
	return nil
}

// Clustered drops count nodes around k cluster centers with a Gaussian
// spread of sigma, clamped to the field. It models air-dropped
// deployments whose density is uneven, the situation in which holes are
// most likely.
func Clustered(w *network.Network, count, k int, sigma float64, rng *randx.Rand) error {
	if k < 1 {
		return fmt.Errorf("clustered deploy: k=%d clusters", k)
	}
	bounds := w.System().Bounds()
	centers := make([]geom.Point, k)
	for i := range centers {
		centers[i] = rng.InRect(bounds)
	}
	for i := 0; i < count; i++ {
		c := centers[rng.Intn(k)]
		p := geom.Pt(
			c.X+rng.NormFloat64()*sigma,
			c.Y+rng.NormFloat64()*sigma,
		)
		p = bounds.Clamp(p)
		// Clamp can land on the exclusive north/east boundary; nudge in.
		p.X = math.Min(p.X, bounds.Max.X-1e-9)
		p.Y = math.Min(p.Y, bounds.Max.Y-1e-9)
		if _, err := w.AddNodeAt(p); err != nil {
			return fmt.Errorf("clustered deploy: %w", err)
		}
	}
	return nil
}

// Controlled builds the experimental configuration of Section 5 with an
// exact spare budget: every cell outside holeCells receives one node (the
// future head) at a uniform position, then spares additional nodes are
// scattered uniformly over the non-hole cells. The cells in holeCells stay
// empty, so after ElectHeads the network has exactly len(holeCells)
// simultaneous holes and exactly spares spare nodes (the paper's N).
func Controlled(w *network.Network, spares int, holeCells []grid.Coord, rng *randx.Rand) error {
	sys := w.System()
	holes := make(holeRanks, 0, len(holeCells))
	for _, h := range holeCells {
		if !sys.Contains(h) {
			return fmt.Errorf("controlled deploy: hole %v off-grid", h)
		}
		holes = append(holes, sys.Index(h))
	}
	slices.Sort(holes)
	holes = slices.Compact(holes)
	n := sys.NumCells()
	occupied := n - len(holes)
	if occupied == 0 && spares > 0 {
		return fmt.Errorf("controlled deploy: no non-hole cells for %d spares", spares)
	}
	w.GrowNodes(occupied + max(spares, 0))
	err := w.AddOnePerCell(holes, func(c grid.Coord) geom.Point {
		return rng.InRect(sys.CellRect(c))
	})
	if err != nil {
		return fmt.Errorf("controlled deploy: %w", err)
	}
	for i := 0; i < spares; i++ {
		c := sys.CoordAt(holes.cell(rng.Intn(occupied)))
		if _, err := w.AddNodeAt(rng.InRect(sys.CellRect(c))); err != nil {
			return fmt.Errorf("controlled deploy: %w", err)
		}
	}
	w.ElectHeads()
	return nil
}

// Resupply scatters count fresh spare nodes uniformly over the occupied
// (non-vacant) cells, modelling a mid-run delivery of replacement
// hardware. Landing only in occupied cells keeps the arrivals spares —
// each cell already has a head, so no election is needed and no vacancy
// is repaired for free; the replacement scheme still has to move them.
// When every cell is vacant (the damage wiped the network out), the
// batch scatters over all cells instead and the landed nodes are elected
// heads — a delivery into a dead field restarts surveillance where it
// lands rather than being lost.
func Resupply(w *network.Network, count int, rng *randx.Rand) error {
	if count <= 0 {
		return nil
	}
	sys := w.System()
	vacant := w.VacantCells(nil)
	holes := make(holeRanks, len(vacant))
	for i, c := range vacant {
		holes[i] = sys.Index(c)
	}
	occupied := sys.NumCells() - len(holes)
	wipeout := occupied == 0
	for i := 0; i < count; i++ {
		var c grid.Coord
		if wipeout {
			c = sys.CoordAt(rng.Intn(sys.NumCells()))
		} else {
			c = sys.CoordAt(holes.cell(rng.Intn(occupied)))
		}
		if _, err := w.AddNodeAt(rng.InRect(sys.CellRect(c))); err != nil {
			return fmt.Errorf("resupply: %w", err)
		}
	}
	if wipeout {
		// Arrivals in vacant cells have no head to join; stand them up.
		w.ElectHeads()
	}
	return nil
}

// FailRandom disables count enabled nodes chosen uniformly at random,
// returning how many were actually disabled (fewer when the network has
// fewer enabled nodes, none when count <= 0).
func FailRandom(w *network.Network, count int, rng *randx.Rand) int {
	if count <= 0 {
		return 0
	}
	var enabled []node.ID
	for id := node.ID(0); int(id) < w.NumNodes(); id++ {
		if w.Node(id).Enabled() {
			enabled = append(enabled, id)
		}
	}
	picks := rng.Sample(len(enabled), count)
	for _, i := range picks {
		// Error impossible: ids come from the enabled scan.
		_ = w.DisableNode(enabled[i])
	}
	return len(picks)
}

// FailRegion disables every enabled node within radius of center,
// modelling the jamming attack of Xu et al. [8] that depletes node density
// in an area. It returns the number of nodes disabled.
func FailRegion(w *network.Network, center geom.Point, radius float64) int {
	hit := w.NodesWithin(nil, center, radius)
	for _, id := range hit {
		_ = w.DisableNode(id)
	}
	return len(hit)
}

// FailCells empties the given cells entirely, the direct way to create a
// deterministic set of holes. It returns the number of nodes disabled.
func FailCells(w *network.Network, cells []grid.Coord) int {
	n := 0
	for _, c := range cells {
		n += w.DisableAllInCell(c)
	}
	return n
}

// FailDepleted disables every enabled node whose movement energy account
// exceeds budget, modelling battery depletion after extended mobility. It
// returns the number of nodes disabled.
func FailDepleted(w *network.Network, budget float64) int {
	n := 0
	for id := node.ID(0); int(id) < w.NumNodes(); id++ {
		nd := w.Node(id)
		if nd.Enabled() && nd.EnergySpent() > budget {
			_ = w.DisableNode(id)
			n++
		}
	}
	return n
}

// PickHoleCells chooses count distinct cells uniformly at random to become
// holes. When avoidAdjacent is set, no two chosen cells are edge-adjacent,
// which keeps each hole's replacement walk initially independent.
//
// The picks are the first admissible cells of a uniform permutation of
// the cell indices, of which only the prefix that can be scanned is
// held. Without avoidAdjacent that is count entries. With it, every
// scanned cell is either picked or a neighbour of an earlier pick, and
// each pick rules out at most 4 neighbours, so a scan of 5*count entries
// always completes the set; fewer picks than count can happen only after
// the whole permutation was scanned.
func PickHoleCells(sys *grid.System, count int, avoidAdjacent bool, rng *randx.Rand) ([]grid.Coord, error) {
	n := sys.NumCells()
	if count < 0 || count > n {
		return nil, fmt.Errorf("deploy: cannot pick %d holes from %d cells", count, n)
	}
	scan := count
	if avoidAdjacent {
		scan = min(n, 5*count)
	}
	out := make([]grid.Coord, 0, count)
	for _, idx := range rng.PermPrefixInto(nil, n, scan) {
		if len(out) == count {
			break
		}
		c := sys.CoordAt(idx)
		if avoidAdjacent && slices.ContainsFunc(out, c.IsNeighbor) {
			continue
		}
		out = append(out, c)
	}
	if len(out) < count {
		return nil, fmt.Errorf("deploy: only %d/%d non-adjacent holes fit", len(out), count)
	}
	return out, nil
}

// Package deploy populates a network with sensor nodes and injects the
// failures that create coverage holes.
//
// Controlled builds the experimental configuration of the paper's
// Section 5 (one node per cell outside the holes, then an exact number
// of spares) and Resupply drops spares mid-run. Failure injectors model
// random node failure, the region-wide jamming attack of Xu et al. cited
// in the paper's introduction, and battery depletion proportional to
// distance traveled.
package deploy

import (
	"fmt"
	"slices"
	"sort"
	"unsafe"

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

// Controlled builds the experimental configuration of Section 5 with an
// exact spare budget into w, which must hold no nodes: every cell outside
// holeCells receives one node (the future head) at a uniform position,
// then spares additional nodes are scattered uniformly over the non-hole
// cells, and each cell elects its head as its nodes land
// (network.DeployNodeAt). The cells in holeCells stay empty, so the
// network ends with exactly len(holeCells) simultaneous holes and
// exactly spares spare nodes (the paper's N).
func Controlled(w *network.Network, spares int, holeCells []grid.Coord, rng *randx.Rand) error {
	var b Base
	if err := b.Place(w, spares, holeCells, rng, false); err != nil {
		return err
	}
	return b.AddSpares(w, spares, rng)
}

// Base is a Controlled deployment split at the spare count: the hole
// cells and the one node placed in every other cell, then the spares.
// Place builds the first half and AddSpares the second (Controlled is
// the two in turn). A recording Base also keeps every node it deployed,
// in id order — the placed nodes, then the spares in draw order — with
// its position and network.Landing, and the stream's state after the
// last. Replay deploys the placed nodes and a prefix of the spares into
// another empty network of the same geometry from the recording, with
// no draw, no cell lookup and no election distance, and draws only the
// spares past the recording. A campaign deploys one seed under many
// spare counts from one point of the stream, so the spares of a smaller
// count are the first spares of a larger one, and one recording serves
// them all. The zero value is empty; its buffers are reused from one
// Place to the next.
type Base struct {
	holes  holeRanks
	record bool              // the last Place recorded
	placed int               // recorded nodes Place placed; the rest are spares
	locs   []geom.Point      // recorded nodes, in id order
	landed []network.Landing // where each recorded node landed
	state  randx.State       // the stream right after the last recorded node
}

// Place validates holeCells, keeps them, and places one node uniformly
// in every other cell of w, which must hold no nodes, in index order,
// drawing from rng — the first half of Controlled. With record set it
// starts a recording (see Base) with the placed nodes and the stream's
// state after them; otherwise it drops any earlier one. spares only
// sizes the node columns for the AddSpares that follows.
func (b *Base) Place(w *network.Network, spares int, holeCells []grid.Coord, rng *randx.Rand, record bool) error {
	sys := w.System()
	b.record = false
	b.locs, b.landed = b.locs[:0], b.landed[:0]
	if w.NumNodes() != 0 {
		return fmt.Errorf("controlled deploy: network already holds %d nodes", w.NumNodes())
	}
	b.holes = slices.Grow(b.holes[:0], len(holeCells))
	for _, h := range holeCells {
		if !sys.Contains(h) {
			return fmt.Errorf("controlled deploy: hole %v off-grid", h)
		}
		b.holes = append(b.holes, sys.Index(h))
	}
	slices.Sort(b.holes)
	b.holes = slices.Compact(b.holes)
	occupied := b.occupied(sys)
	w.GrowNodes(occupied + max(spares, 0))
	at := func(c grid.Coord) geom.Point { return rng.InRect(sys.CellRect(c)) }
	var rec *[]network.Landing
	if record {
		b.reserve(occupied + max(spares, 0))
		rec = &b.landed
		at = func(c grid.Coord) geom.Point {
			p := rng.InRect(sys.CellRect(c))
			b.locs = append(b.locs, p)
			return p
		}
	}
	if err := w.AddOnePerCell(b.holes, at, rec); err != nil {
		b.locs, b.landed = b.locs[:0], b.landed[:0] // an off-field point: nothing to replay
		return fmt.Errorf("controlled deploy: %w", err)
	}
	b.record, b.placed = record, len(b.locs)
	if record {
		rng.Save(&b.state)
	}
	return nil
}

// AddSpares scatters spares nodes uniformly over the cells Place did not
// leave empty, drawing from rng, each electing as it lands — the second
// half of Controlled. A recording Base records them and the stream's
// state after them; when that fails, it keeps what it recorded before.
// HeadElected events, when w has an observer, fire
// here, once per head in cell index order.
func (b *Base) AddSpares(w *network.Network, spares int, rng *randx.Rand) error {
	if err := b.addSpares(w, spares, rng, b.record); err != nil {
		return err
	}
	w.AnnounceHeads()
	return nil
}

// Recorded returns how many spares the recording holds.
func (b *Base) Recorded() int { return len(b.locs) - b.placed }

// Replay deploys the recording into w, which must hold no nodes and
// have the geometry the recording was made on: the placed nodes and the
// first min(spares, Recorded()) spares, from the recording alone. The
// spares past the recording are drawn from rng, first moved to the
// recorded state, and are recorded too when extend is set; an extension
// that fails leaves the recording as it was. Afterwards w is as
// Controlled leaves it. rng is left where the last draw left it, or
// untouched when nothing was drawn: it is not where Controlled leaves
// it, so the caller must not read it again.
func (b *Base) Replay(w *network.Network, spares int, rng *randx.Rand, extend bool) error {
	if !b.record || w.NumNodes() != 0 {
		return fmt.Errorf("controlled deploy: replaying a recording of %d nodes (recorded: %v) into %d nodes",
			len(b.locs), b.record, w.NumNodes())
	}
	n := b.placed + min(max(spares, 0), b.Recorded())
	w.GrowNodes(b.placed + max(spares, 0))
	if err := w.AddPlaced(b.locs[:n], b.landed[:n]); err != nil {
		return err
	}
	if more := spares - (n - b.placed); more > 0 {
		rng.Restore(&b.state)
		if err := b.addSpares(w, more, rng, extend); err != nil {
			return err
		}
	}
	w.AnnounceHeads()
	return nil
}

// addSpares draws spares spares as AddSpares does, appending them to
// the recording when record is set and saving the stream's state after
// them. On an error it cuts the recording back to where it was.
func (b *Base) addSpares(w *network.Network, spares int, rng *randx.Rand, record bool) error {
	sys := w.System()
	occupied := b.occupied(sys)
	if occupied == 0 && spares > 0 {
		return fmt.Errorf("controlled deploy: no non-hole cells for %d spares", spares)
	}
	n := len(b.locs)
	if record {
		b.reserve(n + spares)
	}
	for i := 0; i < spares; i++ {
		c := sys.CoordAt(b.holes.cell(rng.Intn(occupied)))
		p := rng.InRect(sys.CellRect(c))
		l, err := w.DeployNodeAt(p)
		if err != nil {
			b.locs, b.landed = b.locs[:n], b.landed[:n]
			return fmt.Errorf("controlled deploy: %w", err)
		}
		if record {
			b.locs = append(b.locs, p)
			b.landed = append(b.landed, l)
		}
	}
	if record {
		rng.Save(&b.state)
	}
	return nil
}

// reserve makes room for n recorded nodes, growing the buffers to
// exactly n when they are smaller, so Bytes counts no slack that
// append's growth would add.
func (b *Base) reserve(n int) {
	if cap(b.locs) < n {
		b.locs = append(make([]geom.Point, 0, n), b.locs...)
	}
	if cap(b.landed) < n {
		b.landed = append(make([]network.Landing, 0, n), b.landed...)
	}
}

// Bytes returns the memory the Base holds once its recording has room
// for spares spares: the saved stream state and the buffers' capacity,
// grown to fit them if smaller. Bytes(0) is what it holds now.
func (b *Base) Bytes(spares int) int {
	nodes := b.placed + spares
	return int(unsafe.Sizeof(*b)) + cap(b.holes)*int(unsafe.Sizeof(0)) +
		max(cap(b.locs), nodes)*int(unsafe.Sizeof(geom.Point{})) +
		max(cap(b.landed), nodes)*int(unsafe.Sizeof(network.Landing(0)))
}

// occupied returns the number of cells outside the base's holes.
func (b *Base) occupied(sys *grid.System) int { return sys.NumCells() - len(b.holes) }

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

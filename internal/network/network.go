// Package network is the wireless-sensor-network substrate: a grid-indexed
// registry of mobile nodes with head election, vacancy tracking, a
// round-based synchronous engine, and 1-hop head-to-head messaging.
//
// The communication model follows the paper: with R = sqrt(5)*r every node
// can reach every node of the four edge-adjacent cells, so messages between
// heads of neighboring grids are delivered reliably, one round later.
//
// Storage is dense and columnar, packed where fields are read together.
// Node attributes live in a node.Store (a location column, a packed
// per-node record, an enabled bitset); cell membership is an intrusive
// linked list threaded through a single per-node next array. Each cell's
// list head, member count and head id share one 12-byte record, because
// every membership walk, count update and head lookup of a cell reads
// them together, and a replacement cascade visits cells a whole grid row
// apart — one cache line per cell instead of three. Occupancy and the
// vacancy journal's dedup marks are bitset words, so vacant-cell counts
// and scans are word-parallel popcounts instead of per-cell loops. All
// list and head references are stored biased by one (0 means none), which
// makes Reset a handful of memclrs rather than sentinel-fill loops.
package network

import (
	"fmt"
	"math/bits"
	"slices"

	"wsncover/internal/geom"
	"wsncover/internal/grid"
	"wsncover/internal/node"
	"wsncover/internal/randx"
)

// Message is a 1-hop control message between grid heads. Kind and Process
// are interpreted by the control scheme; the network only routes and
// counts.
type Message struct {
	// From and To are grid addresses; To must be From itself or an
	// edge-adjacent grid (1-hop constraint).
	From grid.Coord
	To   grid.Coord
	// Kind tags the message type for the receiving scheme.
	Kind int
	// Process carries the replacement-process identity.
	Process int
	// Hops carries the accumulated hop count of a cascading process.
	Hops int
	// Origin carries the grid the process was started for.
	Origin grid.Coord
}

// Observer receives network events as they happen: node movements,
// message sends, status changes, and head elections. Observers must not
// mutate the network. A nil observer disables tracing with no overhead.
type Observer interface {
	// NodeMoved fires after a node relocates.
	NodeMoved(id node.ID, from, to geom.Point, fromCell, toCell grid.Coord)
	// MessageSent fires after a control message is enqueued.
	MessageSent(m Message)
	// NodeDisabled fires after a node leaves the collaboration.
	NodeDisabled(id node.ID, cell grid.Coord)
	// HeadElected fires after a cell gains a head.
	HeadElected(id node.ID, cell grid.Coord)
	// RoundStarted fires when the synchronous clock advances.
	RoundStarted(round int)
}

// Network is the simulated WSN. It is not safe for concurrent use; the
// round engine is strictly sequential, mirroring the paper's round-based
// system model.
type Network struct {
	sys    *grid.System
	energy node.EnergyModel

	// store holds every node attribute as a dense parallel array.
	store node.Store
	// cells is the per-cell registry, indexed by cell index. Membership
	// is an intrusive singly linked list: cells[idx].first is the biased
	// id (id+1, 0 = empty) of one enabled node of the cell,
	// nextInCell[id] the biased id of the next member. New members are
	// pushed at the front; every consumer of a cell's membership is an
	// order-independent reduction (min-distance election, counts), so
	// list order is unobservable.
	cells      []cell
	nextInCell []int32
	// occ is the occupancy bitset: bit idx set iff cell idx has at least
	// one enabled node. VacantCount and VacantCells derive from it by
	// popcount over the complement.
	occ []uint64
	// occTailMask masks the last occ word's bits beyond NumCells.
	occTailMask uint64

	obs Observer

	// lossProb drops each sent message with this probability at delivery
	// time; lossRNG must be set when lossProb > 0. Held (requeued)
	// messages are local state, not radio traffic, and never drop.
	lossProb float64
	lossRNG  *randx.Rand

	round      int
	inbox      []Message
	outbox     []Message
	requeued   []Message
	msgsLost   int
	totalMoves int
	totalDist  float64

	// headCount is maintained incrementally: AllHeadsPresent and
	// TotalSpares are O(1) against it.
	headCount int

	// Vacancy journal: cells whose emptiness flipped since the last
	// DrainVacancyEvents, recorded once each (the dirty bitset dedups).
	// Event-driven hole detection consumes this instead of scanning every
	// cell per round.
	vacancyDirty  []uint64
	vacancyEvents []int32

	// idScratch backs DisableAllInCell so bulk failure injection does not
	// allocate a fresh id slice per call.
	idScratch []node.ID
	// bfsVisited/bfsQueue back HeadGraphConnected's search so the
	// per-trial connectivity check does not allocate O(cells) each call.
	bfsVisited []uint64
	bfsQueue   []int32
}

// cell is one cell's registry record. Its fields are read together by
// every membership walk, count update and head lookup of the cell.
type cell struct {
	// first is the biased id of the cell's first list member.
	first int32
	// count is the cell's enabled-node count.
	count int32
	// head is the biased id of the cell's head, 0 when it has none.
	head int32
}

// wordsFor returns the number of 64-bit words covering n bits.
func wordsFor(n int) int { return (n + 63) / 64 }

// New creates an empty network over the grid system.
func New(sys *grid.System, energy node.EnergyModel) *Network {
	n := sys.NumCells()
	tail := uint64(1)<<(uint(n)&63) - 1
	if n&63 == 0 {
		tail = ^uint64(0)
	}
	return &Network{
		sys:          sys,
		energy:       energy,
		cells:        make([]cell, n),
		occ:          make([]uint64, wordsFor(n)),
		occTailMask:  tail,
		vacancyDirty: make([]uint64, wordsFor(n)),
	}
}

// noteVacancyFlip records that cell idx transitioned between vacant and
// occupied. Each cell appears at most once per drain; consumers resync
// against IsVacant, so transitions that cancel out are harmless.
func (w *Network) noteVacancyFlip(idx int) {
	bit := uint64(1) << (uint(idx) & 63)
	if w.vacancyDirty[idx>>6]&bit == 0 {
		w.vacancyDirty[idx>>6] |= bit
		w.vacancyEvents = append(w.vacancyEvents, int32(idx))
	}
}

// DiscardVacancyEvents resets the vacancy journal without materializing
// the flipped cells. Controllers taking over a freshly deployed network
// use it to retire the deployment's events — one per cell, so a drain
// into a coord buffer would be the largest allocation of a pooled trial
// — before seeding their hole sets from VacantCells directly. When most
// cells flipped (the post-deployment case), the dirty bitset is cleared
// whole instead of bit by bit.
func (w *Network) DiscardVacancyEvents() {
	if len(w.vacancyEvents) >= len(w.vacancyDirty) {
		clear(w.vacancyDirty)
	} else {
		for _, idx := range w.vacancyEvents {
			w.vacancyDirty[idx>>6] &^= 1 << (uint32(idx) & 63)
		}
	}
	w.vacancyEvents = w.vacancyEvents[:0]
}

// VacancyFlipPending reports whether cell c has a journal event not yet
// drained. Auditors use it to recognize legitimately stale consumer
// state: a hole filled after the consumer's last drain is resynced at
// the next one, so a pending flip is lag, not disagreement.
func (w *Network) VacancyFlipPending(c grid.Coord) bool {
	idx := w.sys.Index(c)
	return w.vacancyDirty[idx>>6]&(1<<(uint(idx)&63)) != 0
}

// DrainVacancyEvents appends to dst the cells whose vacancy state changed
// since the last drain, sorted by cell index for deterministic
// consumption, resets the journal, and returns the extended slice. A cell
// is reported at most once per drain even after several flips; callers
// must check IsVacant for its current state.
func (w *Network) DrainVacancyEvents(dst []grid.Coord) []grid.Coord {
	if len(w.vacancyEvents) == 0 {
		return dst
	}
	slices.Sort(w.vacancyEvents)
	for _, idx := range w.vacancyEvents {
		w.vacancyDirty[idx>>6] &^= 1 << (uint32(idx) & 63)
		dst = append(dst, w.sys.CoordAt(int(idx)))
	}
	w.vacancyEvents = w.vacancyEvents[:0]
	return dst
}

// Reset restores the network in place to the pristine state New would
// produce — no nodes, every cell vacant, clocks, queues, counters, and
// the vacancy journal zeroed — without allocating. The observer and the
// lossy-radio configuration are cleared too (New leaves both unset);
// re-attach them after Reset when needed. Every buffer keeps its
// capacity, and thanks to the biased-reference storage the per-cell state
// clears by memclr, so a Reset-then-redeploy cycle of the same population
// reuses all of the previous trial's memory. Pooled replicate engines
// (sim.TrialArena) call this between trials instead of rebuilding the
// world.
func (w *Network) Reset() {
	clear(w.cells)
	clear(w.occ)
	clear(w.vacancyDirty)
	w.vacancyEvents = w.vacancyEvents[:0]
	w.store.Reset()
	w.nextInCell = w.nextInCell[:0]
	w.obs = nil
	w.lossProb = 0
	w.lossRNG = nil
	w.round = 0
	w.inbox = w.inbox[:0]
	w.outbox = w.outbox[:0]
	w.requeued = w.requeued[:0]
	w.msgsLost = 0
	w.totalMoves = 0
	w.totalDist = 0
	w.headCount = 0
}

// System returns the underlying grid system.
func (w *Network) System() *grid.System { return w.sys }

// EnergyModel returns the movement energy model.
func (w *Network) EnergyModel() node.EnergyModel { return w.energy }

// SetObserver attaches an event observer (nil detaches). Typically set
// before the simulation starts; see the trace package.
func (w *Network) SetObserver(o Observer) { w.obs = o }

// SetMessageLoss makes the radio lossy: every sent message is dropped
// with probability p at delivery time. rng is required when p > 0.
func (w *Network) SetMessageLoss(p float64, rng *randx.Rand) error {
	if p < 0 || p >= 1 {
		return fmt.Errorf("network: loss probability %v outside [0, 1)", p)
	}
	if p > 0 && rng == nil {
		return fmt.Errorf("network: loss probability %v needs an RNG", p)
	}
	w.lossProb = p
	w.lossRNG = rng
	return nil
}

// MessagesLost returns the number of messages dropped by the lossy radio.
func (w *Network) MessagesLost() int { return w.msgsLost }

// AddNodeAt creates an enabled spare node at p and registers it. It
// returns an error when p lies outside the surveillance field. The
// store's arrays and the membership list grow by appends, so redeploying
// a pooled network allocates only when it grows past its high-water mark.
func (w *Network) AddNodeAt(p geom.Point) (node.ID, error) {
	id, idx, err := w.add(p)
	if err != nil {
		return node.Invalid, err
	}
	w.link(id, idx)
	return id, nil
}

// add appends an enabled spare node at p to the store, with a slot in
// the membership list, and returns its id and the index of the cell p
// lies in, which it has yet to be linked into.
func (w *Network) add(p geom.Point) (node.ID, int, error) {
	c, ok := w.sys.CoordOf(p)
	if !ok {
		return node.Invalid, 0, fmt.Errorf("network: point %v outside field %v", p, w.sys.Bounds())
	}
	id := w.store.Add(p)
	w.nextInCell = append(w.nextInCell, 0)
	return id, w.sys.Index(c), nil
}

// link pushes node id onto the membership list of cell idx, counts it,
// and marks and journals the cell occupied when it was vacant.
// nextInCell must already hold a slot for id.
func (w *Network) link(id node.ID, idx int) {
	cl := &w.cells[idx]
	w.nextInCell[id] = cl.first
	cl.first = int32(id) + 1
	if cl.count == 0 {
		w.occ[idx>>6] |= 1 << (uint(idx) & 63)
		w.noteVacancyFlip(idx)
	}
	cl.count++
}

// Landing records where a deployed node registered and whether it took
// its cell's head as it landed: the cell index, complemented when it
// did. AddPlaced replays a sequence of them.
type Landing int32

// Cell returns the index of the cell the node registered in.
func (l Landing) Cell() int {
	if l < 0 {
		return int(^l)
	}
	return int(l)
}

// Head reports whether the node took its cell's head as it landed.
func (l Landing) Head() bool { return l < 0 }

// DeployNodeAt adds an enabled node at p, as AddNodeAt does, and elects
// as it lands: the first member of a cell becomes its head, and a later
// one displaces the head only when it is strictly nearer the cell's
// centre. A newcomer has the highest id, so that is electLocked's rule
// (the nearest member, ties to the lower id), kept member by member.
// Deployed into a network without nodes, a sequence of nodes therefore
// ends with the heads, roles and head count that AddNodeAt for each and
// then ElectHeads would leave, without the pass over every cell. No
// HeadElected event fires; AnnounceHeads sends them once deployment
// ends. It returns the node's Landing.
func (w *Network) DeployNodeAt(p geom.Point) (Landing, error) {
	id, idx, err := w.add(p)
	if err != nil {
		return 0, err
	}
	return w.land(id, idx, node.Spare), nil
}

// land registers node id, whose record holds the role preset, in cell
// idx and elects as DeployNodeAt describes, writing only the roles the
// election changes: a bulk deployment whose nodes nearly all take their
// cell's head presets Head and leaves their records alone. It links the
// node as link does, written out so that a deployment pays one call per
// node.
func (w *Network) land(id node.ID, idx int, preset node.Role) Landing {
	cl := &w.cells[idx]
	w.nextInCell[id] = cl.first
	cl.first = int32(id) + 1
	if cl.count++; cl.count == 1 {
		w.occ[idx>>6] |= 1 << (uint(idx) & 63)
		w.noteVacancyFlip(idx)
	}
	if h := cl.head; h != 0 {
		center := w.sys.Center(w.sys.CoordAt(idx))
		if w.store.Ref(id).Location().Dist2(center) >= w.store.Ref(node.ID(h-1)).Location().Dist2(center) {
			if preset != node.Spare {
				w.store.Ref(id).SetRole(node.Spare)
			}
			return Landing(idx)
		}
		w.store.Ref(node.ID(h - 1)).SetRole(node.Spare)
	} else {
		w.headCount++
	}
	cl.head = int32(id) + 1
	if preset != node.Head {
		w.store.Ref(id).SetRole(node.Head)
	}
	return ^Landing(idx)
}

// crown makes node id, a member of cell idx, the cell's head, demoting
// the head it displaces.
func (w *Network) crown(id node.ID, idx int) {
	cl := &w.cells[idx]
	if cl.head != 0 {
		w.store.Ref(node.ID(cl.head - 1)).SetRole(node.Spare)
	} else {
		w.headCount++
	}
	cl.head = int32(id) + 1
	w.store.Ref(id).SetRole(node.Head)
}

// AnnounceHeads sends HeadElected for every head, in cell index order:
// the events ElectHeads sends after a deployment into a network without
// nodes, for a deployment that elected as nodes landed. Without an
// observer it does nothing.
func (w *Network) AnnounceHeads() {
	if w.obs == nil {
		return
	}
	for idx := range w.cells {
		if h := w.cells[idx].head; h != 0 {
			w.obs.HeadElected(node.ID(h-1), w.sys.CoordAt(idx))
		}
	}
}

// AddOnePerCell deploys one node into every cell whose index is not in
// skip, visiting cells in index order and placing each node at the point
// at returns for its cell. It is equivalent to calling
// DeployNodeAt(at(c)) for those cells in that order — same ids,
// registry, heads and vacancy journal; each point registers in the cell
// grid.CoordOf assigns it, which for a point on a cell edge need not be
// c — but grows the node columns once and fills them in bulk instead of
// appending node by node. With rec non-nil, each node's Landing is
// appended to *rec. skip may be unsorted and hold duplicates; it is
// sorted in place. When a point lies outside the field, the nodes before
// it stay added and an error is returned, as DeployNodeAt would.
func (w *Network) AddOnePerCell(skip []int, at func(c grid.Coord) geom.Point, rec *[]Landing) error {
	n := w.sys.NumCells()
	if !slices.IsSorted(skip) {
		slices.Sort(skip)
	}
	distinct := 0
	for i, idx := range skip {
		if idx < 0 || idx >= n {
			return fmt.Errorf("network: skipped cell index %d outside [0, %d)", idx, n)
		}
		if i == 0 || idx != skip[i-1] {
			distinct++
		}
	}
	first := w.store.Len()
	locs := w.store.Extend(n-distinct, node.Head)
	w.nextInCell = slices.Grow(w.nextInCell, len(locs))[:first+len(locs)]
	id, next, idx := first, 0, -1
	for y := 0; y < w.sys.Rows(); y++ {
		for x := 0; x < w.sys.Cols(); x++ {
			idx++
			if next < len(skip) && skip[next] == idx {
				for next < len(skip) && skip[next] == idx {
					next++
				}
				continue
			}
			p := at(grid.C(x, y))
			c, ok := w.sys.CoordOf(p)
			if !ok {
				w.store.Truncate(id)
				w.nextInCell = w.nextInCell[:id]
				return fmt.Errorf("network: point %v outside field %v", p, w.sys.Bounds())
			}
			locs[id-first] = p
			l := w.land(node.ID(id), w.sys.Index(c), node.Head)
			if rec != nil {
				*rec = append(*rec, l)
			}
			id++
		}
	}
	return nil
}

// AddPlaced adds one enabled node per entry of locs, node i at locs[i]
// with the Landing landed[i], in order: the replay of a recorded
// deployment (AddOnePerCell and DeployNodeAt). Replayed onto a network
// in the state the recording started from, it ends exactly as the
// recording did — same ids, node columns, registry, heads, occupancy and
// vacancy journal — without a CoordOf or a distance per node.
func (w *Network) AddPlaced(locs []geom.Point, landed []Landing) error {
	if len(locs) != len(landed) {
		return fmt.Errorf("network: %d placed nodes with %d landings", len(locs), len(landed))
	}
	first := w.store.Len()
	copy(w.store.Extend(len(locs), node.Spare), locs)
	w.nextInCell = slices.Grow(w.nextInCell, len(locs))[:first+len(locs)]
	for i, l := range landed {
		id, idx := node.ID(first+i), l.Cell()
		w.link(id, idx)
		if l.Head() {
			w.crown(id, idx)
		}
	}
	return nil
}

// GrowNodes ensures capacity for n more nodes, so a deployment that
// knows its population up front fills the node columns and the
// membership list without reallocating them.
func (w *Network) GrowNodes(n int) {
	if n <= 0 {
		return
	}
	w.store.Grow(n)
	w.nextInCell = slices.Grow(w.nextInCell, n)
}

// Node returns the handle of the node with the given id; the handle of an
// out-of-range id reports !Valid().
func (w *Network) Node(id node.ID) node.Ref { return w.store.Ref(id) }

// NumNodes returns the total number of nodes ever added, enabled or not.
func (w *Network) NumNodes() int { return w.store.Len() }

// EnabledCount returns the number of enabled nodes, popcounted from the
// store's enabled bitset words.
func (w *Network) EnabledCount() int { return w.store.EnabledCount() }

// removeFromCell unlinks id from the cell's membership list.
func (w *Network) removeFromCell(id node.ID, c grid.Coord) {
	idx := w.sys.Index(c)
	cl := &w.cells[idx]
	b := int32(id) + 1
	if cl.first == b {
		cl.first = w.nextInCell[id]
	} else {
		prev := cl.first
		for prev != 0 && w.nextInCell[prev-1] != b {
			prev = w.nextInCell[prev-1]
		}
		if prev != 0 {
			w.nextInCell[prev-1] = w.nextInCell[id]
		}
	}
	cl.count--
	if cl.count == 0 {
		w.occ[idx>>6] &^= 1 << (uint(idx) & 63)
		w.noteVacancyFlip(idx)
	}
	if cl.head == b {
		cl.head = 0
		w.headCount--
		w.electLocked(c)
	}
}

// DisableNode removes a node from the collaboration (failure or
// misbehavior). If it was a head, a remaining enabled node of the cell is
// elected in its place; if none exists the cell becomes vacant.
func (w *Network) DisableNode(id node.ID) error {
	nd := w.Node(id)
	if !nd.Valid() {
		return fmt.Errorf("network: unknown node %d", id)
	}
	if !nd.Enabled() {
		return nil
	}
	c, _ := w.sys.CoordOf(nd.Location())
	nd.Disable()
	nd.SetRole(node.Spare)
	w.removeFromCell(id, c)
	if w.obs != nil {
		w.obs.NodeDisabled(id, c)
	}
	return nil
}

// DisableAllInCell disables every enabled node of cell c, creating a hole.
// It returns the number of nodes disabled. The iteration snapshot lives in
// a network-owned scratch buffer, so repeated failure injection does not
// allocate.
func (w *Network) DisableAllInCell(c grid.Coord) int {
	idx := w.sys.Index(c)
	w.idScratch = w.idScratch[:0]
	for cur := w.cells[idx].first; cur != 0; cur = w.nextInCell[cur-1] {
		w.idScratch = append(w.idScratch, node.ID(cur-1))
	}
	for _, id := range w.idScratch {
		// Error impossible: ids come from the enabled registry.
		_ = w.DisableNode(id)
	}
	return len(w.idScratch)
}

// electLocked promotes one enabled node of c to head when the cell has
// none. The node closest to the cell center is chosen, the natural
// candidate for the surveillance duty; ties break on the lower id for
// determinism.
func (w *Network) electLocked(c grid.Coord) node.ID {
	idx := w.sys.Index(c)
	if h := w.cells[idx].head; h != 0 {
		return node.ID(h - 1)
	}
	center := w.sys.Center(c)
	best := node.Invalid
	bestD := 0.0
	for cur := w.cells[idx].first; cur != 0; cur = w.nextInCell[cur-1] {
		id := node.ID(cur - 1)
		d := w.store.Ref(id).Location().Dist2(center)
		if best == node.Invalid || d < bestD || (d == bestD && id < best) {
			best, bestD = id, d
		}
	}
	if best != node.Invalid {
		w.cells[idx].head = int32(best) + 1
		w.headCount++
		w.store.Ref(best).SetRole(node.Head)
		for cur := w.cells[idx].first; cur != 0; cur = w.nextInCell[cur-1] {
			if id := node.ID(cur - 1); id != best {
				w.store.Ref(id).SetRole(node.Spare)
			}
		}
		if w.obs != nil {
			w.obs.HeadElected(best, c)
		}
	}
	return best
}

// ElectHeads runs head election in every cell that lacks a head,
// establishing the invariant that a cell is vacant iff it has no enabled
// nodes. Cells are visited in index order. Empty and headed cells are
// skipped on their record alone, and a cell with a single member
// promotes it directly — the only candidate the election could pick —
// so the pass over a freshly deployed field reads each cell once.
func (w *Network) ElectHeads() {
	for idx := range w.cells {
		cl := &w.cells[idx]
		switch {
		case cl.count == 0 || cl.head != 0:
		case cl.count == 1:
			id := node.ID(cl.first - 1)
			cl.head = cl.first
			w.headCount++
			w.store.Ref(id).SetRole(node.Head)
			if w.obs != nil {
				w.obs.HeadElected(id, w.sys.CoordAt(idx))
			}
		default:
			w.electLocked(w.sys.CoordAt(idx))
		}
	}
}

// HeadOf returns the head of cell c, or node.Invalid when vacant.
func (w *Network) HeadOf(c grid.Coord) node.ID {
	return node.ID(w.cells[w.sys.Index(c)].head - 1)
}

// IsVacant reports whether cell c has no enabled nodes. Under the election
// invariant this coincides with having no head.
func (w *Network) IsVacant(c grid.Coord) bool {
	idx := w.sys.Index(c)
	return w.occ[idx>>6]&(1<<(uint(idx)&63)) == 0
}

// SpareCount returns the number of spare nodes in cell c.
func (w *Network) SpareCount(c grid.Coord) int {
	cl := &w.cells[w.sys.Index(c)]
	if cl.head == 0 {
		return int(cl.count)
	}
	return int(cl.count) - 1
}

// HasSpare reports whether cell c holds at least one spare node.
func (w *Network) HasSpare(c grid.Coord) bool { return w.SpareCount(c) > 0 }

// TotalSpares returns the number of spare nodes in the whole network (the
// paper's N). Every enabled node that is not a cell head is a spare.
func (w *Network) TotalSpares() int { return w.EnabledCount() - w.headCount }

// SpareNearest returns the spare of cell c whose location is closest to
// target, or node.Invalid when the cell has no spare. Ties break on the
// lower id. A cell holding only its head — the common case along a
// cascade — is answered from its record without walking the list.
func (w *Network) SpareNearest(c grid.Coord, target geom.Point) node.ID {
	cl := &w.cells[w.sys.Index(c)]
	if cl.count == 0 || cl.count == 1 && cl.head != 0 {
		return node.Invalid
	}
	best := node.Invalid
	bestD := 0.0
	for cur := cl.first; cur != 0; cur = w.nextInCell[cur-1] {
		if cur == cl.head {
			continue
		}
		id := node.ID(cur - 1)
		d := w.store.Ref(id).Location().Dist2(target)
		if best == node.Invalid || d < bestD || (d == bestD && id < best) {
			best, bestD = id, d
		}
	}
	return best
}

// VacantCells appends the addresses of all vacant cells to dst in index
// order and returns the extended slice, scanning the complement of the
// occupancy bitset word by word. Pass nil for a fresh slice or a recycled
// buffer to avoid the allocation.
func (w *Network) VacantCells(dst []grid.Coord) []grid.Coord {
	last := len(w.occ) - 1
	for wi, word := range w.occ {
		inv := ^word
		if wi == last {
			inv &= w.occTailMask
		}
		for inv != 0 {
			idx := wi<<6 + bits.TrailingZeros64(inv)
			dst = append(dst, w.sys.CoordAt(idx))
			inv &= inv - 1
		}
	}
	return dst
}

// VacantCount returns the number of vacant cells, popcounted from the
// occupancy bitset words.
func (w *Network) VacantCount() int {
	occupied := 0
	for _, word := range w.occ {
		occupied += bits.OnesCount64(word)
	}
	return w.sys.NumCells() - occupied
}

// CentralTarget draws a uniform random point in the central area of cell
// c, the destination rule of the paper's mobility control.
func (w *Network) CentralTarget(c grid.Coord, rng *randx.Rand) geom.Point {
	return rng.InRect(w.sys.CentralArea(c))
}

// MoveNodeDist relocates an enabled node to target, maintaining the cell
// registry, head roles, and the movement accounting, and returns the
// distance moved. If the destination cell has no head the mover is
// promoted on arrival; if the origin cell retains enabled nodes a new head
// is elected there. The distance is computed exactly once (by the node's
// MoveTo) and shared with the caller, so controllers charging per-move
// metrics do not redo the square root.
func (w *Network) MoveNodeDist(id node.ID, target geom.Point) (float64, error) {
	nd := w.Node(id)
	if !nd.Valid() {
		return 0, fmt.Errorf("network: unknown node %d", id)
	}
	from, ok := w.sys.CoordOf(nd.Location())
	if !ok {
		return 0, fmt.Errorf("network: node %d off-field at %v", id, nd.Location())
	}
	to, ok := w.sys.CoordOf(target)
	if !ok {
		return 0, fmt.Errorf("network: move target %v outside field", target)
	}
	before := nd.Location()
	dist, err := nd.MoveTo(target, w.energy)
	if err != nil {
		return 0, err
	}
	w.totalMoves++
	w.totalDist += dist
	if from != to {
		w.removeFromCell(id, from)
		idx := w.sys.Index(to)
		w.link(id, idx)
		if cl := &w.cells[idx]; cl.head == 0 {
			cl.head = int32(id) + 1
			w.headCount++
			nd.SetRole(node.Head)
			if w.obs != nil {
				w.obs.HeadElected(id, to)
			}
		} else {
			nd.SetRole(node.Spare)
		}
	}
	if w.obs != nil {
		w.obs.NodeMoved(id, before, target, from, to)
	}
	return dist, nil
}

// TotalMoves returns the number of node movements performed so far.
func (w *Network) TotalMoves() int { return w.totalMoves }

// TotalDistance returns the total moving distance accumulated so far.
func (w *Network) TotalDistance() float64 { return w.totalDist }

// Round returns the current round number, starting at 0.
func (w *Network) Round() int { return w.round }

// Send enqueues a 1-hop message for delivery at the start of the next
// round. Sending to a non-adjacent grid is a programming error of the
// scheme and is rejected.
func (w *Network) Send(m Message) error {
	if m.From != m.To && !m.From.IsNeighbor(m.To) {
		return fmt.Errorf("network: message %v -> %v exceeds 1-hop range", m.From, m.To)
	}
	if !w.sys.Contains(m.From) || !w.sys.Contains(m.To) {
		return fmt.Errorf("network: message %v -> %v off-grid", m.From, m.To)
	}
	w.outbox = append(w.outbox, m)
	if w.obs != nil {
		w.obs.MessageSent(m)
	}
	return nil
}

// StepRound advances the synchronous clock: messages sent during the
// previous round become deliverable now.
func (w *Network) StepRound() {
	w.round++
	w.inbox = w.inbox[:0]
	for _, m := range w.outbox {
		if w.lossProb > 0 && w.lossRNG.Bool(w.lossProb) {
			w.msgsLost++
			continue
		}
		w.inbox = append(w.inbox, m)
	}
	w.outbox = w.outbox[:0]
	w.inbox = append(w.inbox, w.requeued...)
	w.requeued = w.requeued[:0]
	if w.obs != nil {
		w.obs.RoundStarted(w.round)
	}
}

// Inbox returns the messages deliverable in the current round. The slice
// is owned by the network and valid until the next StepRound; schemes must
// not retain it.
func (w *Network) Inbox() []Message { return w.inbox }

// RequeueMessage re-enqueues a message for the next round without charging
// the message counter, modelling a head that holds a notification because
// the addressee grid is still vacant. Held messages are local state and
// are never subject to radio loss.
func (w *Network) RequeueMessage(m Message) {
	w.requeued = append(w.requeued, m)
}

// HeadGraphConnected reports whether the cells with heads form a single
// connected component under grid adjacency. With R = sqrt(5)*r this is
// exactly the connectivity of the head overlay network. A network with no
// heads at all is trivially disconnected; a single head is connected.
func (w *Network) HeadGraphConnected() bool {
	total := w.headCount
	if total == 0 {
		return false
	}
	if total == len(w.cells) {
		// Every cell holds a head: the head graph is the full
		// rectangular grid graph, which is connected.
		return true
	}
	return w.headGraphSearch() == total
}

// headGraphSearch returns the number of head cells reachable from the
// lowest-index head cell under grid adjacency; there must be one. It
// walks cell indices: ±1 within a row, ±cols across rows.
func (w *Network) headGraphSearch() int {
	start := -1
	for idx := range w.cells {
		if w.cells[idx].head != 0 {
			start = idx
			break
		}
	}
	if cap(w.bfsVisited) < wordsFor(len(w.cells)) {
		w.bfsVisited = make([]uint64, wordsFor(len(w.cells)))
	}
	visited := w.bfsVisited[:wordsFor(len(w.cells))]
	clear(visited)
	queue := append(w.bfsQueue[:0], int32(start))
	visited[start>>6] |= 1 << (uint(start) & 63)
	reached := 1
	cols := w.sys.Cols()
	visit := func(nidx int) {
		bit := uint64(1) << (uint(nidx) & 63)
		if w.cells[nidx].head != 0 && visited[nidx>>6]&bit == 0 {
			visited[nidx>>6] |= bit
			reached++
			queue = append(queue, int32(nidx))
		}
	}
	for head := 0; head < len(queue); head++ {
		idx := int(queue[head])
		x := idx % cols
		if idx+cols < len(w.cells) {
			visit(idx + cols)
		}
		if x+1 < cols {
			visit(idx + 1)
		}
		if idx >= cols {
			visit(idx - cols)
		}
		if x > 0 {
			visit(idx - 1)
		}
	}
	w.bfsQueue = queue[:0]
	return reached
}

// AllHeadsPresent reports whether every cell has a head, the paper's
// complete-coverage condition. O(1) against the head counter.
func (w *Network) AllHeadsPresent() bool { return w.headCount == w.sys.NumCells() }

// NodesWithin appends to dst the ids of enabled nodes within radius of p,
// using the cell index to restrict the search.
func (w *Network) NodesWithin(dst []node.ID, p geom.Point, radius float64) []node.ID {
	r2 := radius * radius
	cells := int(radius/w.sys.CellSize()) + 1
	center, ok := w.sys.CoordOf(w.sys.Bounds().Clamp(p))
	if !ok {
		return dst
	}
	for dx := -cells; dx <= cells; dx++ {
		for dy := -cells; dy <= cells; dy++ {
			c := grid.C(center.X+dx, center.Y+dy)
			if !w.sys.Contains(c) {
				continue
			}
			idx := w.sys.Index(c)
			for cur := w.cells[idx].first; cur != 0; cur = w.nextInCell[cur-1] {
				id := node.ID(cur - 1)
				if w.store.Ref(id).Location().Dist2(p) <= r2 {
					dst = append(dst, id)
				}
			}
		}
	}
	return dst
}

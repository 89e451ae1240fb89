// Package ar implements the AR baseline: the localized, 1-hop
// replacement scheme of Jiang et al. [3] ("Topology control for secured
// coverage in WSNs", WSNS'07), the best previously known movement-assisted
// hole-repair method and the paper's comparison target.
//
// AR detects holes with 1-hop monitoring only, without the Hamilton-cycle
// synchronization of SR. Consequences reproduced here, as described in the
// paper's Sections 1 and 5:
//
//   - Redundant processes: every head neighboring a hole may initiate its
//     own snake-like replacement, so a single hole typically triggers
//     several concurrent processes (SR needs fewer than half as many).
//   - Bounded local search: each cascade is a greedy self-avoiding walk
//     over 1-hop knowledge that prefers neighbors with spares; it gives up
//     when stuck or past its hop budget, so 10-20% of processes fail in
//     sparse networks, where SR still succeeds.
//   - Unnecessary movements: processes racing for the same hole all
//     complete their movements; later arrivals are wasted.
//   - Abandoned vacancies: a failed process has already moved heads along
//     its cascade; the vacancy it was carrying stays behind, so AR can end
//     with the original hole filled but a displaced hole elsewhere — the
//     robustness gap the paper reports for sparse networks.
//
// The exact pseudo-code of [3] is not reproduced in the paper, so this
// model is calibrated to the behavior the paper reports for AR, and
// TestPaperClaims in the sim package checks that calibration on the
// paper's 16x16 configuration.
//
// Substitutions. Where [3] is unspecified, the model substitutes:
//
//   - Initiation: each head next to a newly observed hole starts a
//     process with probability InitProb (DefaultInitProb 0.65), and one
//     of them is drawn when none does, for the unsynchronized
//     detection's redundancy. 0.65 reproduces "SR needs fewer than
//     half of AR's processes".
//   - Search: a greedy self-avoiding walk over 1-hop knowledge. Each
//     step goes to an unvisited, occupied, non-departing neighbor,
//     preferring one with a spare, ties broken uniformly at random.
//   - Horizon: a process fails past MaxHops hops (DefaultMaxHops 6) or
//     when the walk is stuck. Six hops reproduces the paper's 10-20%
//     failure band below N = 55 on the 16x16 grid.
//   - Suppression: a departing head's grid is claimed by its process,
//     so other processes neither detect it as a hole nor route through
//     it. Processes racing for one hole are not suppressed.
//
// Controller state is struct-of-arrays, mirroring the core package:
// processes live in a dense pid-indexed table whose visited sets share
// one flat arena (each process visits at most MaxHops grids), and the
// claim, detected, departing, and standing-hole registries are per-cell
// columns and bitsets. A Scratch pools everything across trials.
package ar

import (
	"fmt"
	"math/bits"
	"slices"

	"wsncover/internal/dense"
	"wsncover/internal/grid"
	"wsncover/internal/metrics"
	"wsncover/internal/network"
	"wsncover/internal/node"
	"wsncover/internal/randx"
)

// MsgCascade is the AR cascade notification kind. It is distinct from the
// SR kind so traces can interleave.
const MsgCascade = 2

// DefaultInitProb is the default probability that a head neighboring a
// freshly observed hole starts its own replacement process. Values near
// 0.65 reproduce the paper's report that SR needs fewer than 50% of AR's
// processes (AR averages well over two initiators per hole, counting
// boundary holes with fewer neighbors).
const DefaultInitProb = 0.65

// DefaultMaxHops is the default cascade hop budget, the "localized"
// search horizon of AR. Six hops reproduces the paper's low-density
// failure band (10-20% for N < 55 on the 16x16 grid).
const DefaultMaxHops = 6

// Config parameterizes the AR controller.
type Config struct {
	// RNG drives initiator sampling, tie-breaking, and destination
	// sampling. Required for reproducibility; defaults to seed 1.
	RNG *randx.Rand
	// InitProb is the per-neighbor initiation probability; at least one
	// neighbor always initiates. Zero means DefaultInitProb.
	InitProb float64
	// MaxHops is the cascade hop budget. Zero means DefaultMaxHops.
	MaxHops int
	// FullScanDetect selects the reference O(cells) per-round vacancy
	// scan instead of the event-driven detector fed by the network's
	// vacancy journal. The two are bit-identical (enforced by a lockstep
	// differential test); the full scan exists as the executable
	// specification and for benchmarking.
	FullScanDetect bool
	// Collector, when non-nil, is adopted as the metrics store after
	// being Reset; nil allocates a fresh one. Pooled trial arenas pass
	// their per-worker collector so replicates reuse its capacity.
	Collector *metrics.Collector
	// Scratch, when non-nil, supplies the controller's pooled state: New
	// reuses the scratch-held tables (cleared) instead of allocating, and
	// the returned controller aliases the scratch. At most one live
	// controller per scratch; building a new one invalidates the old.
	Scratch *Scratch
}

// Scratch pools one controller's dense state across trials. The zero
// value is ready to use.
type Scratch struct{ ctrl Controller }

// proc is one AR replacement process. Records live in a dense
// pid-indexed table; done marks finished entries. The self-avoiding
// walk's visited set lives in the controller's flat arena at stride
// MaxHops (a process visits one grid per hop and dies at the budget), so
// starting a process allocates nothing.
type proc struct {
	id   int
	hole grid.Coord
	cur  grid.Coord
	hops int
	nvis int32
	done bool
}

type departure struct {
	pid     int
	nodeID  node.ID
	from    grid.Coord
	vacancy grid.Coord
}

// Controller runs the AR scheme over a network. It is not safe for
// concurrent use.
type Controller struct {
	net *network.Network
	sys *grid.System
	rng *randx.Rand
	col *metrics.Collector

	initProb float64
	maxHops  int

	// procs is the dense process table, indexed by pid (the collector
	// hands out pids sequentially from zero per trial and the controller
	// is its only caller). active counts unfinished entries; visited is
	// the flat per-process visited arena, stride maxHops.
	procs   []proc
	active  int
	visited []grid.Coord

	// detected marks holes whose initiator set has been sampled.
	detected []uint64
	// claimPID marks travelling cascade vacancies owned by a process
	// (pid+1; 0 = unclaimed), the within-process suppression of [3] (a
	// departing head tells its neighbors its grid is being refilled).
	claimPID  []int32
	departing []uint64
	pending   []departure

	// fullScan selects the reference O(cells) detector.
	fullScan bool
	// holes is the event-driven detector's standing set of vacant cell
	// indices. Seeded from a one-time scan at construction, then
	// maintained from the network's vacancy journal, so per-round
	// detection is O(holes) instead of O(cells).
	holes dense.IndexSet

	// Scratch buffers reused across rounds so the hot loop does not
	// allocate: the inbox snapshot, the vacant-cell candidates (scanned
	// or journal-fed) and their sorted indices, the journal drain, and
	// the neighbor-classification lists of pickNext.
	inboxBuf []network.Message
	vacBuf   []grid.Coord
	idxBuf   []int32
	eventBuf []grid.Coord
	nbrBuf   []grid.Coord
	spareBuf []grid.Coord
	headBuf  []grid.Coord
	initsBuf []grid.Coord
	headsBuf []grid.Coord
}

// New creates an AR controller for the network.
func New(net *network.Network, cfg Config) *Controller {
	rng := cfg.RNG
	if rng == nil {
		rng = randx.New(1)
	}
	initProb := cfg.InitProb
	if initProb == 0 {
		initProb = DefaultInitProb
	}
	maxHops := cfg.MaxHops
	if maxHops == 0 {
		maxHops = DefaultMaxHops
	}
	col := cfg.Collector
	if col == nil {
		col = metrics.NewCollector()
	} else {
		col.Reset()
	}
	var c *Controller
	if cfg.Scratch != nil {
		c = &cfg.Scratch.ctrl
	} else {
		c = new(Controller)
	}
	n := net.System().NumCells()
	holes := c.holes
	holes.Reset(n)
	// Field-by-field reinit: slices keep their backing arrays (truncated
	// or cleared), everything else is overwritten, so a pooled controller
	// starts byte-identical to a fresh one.
	*c = Controller{
		net:      net,
		sys:      net.System(),
		rng:      rng,
		col:      col,
		initProb: initProb,
		maxHops:  maxHops,
		fullScan: cfg.FullScanDetect,

		procs:   c.procs[:0],
		visited: c.visited[:0],

		detected:  dense.Bits(c.detected, n),
		claimPID:  dense.Int32s(c.claimPID, n),
		departing: dense.Bits(c.departing, n),
		pending:   c.pending[:0],

		holes: holes,

		inboxBuf: c.inboxBuf[:0],
		vacBuf:   c.vacBuf[:0],
		idxBuf:   c.idxBuf[:0],
		eventBuf: c.eventBuf[:0],
		nbrBuf:   c.nbrBuf[:0],
		spareBuf: c.spareBuf[:0],
		headBuf:  c.headBuf[:0],
		initsBuf: c.initsBuf[:0],
		headsBuf: c.headsBuf[:0],
	}
	if !c.fullScan {
		// Seed the standing hole set from the network as handed over:
		// damage injected before the controller existed never produced
		// journal events this consumer saw. Stale pre-construction
		// events are discarded unseen (deployment journals one event per
		// cell — materializing them would dominate a pooled trial's
		// allocation); from here on the journal is authoritative.
		c.net.DiscardVacancyEvents()
		c.eventBuf = c.net.VacantCells(c.eventBuf[:0])
		for _, g := range c.eventBuf {
			c.holes.Add(c.sys.Index(g))
		}
	}
	return c
}

// Name identifies the scheme in experiment output.
func (c *Controller) Name() string { return "AR" }

// Collector exposes the metrics collected so far.
func (c *Controller) Collector() *metrics.Collector { return c.col }

// Done reports whether no replacement process is active.
func (c *Controller) Done() bool { return c.active == 0 }

// alive reports whether pid names a still-running process.
func (c *Controller) alive(pid int) bool {
	return pid >= 0 && pid < len(c.procs) && !c.procs[pid].done
}

// liveProc returns the record of a still-running process.
func (c *Controller) liveProc(pid int) (*proc, bool) {
	if !c.alive(pid) {
		return nil, false
	}
	return &c.procs[pid], true
}

// visitedHas reports whether the process has already walked through g.
func (c *Controller) visitedHas(p *proc, g grid.Coord) bool {
	base := p.id * c.maxHops
	for _, v := range c.visited[base : base+int(p.nvis)] {
		if v == g {
			return true
		}
	}
	return false
}

// markVisited records g in the process's visited set. pickNext only
// yields unvisited grids, so the set never exceeds its maxHops stride.
func (c *Controller) markVisited(p *proc, g grid.Coord) {
	c.visited[p.id*c.maxHops+int(p.nvis)] = g
	p.nvis++
}

// isDeparting reports whether the head of g is committed to a move.
func (c *Controller) isDeparting(g grid.Coord) bool { return dense.Has(c.departing, c.sys.Index(g)) }

// Step runs one synchronous round.
func (c *Controller) Step() error {
	c.net.StepRound()
	if err := c.executeDepartures(); err != nil {
		return err
	}
	if err := c.serveInbox(); err != nil {
		return err
	}
	return c.detect()
}

func (c *Controller) executeDepartures() error {
	pending := c.pending
	c.pending = c.pending[:0]
	for _, d := range pending {
		dense.Clear(c.departing, c.sys.Index(d.from))
		if nd := c.net.Node(d.nodeID); !nd.Valid() || !nd.Enabled() {
			// The committed head died before its scheduled move (mid-run
			// damage: a churn wave, depletion); the cascade cannot
			// continue and the process fails. Release the outstanding
			// vacancy — its claim and, for a first-hop death, its
			// detected mark — so detection samples it afresh.
			vidx := c.sys.Index(d.vacancy)
			if owner := c.claimPID[vidx]; owner != 0 && int(owner-1) == d.pid {
				c.claimPID[vidx] = 0
			}
			dense.Clear(c.detected, vidx)
			if p, ok := c.liveProc(d.pid); ok {
				c.finish(p, metrics.Failed)
			}
			continue
		}
		if err := c.moveInto(d.pid, d.nodeID, d.vacancy); err != nil {
			return err
		}
		if !c.net.IsVacant(d.from) {
			// The departed cell re-elected a head on the spot: a node that
			// arrived after the hand-off was committed (resupply) got
			// promoted when the old head left. Nothing is left to refill —
			// the cascade completes here instead of claiming an occupied
			// cell (a leak if the cascade later stalled).
			if p, ok := c.liveProc(d.pid); ok {
				c.finish(p, metrics.Converged)
			}
			continue
		}
		c.claimPID[c.sys.Index(d.from)] = int32(d.pid) + 1
	}
	return nil
}

// moveInto relocates a node into the vacancy cell. Unlike SR, the cell may
// already have been refilled by a rival process: the move still happens
// (redundant movement, the mover arrives as a spare).
func (c *Controller) moveInto(pid int, id node.ID, vacancy grid.Coord) error {
	nd := c.net.Node(id)
	if !nd.Valid() {
		return fmt.Errorf("ar: process %d references unknown node %d", pid, id)
	}
	target := c.net.CentralTarget(vacancy, c.rng)
	dist, err := c.net.MoveNodeDist(id, target)
	if err != nil {
		return fmt.Errorf("ar: process %d move: %w", pid, err)
	}
	c.col.RecordMove(pid, dist)
	vidx := c.sys.Index(vacancy)
	if owner := c.claimPID[vidx]; owner != 0 && int(owner-1) == pid {
		c.claimPID[vidx] = 0
	}
	// The refilled cell is no longer a sampled hole: if external damage
	// (a churn wave, depletion) vacates it again later, its initiator
	// set is sampled afresh. In a single-shot trial this is a no-op —
	// any cascade re-vacancy carries a claim, which shields it first.
	dense.Clear(c.detected, vidx)
	return nil
}

func (c *Controller) serveInbox() error {
	// Snapshot into a controller-owned buffer: serving may enqueue
	// (requeue) into the network's queues.
	c.inboxBuf = append(c.inboxBuf[:0], c.net.Inbox()...)
	for _, m := range c.inboxBuf {
		if m.Kind != MsgCascade {
			continue
		}
		p, ok := c.liveProc(m.Process)
		if !ok {
			continue
		}
		cur := m.To
		if c.net.HeadOf(cur) == node.Invalid || c.isDeparting(cur) {
			c.net.RequeueMessage(m)
			continue
		}
		p.cur = cur
		c.markVisited(p, cur)
		p.hops++
		c.col.RecordHop(p.id)
		if err := c.serveRequest(p, m.From); err != nil {
			return err
		}
	}
	return nil
}

// serveRequest lets the process's current grid supply a node for vacancy.
func (c *Controller) serveRequest(p *proc, vacancy grid.Coord) error {
	target := c.sys.Center(vacancy)
	if donor := c.net.SpareNearest(p.cur, target); donor != node.Invalid {
		if err := c.moveInto(p.id, donor, vacancy); err != nil {
			return err
		}
		c.finish(p, metrics.Converged)
		return nil
	}
	if p.hops >= c.maxHops {
		// Localized search horizon exceeded: AR gives up.
		c.finish(p, metrics.Failed)
		return nil
	}
	next, ok := c.pickNext(p)
	if !ok {
		// Self-avoiding walk is stuck: no unvisited occupied neighbor.
		c.finish(p, metrics.Failed)
		return nil
	}
	head := c.net.HeadOf(p.cur)
	if head == node.Invalid {
		return fmt.Errorf("ar: cascade at vacant grid %v", p.cur)
	}
	msg := network.Message{
		From:    p.cur,
		To:      next,
		Kind:    MsgCascade,
		Process: p.id,
		Hops:    p.hops,
		Origin:  p.hole,
	}
	if err := c.net.Send(msg); err != nil {
		return fmt.Errorf("ar: cascade notify: %w", err)
	}
	c.col.RecordMessage()
	dense.Set(c.departing, c.sys.Index(p.cur))
	c.pending = append(c.pending, departure{
		pid:     p.id,
		nodeID:  head,
		from:    p.cur,
		vacancy: vacancy,
	})
	return nil
}

// pickNext chooses the cascade's next grid among the unvisited occupied
// neighbors of the current grid, preferring grids with spares; ties break
// uniformly at random. It is the greedy self-avoiding step of AR's
// snake-like search.
func (c *Controller) pickNext(p *proc) (grid.Coord, bool) {
	withSpare, withHead := c.spareBuf[:0], c.headBuf[:0]
	c.nbrBuf = c.sys.Neighbors(c.nbrBuf[:0], p.cur)
	for _, nb := range c.nbrBuf {
		if c.visitedHas(p, nb) || nb == p.hole {
			continue
		}
		if c.net.HeadOf(nb) == node.Invalid || c.isDeparting(nb) {
			continue
		}
		if c.net.HasSpare(nb) {
			withSpare = append(withSpare, nb)
		} else {
			withHead = append(withHead, nb)
		}
	}
	c.spareBuf, c.headBuf = withSpare, withHead
	if len(withSpare) > 0 {
		return withSpare[c.rng.Intn(len(withSpare))], true
	}
	if len(withHead) > 0 {
		return withHead[c.rng.Intn(len(withHead))], true
	}
	return grid.Coord{}, false
}

// detect finds fresh holes and samples the initiator set of each: every
// neighboring head flips a coin, with at least one initiator forced (the
// redundancy of unsynchronized 1-hop detection).
//
// The candidate holes come either from the reference full scan or from
// the standing set maintained off the network's vacancy journal; the two
// visit the same cells in the same order (cell index), with every
// eligibility condition evaluated lazily at visit time, so the arms are
// bit-identical — enforced by the lockstep differential test.
func (c *Controller) detect() error {
	c.vacBuf = c.vacantCandidates()
	for _, v := range c.vacBuf {
		vidx := c.sys.Index(v)
		if dense.Has(c.detected, vidx) {
			continue
		}
		if c.claimPID[vidx] != 0 {
			continue
		}
		heads := c.headsBuf[:0]
		c.nbrBuf = c.sys.Neighbors(c.nbrBuf[:0], v)
		for _, nb := range c.nbrBuf {
			if c.net.HeadOf(nb) != node.Invalid && !c.isDeparting(nb) {
				heads = append(heads, nb)
			}
		}
		c.headsBuf = heads
		if len(heads) == 0 {
			continue // no observer yet; retry next round
		}
		initiators := c.initsBuf[:0]
		for _, h := range heads {
			if c.rng.Bool(c.initProb) {
				initiators = append(initiators, h)
			}
		}
		if len(initiators) == 0 {
			initiators = append(initiators, heads[c.rng.Intn(len(heads))])
		}
		c.initsBuf = initiators
		dense.Set(c.detected, vidx)
		for _, g := range initiators {
			if c.isDeparting(g) {
				continue
			}
			if err := c.initiate(g, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// vacantCandidates returns the current vacant cells in cell-index order.
// The full scan recomputes them from the cell registry, O(cells); the
// event-driven path folds the vacancy journal into the standing hole set
// and sorts it by index — the same order at O(holes) per round.
func (c *Controller) vacantCandidates() []grid.Coord {
	if c.fullScan {
		return c.net.VacantCells(c.vacBuf[:0])
	}
	c.eventBuf = c.net.DrainVacancyEvents(c.eventBuf[:0])
	for _, g := range c.eventBuf {
		if c.net.IsVacant(g) {
			c.holes.Add(c.sys.Index(g))
		} else {
			c.holes.Remove(c.sys.Index(g))
		}
	}
	c.idxBuf = append(c.idxBuf[:0], c.holes.Members()...)
	slices.Sort(c.idxBuf)
	buf := c.vacBuf[:0]
	for _, idx := range c.idxBuf {
		buf = append(buf, c.sys.CoordAt(int(idx)))
	}
	return buf
}

// initiate starts one AR process for the hole at v from the neighboring
// head grid g.
func (c *Controller) initiate(g, v grid.Coord) error {
	pid := c.col.StartProcess(v, c.net.Round())
	// Grow the flat visited arena by one process's stride; stale
	// contents past nvis are never read.
	need := (pid + 1) * c.maxHops
	if cap(c.visited) < need {
		c.visited = slices.Grow(c.visited, need-len(c.visited))
	}
	c.visited = c.visited[:need]
	c.procs = append(c.procs, proc{id: pid, hole: v, cur: g, hops: 1})
	c.active++
	p := &c.procs[pid]
	c.markVisited(p, g)
	c.col.RecordHop(pid)
	return c.serveRequest(p, v)
}

func (c *Controller) finish(p *proc, outcome metrics.Outcome) {
	c.col.Finish(p.id, outcome, c.net.Round())
	p.done = true
	c.active--
}

// Finalize marks all still-active processes failed; call it when a run
// hits its round budget.
func (c *Controller) Finalize() {
	for i := range c.procs {
		if p := &c.procs[i]; !p.done {
			c.finish(p, metrics.Failed)
		}
	}
}

// ResetFailed clears the claims of dead processes and the detected marks
// of still-vacant cells, so holes AR gave up on are sampled afresh —
// e.g. after new spares arrive in a dynamic scenario.
func (c *Controller) ResetFailed() {
	for idx, pid := range c.claimPID {
		if pid != 0 && !c.alive(int(pid-1)) {
			c.claimPID[idx] = 0
		}
	}
	for w, word := range c.detected {
		for word != 0 {
			idx := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if c.net.IsVacant(c.sys.CoordAt(idx)) {
				dense.Clear(c.detected, idx)
			}
		}
	}
}

// AuditClaims checks AR's bookkeeping invariants and returns sorted
// human-readable violations (empty = clean), for a converged controller:
// a claim owned by a dead process must sit on a vacant cell (the
// abandoned travelling vacancy the paper reports as AR's robustness
// gap — on an occupied cell it would be a leak), and the event-driven
// detector's standing hole set must agree with a full vacancy scan.
func (c *Controller) AuditClaims() []string {
	var bad []string
	for idx, pid := range c.claimPID {
		if pid == 0 {
			continue
		}
		if g := c.sys.CoordAt(idx); !c.alive(int(pid-1)) && !c.net.IsVacant(g) {
			bad = append(bad, fmt.Sprintf(
				"ar: claim on occupied cell %v owned by dead process %d", g, int(pid-1)))
		}
	}
	if !c.fullScan {
		// Cells with undrained journal flips are lag, not disagreement: a
		// mover filled them during the final detect pass, after its drain;
		// the next drain would resync. See core.Controller.AuditClaims.
		for _, idx := range c.holes.Members() {
			g := c.sys.CoordAt(int(idx))
			if !c.net.IsVacant(g) && !c.net.VacancyFlipPending(g) {
				bad = append(bad, fmt.Sprintf(
					"ar: standing hole set contains occupied cell %v", g))
			}
		}
		for _, g := range c.net.VacantCells(nil) {
			if c.holes.Has(c.sys.Index(g)) || c.net.VacancyFlipPending(g) {
				continue
			}
			bad = append(bad, fmt.Sprintf(
				"ar: vacant cell %v missing from standing hole set", g))
		}
	}
	slices.Sort(bad)
	return bad
}

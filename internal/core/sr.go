// Package core implements the paper's contribution: the synchronized
// snake-like cascading replacement scheme (SR) driven by a directed
// Hamilton cycle (Algorithm 1) or, on odd x odd grids, by the dual-path
// Hamilton cycle (Algorithm 2).
//
// Every grid is monitored by exactly one head, the predecessor along the
// Hamilton structure. When a monitored grid becomes vacant, that head — and
// only that head — initiates a replacement process:
//
//  1. If the initiator's grid holds a spare node, the spare moves into the
//     vacant grid before the next round and the process converges.
//  2. Otherwise the initiator notifies its own predecessor along the walk
//     and, once the notification is received, moves itself into the vacant
//     grid, leaving its grid vacant for the cascading replacement.
//
// The cascade repeats backward along the Hamilton path until a grid with a
// spare is found. Because the structure is directed and each grid has one
// monitor, exactly one replacement process serves each hole and processes
// for simultaneous holes are conflict-free.
//
// Departing heads announce the hand-off to their 1-hop neighborhood, so a
// grid vacated by a cascade is never mistaken for a fresh hole; the
// controller models this with a claims registry keyed by grid.
//
// The controller's state is struct-of-arrays: processes live in a dense
// pid-indexed table (collector pids are handed out from zero per trial),
// and the claim, departing, failed-origin, and standing-hole registries
// are per-cell columns and bitsets instead of maps. A Scratch pools all
// of it across trials, so a steady-state replicate allocates nothing in
// the controller.
package core

import (
	"fmt"
	"slices"

	"wsncover/internal/dense"
	"wsncover/internal/grid"
	"wsncover/internal/hamilton"
	"wsncover/internal/metrics"
	"wsncover/internal/network"
	"wsncover/internal/node"
	"wsncover/internal/randx"
)

// MsgCascade is the message kind of the cascade notification: "I am about
// to move into my successor's vacancy; refill my grid for process P".
const MsgCascade = 1

// Config parameterizes the SR controller.
type Config struct {
	// Topology is the Hamilton structure over the network's grid system.
	Topology *hamilton.Topology
	// RNG drives destination sampling inside central areas.
	RNG *randx.Rand
	// NeighborShortcut enables the paper's future-work extension: before
	// cascading further, the asked head also checks its other 1-hop
	// neighbor grids for spares and pulls from one directly when found,
	// shortening the stretch path.
	NeighborShortcut bool
	// ClaimTTL makes the scheme tolerate a lossy radio: a vacancy claim
	// or a process that makes no progress for ClaimTTL rounds expires, so
	// the vacancy is re-detected as a fresh hole and served by a new
	// process. Zero disables expiry (the paper's reliable-channel model).
	ClaimTTL int
	// ByzantineFrac corrupts that fraction of cells (at least one when
	// positive): their heads are liars that report false vacancies among
	// the grids they monitor, spawning phantom replacement processes
	// whose claims sit on occupied cells until the ClaimTTL expiry clears
	// them. Requires ClaimTTL > 0 — without expiry a phantom process
	// would never terminate. ByzantineProb is each liar's per-round lie
	// probability; ByzantineLies bounds the lies each liar tells (0 =
	// unlimited, which prevents convergence before the round budget).
	ByzantineFrac float64
	ByzantineProb float64
	ByzantineLies int
	// FullScanDetect selects the reference O(cells) per-round hole scan
	// instead of the event-driven detector fed by the network's vacancy
	// journal. The two are bit-identical (enforced by differential tests);
	// the full scan exists as the executable specification and for
	// benchmarking the win.
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

// proc is the controller-side record of one replacement process. Records
// live in a dense pid-indexed table and are never removed mid-trial;
// done marks finished processes.
type proc struct {
	id   int
	walk hamilton.Walk
	// lastRound is the last round with progress (a served request or a
	// held notification), used by the ClaimTTL expiry.
	lastRound int
	// phantom marks a process spawned by a byzantine monitor's false
	// vacancy report: it is never served, makes no progress, and only the
	// ClaimTTL expiry ends it. Its origin claim is dropped on finish and
	// it never enters failedOrigins — the origin was never a real hole.
	phantom bool
	done    bool
}

// claim marks a vacant grid as owned by a process since a given round.
type claim struct {
	pid   int
	round int
}

// claimSlot is one cell's entry of the claims registry: pid+1 of the
// owning process (0 = unclaimed) and the round the claim was placed. The
// two are read together, so they share a record.
type claimSlot struct {
	pid   int32
	round int32
}

// departure is a head movement scheduled for the start of the next round,
// after its cascade notification has been received (Algorithm 1, steps b
// and c).
type departure struct {
	pid     int
	nodeID  node.ID
	from    grid.Coord
	vacancy grid.Coord
}

// Controller runs the SR scheme over a network. It is not safe for
// concurrent use.
type Controller struct {
	net  *network.Network
	topo *hamilton.Topology
	sys  *grid.System
	rng  *randx.Rand
	col  *metrics.Collector

	shortcut bool
	claimTTL int

	// Byzantine state: the sorted liar cells, their per-liar remaining
	// lie budgets (parallel slice; -1 = unlimited), and the lie
	// probability.
	liars     []grid.Coord
	lieBudget []int
	byzProb   float64

	// procs is the dense process table, indexed by pid. The collector
	// hands out pids sequentially from zero per trial and the controller
	// is its only caller, so pid == len(procs) at every StartProcess.
	// active counts the not-yet-finished entries.
	procs  []proc
	active int

	// claims is the per-cell claims registry, indexed by cell index.
	// Vacant grids with a live claim are never treated as fresh holes.
	claims []claimSlot
	// failedOrigins marks holes whose process exhausted the walk without
	// finding a spare; they stay claimed so detection does not re-fire
	// every round. ResetFailed clears them for dynamic scenarios.
	failedOrigins []uint64
	// departing marks heads already committed to a move this round.
	departing []uint64
	pending   []departure

	// fullScan selects the reference O(cells) detector.
	fullScan bool
	// holes is the event-driven detector's standing set of vacant cell
	// indices. Seeded from a one-time scan at construction, then
	// maintained from the network's vacancy journal, so per-round
	// detection is O(holes), not O(cells).
	holes dense.IndexSet

	// Scratch buffers reused across rounds so the round loop does not
	// allocate: inbox snapshot, journal drain, detection sort keys, and
	// the shortcut's neighbor probe.
	inboxBuf []network.Message
	eventBuf []grid.Coord
	keyBuf   []uint64
	nbrBuf   []grid.Coord
	watchBuf []grid.Coord
}

// New creates an SR controller for the network. The topology must be built
// over the same grid system.
func New(net *network.Network, cfg Config) (*Controller, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("core: missing topology")
	}
	ts, ns := cfg.Topology.System(), net.System()
	if ts.Cols() != ns.Cols() || ts.Rows() != ns.Rows() ||
		ts.CellSize() != ns.CellSize() || ts.Origin() != ns.Origin() {
		return nil, fmt.Errorf("core: topology grid %v differs from network grid %v", ts, ns)
	}
	if cfg.ByzantineFrac < 0 || cfg.ByzantineFrac > 1 {
		return nil, fmt.Errorf("core: byzantine fraction %g outside [0,1]", cfg.ByzantineFrac)
	}
	if cfg.ByzantineFrac > 0 && cfg.ClaimTTL <= 0 {
		return nil, fmt.Errorf("core: byzantine monitors require ClaimTTL > 0 to expire phantom processes")
	}
	rng := cfg.RNG
	if rng == nil {
		rng = randx.New(1)
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
	n := ns.NumCells()
	holes := c.holes
	holes.Reset(n)
	// Field-by-field reinit: slices keep their backing arrays (truncated
	// or cleared), everything else is overwritten, so a pooled controller
	// starts byte-identical to a fresh one.
	*c = Controller{
		net:      net,
		topo:     cfg.Topology,
		sys:      ns,
		rng:      rng,
		col:      col,
		shortcut: cfg.NeighborShortcut,
		claimTTL: cfg.ClaimTTL,
		byzProb:  cfg.ByzantineProb,
		fullScan: cfg.FullScanDetect,

		liars:     c.liars[:0],
		lieBudget: c.lieBudget[:0],
		procs:     c.procs[:0],

		claims:        dense.Zeroed(c.claims, n),
		failedOrigins: dense.Bits(c.failedOrigins, n),
		departing:     dense.Bits(c.departing, n),
		pending:       c.pending[:0],

		holes: holes,

		inboxBuf: c.inboxBuf[:0],
		eventBuf: c.eventBuf[:0],
		keyBuf:   c.keyBuf[:0],
		nbrBuf:   c.nbrBuf[:0],
		watchBuf: c.watchBuf[:0],
	}
	if cfg.ByzantineFrac > 0 {
		k := int(cfg.ByzantineFrac*float64(n) + 0.5)
		if k < 1 {
			k = 1
		}
		if k > n {
			k = n
		}
		// The liar draw consumes rng state only on byzantine trials, so
		// legacy configurations keep their stream shape. Sample returns an
		// unsorted permutation prefix; sort so the per-round lie pass
		// visits liars in cell-index order (determinism contract).
		idx := rng.Sample(n, k)
		slices.Sort(idx)
		for _, cell := range idx {
			c.liars = append(c.liars, ns.CoordAt(cell))
			if cfg.ByzantineLies > 0 {
				c.lieBudget = append(c.lieBudget, cfg.ByzantineLies)
			} else {
				c.lieBudget = append(c.lieBudget, -1)
			}
		}
	}
	if !c.fullScan {
		// Seed the standing hole set from the network as handed over:
		// damage injected before the controller existed never produced
		// journal events this consumer saw. Stale pre-construction events
		// are discarded unseen (deployment journals one event per cell —
		// materializing them would dominate a pooled trial's allocation);
		// from here on the journal is authoritative.
		c.net.DiscardVacancyEvents()
		c.eventBuf = c.net.VacantCells(c.eventBuf[:0])
		for _, g := range c.eventBuf {
			c.holes.Add(ns.Index(g))
		}
	}
	return c, nil
}

// Name identifies the scheme in experiment output.
func (c *Controller) Name() string {
	if c.shortcut {
		return "SR+shortcut"
	}
	return "SR"
}

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

// startProc appends the record for a freshly started process. pid must be
// the value the collector just handed out; pids are dense from zero, so
// it always equals len(procs).
func (c *Controller) startProc(p proc) *proc {
	c.procs = append(c.procs, p)
	c.active++
	return &c.procs[len(c.procs)-1]
}

// claimAt reads the claims registry for cell s.
func (c *Controller) claimAt(s grid.Coord) (claim, bool) {
	sl := c.claims[c.sys.Index(s)]
	if sl.pid == 0 {
		return claim{}, false
	}
	return claim{pid: int(sl.pid - 1), round: int(sl.round)}, true
}

// setClaim records a claim on cell s.
func (c *Controller) setClaim(s grid.Coord, cl claim) {
	c.claims[c.sys.Index(s)] = claimSlot{pid: int32(cl.pid) + 1, round: int32(cl.round)}
}

// dropClaim removes any claim on cell s.
func (c *Controller) dropClaim(s grid.Coord) { c.claims[c.sys.Index(s)].pid = 0 }

// isDeparting reports whether the head of g is committed to a move.
func (c *Controller) isDeparting(g grid.Coord) bool { return dense.Has(c.departing, c.sys.Index(g)) }

// ResetFailed clears the failed-origin registry and every claim left by a
// dead process so that holes that could not be repaired earlier (no
// spares) are re-detected, e.g. after new nodes arrive in a dynamic
// scenario.
func (c *Controller) ResetFailed() {
	for idx, sl := range c.claims {
		if sl.pid != 0 && !c.alive(int(sl.pid-1)) {
			c.claims[idx].pid = 0
		}
	}
	clear(c.failedOrigins)
}

// Step runs one synchronous round: deliver messages, execute announced
// head departures, serve cascade notifications, expire stalled state (when
// ClaimTTL is set), then detect fresh holes.
func (c *Controller) Step() error {
	c.net.StepRound()
	if err := c.executeDepartures(); err != nil {
		return err
	}
	if err := c.serveInbox(); err != nil {
		return err
	}
	c.expireStalled()
	c.tellLies()
	return c.detect()
}

// tellLies lets each byzantine monitor report a false vacancy: a phantom
// replacement process is registered for an occupied, unclaimed grid the
// liar watches. The phantom is never served (no message ever references
// it), so it makes no progress and the ClaimTTL expiry is the only thing
// that ends it — while it lives, its claim masks genuine vacancies of
// that grid from detection. Lying runs between expiry and detection, and
// touches neither detector's inputs for vacant cells, so the full-scan
// and event-driven detectors stay bit-identical under it.
func (c *Controller) tellLies() {
	if len(c.liars) == 0 {
		return
	}
	round := c.net.Round()
	for i, g := range c.liars {
		if c.lieBudget[i] == 0 {
			continue
		}
		if c.net.HeadOf(g) == node.Invalid || c.isDeparting(g) {
			continue // a lie needs a live, uncommitted head to tell it
		}
		if !c.rng.Bool(c.byzProb) {
			continue
		}
		// Lie about an occupied, unclaimed watched grid: claimed grids
		// already have a process (real or phantom) attached, and a vacant
		// grid would make the report true.
		c.watchBuf = c.topo.Monitored(c.watchBuf[:0], g)
		target := grid.Coord{}
		found := false
		for _, s := range c.watchBuf {
			if c.net.IsVacant(s) {
				continue
			}
			if _, claimed := c.claimAt(s); claimed {
				continue
			}
			target, found = s, true
			break
		}
		if !found {
			continue
		}
		if c.lieBudget[i] > 0 {
			c.lieBudget[i]--
		}
		pid := c.col.StartProcess(target, round)
		c.startProc(proc{
			id:        pid,
			walk:      c.topo.WalkFrom(target),
			lastRound: round,
			phantom:   true,
		})
		c.setClaim(target, claim{pid: pid, round: round})
	}
}

// expireStalled fails processes that made no progress for ClaimTTL rounds
// (their cascade notification was lost on the radio). Their claims are
// dropped by detect's liveness check, so the abandoned vacancy is
// re-detected and served by a fresh process.
func (c *Controller) expireStalled() {
	if c.claimTTL <= 0 {
		return
	}
	round := c.net.Round()
	for i := range c.procs {
		p := &c.procs[i]
		if p.done {
			continue
		}
		if round-p.lastRound > c.claimTTL {
			c.finish(p, metrics.Failed)
			// Allow the hole to be retried by a fresh process.
			dense.Clear(c.failedOrigins, c.sys.Index(p.walk.Origin()))
		}
	}
}

// executeDepartures moves the heads that announced a cascade hand-off last
// round into their target vacancies (Algorithm 1 step c).
func (c *Controller) executeDepartures() error {
	pending := c.pending
	c.pending = c.pending[:0]
	for _, d := range pending {
		dense.Clear(c.departing, c.sys.Index(d.from))
		if nd := c.net.Node(d.nodeID); !nd.Valid() || !nd.Enabled() {
			// The committed head died before its scheduled move (mid-run
			// damage: a churn wave, depletion); the cascade cannot
			// continue and the process fails. Unlike a spare-drought
			// failure, the outstanding vacancy is repairable — release
			// its claim so detection serves it with a fresh process.
			if cl, claimed := c.claimAt(d.vacancy); claimed && cl.pid == d.pid {
				c.dropClaim(d.vacancy)
			}
			if p, ok := c.liveProc(d.pid); ok {
				c.finish(p, metrics.Failed)
				dense.Clear(c.failedOrigins, c.sys.Index(p.walk.Origin()))
			}
			continue
		}
		if err := c.moveInto(d.pid, d.nodeID, d.vacancy); err != nil {
			return err
		}
		if !c.net.IsVacant(d.from) {
			// The departed grid re-elected a head on the spot: a node that
			// arrived after the hand-off was committed (resupply) got
			// promoted when the old head left. Nothing is left to refill,
			// so the cascade completes here; the in-flight notification
			// finds no live process and is dropped. Claiming the occupied
			// grid instead would leak the claim if the cascade stalled.
			if p, ok := c.liveProc(d.pid); ok {
				c.finish(p, metrics.Converged)
			}
			continue
		}
		// The departed grid is now this process's vacancy.
		c.setClaim(d.from, claim{pid: d.pid, round: c.net.Round()})
	}
	return nil
}

// moveInto relocates a node into the claimed vacancy cell, charging the
// process metrics and releasing the claim.
func (c *Controller) moveInto(pid int, id node.ID, vacancy grid.Coord) error {
	nd := c.net.Node(id)
	if !nd.Valid() {
		return fmt.Errorf("core: process %d references unknown node %d", pid, id)
	}
	target := c.net.CentralTarget(vacancy, c.rng)
	dist, err := c.net.MoveNodeDist(id, target)
	if err != nil {
		return fmt.Errorf("core: process %d move: %w", pid, err)
	}
	c.col.RecordMove(pid, dist)
	c.dropClaim(vacancy)
	return nil
}

// serveInbox handles cascade notifications delivered this round.
func (c *Controller) serveInbox() error {
	// Snapshot into a controller-owned scratch buffer: serving may enqueue
	// (requeue) into the network's queues, and a fresh copy per round is
	// exactly the allocation the hot loop must not make.
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
			// The asked grid is itself vacant (another travelling
			// vacancy) or its head is already committed; hold the
			// notification until a head is available.
			p.lastRound = c.net.Round()
			c.net.RequeueMessage(m)
			continue
		}
		p.lastRound = c.net.Round()
		c.col.RecordHop(p.id)
		if err := c.serveRequest(p, cur, m.From); err != nil {
			return err
		}
	}
	return nil
}

// serveRequest lets grid cur supply a node for the process's vacancy: a
// spare if available, otherwise the head cascades onward. vacancy is the
// grid to refill.
func (c *Controller) serveRequest(p *proc, cur, vacancy grid.Coord) error {
	if donor := c.pickSpare(cur, vacancy); donor != node.Invalid {
		if err := c.moveInto(p.id, donor, vacancy); err != nil {
			return err
		}
		c.finish(p, metrics.Converged)
		return nil
	}
	return c.cascade(p, cur, vacancy)
}

// pickSpare selects a spare to donate: one of cur's own spares, or — with
// the shortcut extension — a spare from any 1-hop neighbor grid of the
// vacancy, preferring cur's own.
func (c *Controller) pickSpare(cur, vacancy grid.Coord) node.ID {
	target := c.sys.Center(vacancy)
	if id := c.net.SpareNearest(cur, target); id != node.Invalid {
		return id
	}
	if !c.shortcut {
		return node.Invalid
	}
	// Future-work shortcut: the asked head also knows its own 1-hop
	// neighborhood; pull a spare from a neighboring grid of the vacancy
	// directly if one exists (the mover still crosses one cell boundary).
	c.nbrBuf = c.sys.Neighbors(c.nbrBuf[:0], vacancy)
	for _, nb := range c.nbrBuf {
		if nb == cur {
			continue
		}
		if id := c.net.SpareNearest(nb, target); id != node.Invalid {
			return id
		}
	}
	return node.Invalid
}

// cascade advances the process's walk: cur notifies the next grid backward
// and schedules its own head's departure into the vacancy.
func (c *Controller) cascade(p *proc, cur, vacancy grid.Coord) error {
	probe := func(g grid.Coord) bool { return c.net.HasSpare(g) }
	if !p.walk.Advance(probe) {
		// Walk exhausted: no spare reachable; the vacancy stays and the
		// process fails (possible only when the network is out of
		// spares, per Theorem 1 / Corollary 1).
		c.finish(p, metrics.Failed)
		return nil
	}
	next := p.walk.Current()
	head := c.net.HeadOf(cur)
	if head == node.Invalid {
		return fmt.Errorf("core: cascade at vacant grid %v", cur)
	}
	msg := network.Message{
		From:    cur,
		To:      next,
		Kind:    MsgCascade,
		Process: p.id,
		Hops:    p.walk.Hops(),
		Origin:  p.walk.Origin(),
	}
	if err := c.net.Send(msg); err != nil {
		return fmt.Errorf("core: cascade notify: %w", err)
	}
	c.col.RecordMessage()
	dense.Set(c.departing, c.sys.Index(cur))
	c.pending = append(c.pending, departure{
		pid:     p.id,
		nodeID:  head,
		from:    cur,
		vacancy: vacancy,
	})
	return nil
}

// detect lets every monitoring head check its watched grids and initiate
// replacement processes for fresh, unclaimed holes.
//
// The event-driven detector consumes the network's vacancy journal into a
// standing hole set and visits only current holes, ordered by their
// monitor's cell index (rank-ordered within a monitor). That is exactly
// the order the reference full scan discovers them in, and every
// eligibility condition is evaluated lazily at visit time, so mid-pass
// state changes (a donor filling a hole whose new head then detects its
// own watched grid this same round; a monitor committing to a cascade) are
// observed identically. Differential tests enforce bit-identical behavior.
func (c *Controller) detect() error {
	if c.fullScan {
		return c.detectFullScan()
	}
	c.eventBuf = c.net.DrainVacancyEvents(c.eventBuf[:0])
	for _, g := range c.eventBuf {
		if c.net.IsVacant(g) {
			c.holes.Add(c.sys.Index(g))
		} else {
			c.holes.Remove(c.sys.Index(g))
		}
	}
	// Sort by the monitor scan key — (monitor cell index, rank within the
	// monitor's watch list), the visit order of the reference full scan —
	// looked up once per hole, with the hole's cell index in the low
	// half. Keys are unique (a monitor watches at most two grids and
	// ranks split that tie), so the index never decides the order; it
	// only rides along.
	keys := c.keyBuf[:0]
	for _, idx := range c.holes.Members() {
		key := c.topo.ScanKey(c.sys.CoordAt(int(idx)))
		keys = append(keys, uint64(key)<<32|uint64(idx))
	}
	slices.Sort(keys)
	c.keyBuf = keys
	for _, k := range keys {
		s := c.sys.CoordAt(int(uint32(k)))
		g := c.topo.MonitorOf(s)
		if c.net.HeadOf(g) == node.Invalid || c.isDeparting(g) {
			continue
		}
		if !c.net.IsVacant(s) {
			continue // filled earlier this pass by a donated spare
		}
		if !c.admitClaimed(s) {
			continue
		}
		if err := c.initiate(g, s); err != nil {
			return err
		}
	}
	return nil
}

// admitClaimed applies the claim-liveness rule shared by both detectors:
// a vacancy with a live, fresh claim is not a fresh hole; a stalled or
// orphaned claim is expired (claims of dead processes are kept when no
// TTL is configured — failed origins must not re-fire every round).
func (c *Controller) admitClaimed(s grid.Coord) bool {
	cl, claimed := c.claimAt(s)
	if !claimed {
		return true
	}
	alive := c.alive(cl.pid)
	fresh := c.claimTTL <= 0 || c.net.Round()-cl.round <= c.claimTTL
	if alive && fresh {
		return false
	}
	if c.claimTTL <= 0 {
		return false
	}
	c.dropClaim(s)
	return true
}

// detectFullScan is the reference detector exactly as the seed wrote it:
// every monitoring head checks its watched grids in cell-index order,
// O(cells) work and allocation per round. It is kept as the executable
// specification the event-driven path is verified against and as the
// baseline the large-trial benchmarks compare to.
func (c *Controller) detectFullScan() error {
	var watched []grid.Coord
	for _, g := range c.sys.AllCoords() {
		if c.net.HeadOf(g) == node.Invalid || c.isDeparting(g) {
			continue
		}
		watched = c.topo.Monitored(watched[:0], g)
		for _, s := range watched {
			if !c.net.IsVacant(s) {
				continue
			}
			if !c.admitClaimed(s) {
				continue
			}
			if err := c.initiate(g, s); err != nil {
				return err
			}
			if c.isDeparting(g) {
				break // this head is committed now
			}
		}
	}
	return nil
}

// initiate starts the unique replacement process for the hole at s,
// detected by the head of grid g (its monitor).
func (c *Controller) initiate(g, s grid.Coord) error {
	pid := c.col.StartProcess(s, c.net.Round())
	p := c.startProc(proc{id: pid, walk: c.topo.WalkFrom(s), lastRound: c.net.Round()})
	c.setClaim(s, claim{pid: pid, round: c.net.Round()})
	c.col.RecordHop(pid)
	if p.walk.Current() != g {
		return fmt.Errorf("core: monitor mismatch: %v detected hole %v but walk starts at %v",
			g, s, p.walk.Current())
	}
	return c.serveRequest(p, g, s)
}

// finish closes a process.
func (c *Controller) finish(p *proc, outcome metrics.Outcome) {
	if p.phantom {
		// The phantom repaired nothing. Drop its lie claim so the grid is
		// observable again, and skip failedOrigins — the origin was never
		// a real hole, so nothing there needs to stay suppressed.
		if cl, ok := c.claimAt(p.walk.Origin()); ok && cl.pid == p.id {
			c.dropClaim(p.walk.Origin())
		}
		c.col.Finish(p.id, outcome, c.net.Round())
		p.done = true
		c.active--
		return
	}
	if outcome == metrics.Failed {
		dense.Set(c.failedOrigins, c.sys.Index(p.walk.Origin()))
		// Keep the origin claim so detection does not re-fire; the
		// travelling vacancy claim (if any) stays too, since nothing
		// will fill it.
	}
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

// AuditClaims checks the controller's bookkeeping invariants and returns
// human-readable violations, sorted (empty = clean). It is meant for a
// converged controller: every claim owned by a dead process must sit on
// a vacant cell (a failed origin or an unfillable travelling vacancy —
// a dead-process claim on an occupied cell is a leak that would mask a
// future hole there forever), and the event-driven detector's standing
// hole set must agree with a full vacancy scan once the journal has been
// drained by the last Step.
func (c *Controller) AuditClaims() []string {
	var bad []string
	for idx, sl := range c.claims {
		if sl.pid == 0 {
			continue
		}
		if g := c.sys.CoordAt(idx); !c.alive(int(sl.pid-1)) && !c.net.IsVacant(g) {
			bad = append(bad, fmt.Sprintf(
				"core: claim on occupied cell %v owned by dead process %d", g, int(sl.pid-1)))
		}
	}
	if !c.fullScan {
		// A cell with an undrained journal flip is lag, not disagreement:
		// a donor filled it during the final detect pass, after that
		// pass's drain, and the next drain would resync it. That is the
		// only post-drain mutation a Step performs, so at rest the two
		// views must agree everywhere else.
		for _, idx := range c.holes.Members() {
			g := c.sys.CoordAt(int(idx))
			if !c.net.IsVacant(g) && !c.net.VacancyFlipPending(g) {
				bad = append(bad, fmt.Sprintf(
					"core: standing hole set contains occupied cell %v", g))
			}
		}
		for _, g := range c.net.VacantCells(nil) {
			if c.holes.Has(c.sys.Index(g)) || c.net.VacancyFlipPending(g) {
				continue
			}
			bad = append(bad, fmt.Sprintf(
				"core: vacant cell %v missing from standing hole set", g))
		}
	}
	slices.Sort(bad)
	return bad
}

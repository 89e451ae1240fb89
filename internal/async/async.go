// Package async is the event-driven (asynchronous) realization of the SR
// scheme. The paper presents its algorithms in a round-based system and
// notes they "can be extended easily to an asynchronous system"; this
// package is that extension.
//
// Instead of global rounds, the simulation advances a timestamped event
// queue:
//
//   - heads poll their monitored grids periodically (with jitter),
//   - cascade notifications are delivered after a transmission delay,
//   - movements take distance/speed seconds, and take effect on arrival.
//
// The synchronization argument of Algorithm 1 carries over: a departing
// head's notification is delivered before (or exactly when) it starts to
// move, so the successor along the walk always learns about the travelling
// vacancy before it could mistake it for a fresh hole; the claims registry
// models the same 1-hop hand-off announcement as the synchronous
// controller.
//
// Controller state is struct-of-arrays like the sync controllers:
// processes in a dense pid-indexed table, claims/departing/failed as
// per-cell columns and bitsets, and the event queue as a hand-rolled
// binary heap over a plain slice (container/heap would box every event
// into an interface). A Scratch pools all of it across trials.
package async

import (
	"fmt"

	"wsncover/internal/dense"
	"wsncover/internal/geom"
	"wsncover/internal/grid"
	"wsncover/internal/hamilton"
	"wsncover/internal/metrics"
	"wsncover/internal/network"
	"wsncover/internal/node"
	"wsncover/internal/randx"
)

// Config parameterizes the asynchronous controller.
type Config struct {
	// Topology is the Hamilton structure over the network's grid system.
	Topology *hamilton.Topology
	// RNG drives jitter and destination sampling.
	RNG *randx.Rand
	// MsgDelay is the base notification latency in seconds; MsgJitter
	// adds a uniform extra in [0, MsgJitter). Zero delay means 1 ms.
	MsgDelay  float64
	MsgJitter float64
	// MoveSpeed is the node movement speed in m/s. Zero means 1 m/s.
	MoveSpeed float64
	// PollInterval is the period of each head's vacancy check;
	// PollJitter adds uniform jitter. Zero interval means 0.5 s.
	PollInterval float64
	PollJitter   float64
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

func (c *Config) normalize() {
	if c.MsgDelay == 0 {
		c.MsgDelay = 0.001
	}
	if c.MoveSpeed == 0 {
		c.MoveSpeed = 1
	}
	if c.PollInterval == 0 {
		c.PollInterval = 0.5
	}
	if c.PollJitter == 0 {
		c.PollJitter = c.PollInterval / 4
	}
}

// MsgCascade is the asynchronous cascade notification kind, distinct from
// the synchronous SR (1) and AR (2) tags so traces can interleave.
const MsgCascade = 3

// event kinds (internal).
const (
	evPoll = iota + 1
	evDeliver
	evArrive
)

type event struct {
	at   float64
	seq  int // tie-break for determinism
	kind int

	cell grid.Coord      // evPoll
	msg  network.Message // evDeliver

	// evArrive fields.
	pid     int
	nodeID  node.ID
	vacancy grid.Coord
	final   bool // true when the arriving node is the donated spare
	// target is the sampled destination point; set when the movement
	// starts so that travel time and the landing point agree.
	target    geom.Point
	traveling bool
}

// eventLess orders events by (timestamp, sequence number): a strict total
// order, so the dispatch sequence is independent of heap layout.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

type proc struct {
	id   int
	walk hamilton.Walk
	done bool
}

// Controller runs asynchronous SR over a network. It is not safe for
// concurrent use.
type Controller struct {
	net  *network.Network
	topo *hamilton.Topology
	sys  *grid.System
	rng  *randx.Rand
	cfg  Config
	col  *metrics.Collector

	// queue is a binary min-heap over (at, seq), stored flat.
	queue []event
	seq   int
	now   float64

	// procs is the dense process table, indexed by pid (collector pids
	// are dense from zero per trial); active counts unfinished entries.
	procs  []proc
	active int

	// claimPID holds per cell the pid+1 of the process whose travelling
	// vacancy or target the cell is (0 = unclaimed); departing marks
	// heads committed to a move, failed the origins of failed processes.
	claimPID  []int32
	departing []uint64
	failed    []uint64

	watchBuf []grid.Coord
}

// New creates an asynchronous SR controller and schedules the initial
// polls of every grid with random phase.
func New(net *network.Network, cfg Config) (*Controller, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("async: missing topology")
	}
	ts, ns := cfg.Topology.System(), net.System()
	if ts.Cols() != ns.Cols() || ts.Rows() != ns.Rows() || ts.CellSize() != ns.CellSize() {
		return nil, fmt.Errorf("async: topology grid %v differs from network grid %v", ts, ns)
	}
	cfg.normalize()
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
	// Field-by-field reinit: slices keep their backing arrays (truncated
	// or cleared), everything else is overwritten, so a pooled controller
	// starts byte-identical to a fresh one.
	*c = Controller{
		net:  net,
		topo: cfg.Topology,
		sys:  ns,
		rng:  rng,
		cfg:  cfg,
		col:  col,

		queue: c.queue[:0],
		procs: c.procs[:0],

		claimPID:  dense.Int32s(c.claimPID, n),
		departing: dense.Bits(c.departing, n),
		failed:    dense.Bits(c.failed, n),

		watchBuf: c.watchBuf[:0],
	}
	// The scratch-held Config's own Scratch pointer is dropped so the
	// pooled controller does not keep itself alive transitively.
	c.cfg.Scratch = nil
	for _, g := range ns.AllCoords() {
		c.schedule(event{
			at:   rng.Float64() * cfg.PollInterval, // random phase
			kind: evPoll,
			cell: g,
		})
	}
	return c, nil
}

// Collector exposes the metrics collected so far.
func (c *Controller) Collector() *metrics.Collector { return c.col }

// Now returns the current simulation time in seconds.
func (c *Controller) Now() float64 { return c.now }

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

// schedule stamps the event with the next sequence number and pushes it
// onto the queue.
func (c *Controller) schedule(e event) {
	e.seq = c.seq
	c.seq++
	c.queue = append(c.queue, e)
	c.siftUp(len(c.queue) - 1)
}

// popMin removes and returns the earliest event.
func (c *Controller) popMin() event {
	last := len(c.queue) - 1
	c.queue[0], c.queue[last] = c.queue[last], c.queue[0]
	e := c.queue[last]
	c.queue = c.queue[:last]
	c.siftDown(0)
	return e
}

func (c *Controller) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&c.queue[i], &c.queue[parent]) {
			break
		}
		c.queue[i], c.queue[parent] = c.queue[parent], c.queue[i]
		i = parent
	}
}

func (c *Controller) siftDown(i int) {
	n := len(c.queue)
	for {
		left, right := 2*i+1, 2*i+2
		min := i
		if left < n && eventLess(&c.queue[left], &c.queue[min]) {
			min = left
		}
		if right < n && eventLess(&c.queue[right], &c.queue[min]) {
			min = right
		}
		if min == i {
			return
		}
		c.queue[i], c.queue[min] = c.queue[min], c.queue[i]
		i = min
	}
}

// RunUntil processes events in timestamp order until the deadline (in
// seconds) or until the network is fully covered and no process is
// active. It returns the number of events processed.
func (c *Controller) RunUntil(deadline float64) (int, error) {
	processed := 0
	for len(c.queue) > 0 {
		if c.queue[0].at > deadline {
			break
		}
		next := c.popMin()
		c.now = next.at
		if err := c.dispatch(next); err != nil {
			return processed, err
		}
		processed++
		if c.Done() && c.net.AllHeadsPresent() {
			break
		}
	}
	return processed, nil
}

func (c *Controller) dispatch(e event) error {
	switch e.kind {
	case evPoll:
		return c.poll(e.cell)
	case evDeliver:
		return c.deliver(e.msg)
	case evArrive:
		return c.arrive(e)
	default:
		return fmt.Errorf("async: unknown event kind %d", e.kind)
	}
}

// isDeparting reports whether the head of g is committed to a move.
func (c *Controller) isDeparting(g grid.Coord) bool { return dense.Has(c.departing, c.sys.Index(g)) }

// poll lets the head of g (if any) check its monitored grids for fresh
// holes, then reschedules itself.
func (c *Controller) poll(g grid.Coord) error {
	defer c.schedule(event{
		at:   c.now + c.cfg.PollInterval + c.rng.Float64()*c.cfg.PollJitter,
		kind: evPoll,
		cell: g,
	})
	if c.net.HeadOf(g) == node.Invalid || c.isDeparting(g) {
		return nil
	}
	c.watchBuf = c.topo.Monitored(c.watchBuf[:0], g)
	for _, s := range c.watchBuf {
		sidx := c.sys.Index(s)
		if !c.net.IsVacant(s) || dense.Has(c.failed, sidx) {
			continue
		}
		if c.claimPID[sidx] != 0 {
			continue
		}
		pid := c.col.StartProcess(s, int(c.now*1000))
		c.procs = append(c.procs, proc{id: pid, walk: c.topo.WalkFrom(s)})
		c.active++
		p := &c.procs[pid]
		c.claimPID[sidx] = int32(pid) + 1
		c.col.RecordHop(pid)
		if err := c.serveRequest(p, g, s); err != nil {
			return err
		}
		if c.isDeparting(g) {
			break
		}
	}
	return nil
}

// deliver hands a cascade notification to its addressee; if the grid has
// no head yet (a travelling vacancy), the delivery is retried later.
func (c *Controller) deliver(m network.Message) error {
	p, ok := c.liveProc(m.Process)
	if !ok {
		return nil
	}
	cur := m.To
	if c.net.HeadOf(cur) == node.Invalid || c.isDeparting(cur) {
		retry := m
		c.schedule(event{
			at:   c.now + c.cfg.PollInterval,
			kind: evDeliver,
			msg:  retry,
		})
		return nil
	}
	c.col.RecordHop(p.id)
	return c.serveRequest(p, cur, m.From)
}

// serveRequest lets grid cur supply a node for the process's vacancy.
func (c *Controller) serveRequest(p *proc, cur, vacancy grid.Coord) error {
	target := c.sys.Center(vacancy)
	if donor := c.net.SpareNearest(cur, target); donor != node.Invalid {
		c.beginMove(p.id, donor, vacancy, true)
		return nil
	}
	probe := func(g grid.Coord) bool { return c.net.HasSpare(g) }
	if !p.walk.Advance(probe) {
		c.finish(p, metrics.Failed)
		return nil
	}
	next := p.walk.Current()
	head := c.net.HeadOf(cur)
	if head == node.Invalid {
		return fmt.Errorf("async: cascade at vacant grid %v", cur)
	}
	// Notification first; the head begins its own move only at delivery
	// time (Algorithm 1's wait-then-move), modelled by scheduling the
	// departure with the same latency as the message.
	delay := c.cfg.MsgDelay + c.rng.Float64()*c.cfg.MsgJitter
	msg := network.Message{
		From: cur, To: next, Kind: MsgCascade, Process: p.id,
		Hops: p.walk.Hops(), Origin: p.walk.Origin(),
	}
	c.schedule(event{at: c.now + delay, kind: evDeliver, msg: msg})
	c.col.RecordMessage()
	dense.Set(c.departing, c.sys.Index(cur))
	c.schedule(event{
		at:      c.now + delay,
		kind:    evArrive,
		pid:     p.id,
		nodeID:  head,
		vacancy: vacancy,
		final:   false,
	})
	return nil
}

// beginMove schedules the physical relocation of a donated spare.
func (c *Controller) beginMove(pid int, id node.ID, vacancy grid.Coord, final bool) {
	c.schedule(event{
		at:      c.now, // spare starts immediately; travel time applies below
		kind:    evArrive,
		pid:     pid,
		nodeID:  id,
		vacancy: vacancy,
		final:   final,
	})
}

// arrive executes a scheduled movement in two phases: the first visit
// samples the destination and re-schedules itself at the true arrival
// instant (distance/speed later); the second visit applies the move.
func (c *Controller) arrive(e event) error {
	nd := c.net.Node(e.nodeID)
	if !nd.Valid() {
		return fmt.Errorf("async: process %d references unknown node %d", e.pid, e.nodeID)
	}
	if !nd.Enabled() {
		// The committed node died before arriving (mid-run damage, e.g.
		// depletion between events); the process fails. A departing head
		// releases its grid's commitment so a successor can be served,
		// and the outstanding vacancy's claim and failed mark are
		// cleared so a later poll serves it with a fresh process — the
		// hole is repairable, unlike a spare-drought failure.
		if !e.final {
			from, _ := c.sys.CoordOf(nd.Location())
			dense.Clear(c.departing, c.sys.Index(from))
		}
		vidx := c.sys.Index(e.vacancy)
		if owner := c.claimPID[vidx]; owner != 0 && int(owner-1) == e.pid {
			c.claimPID[vidx] = 0
		}
		if p, ok := c.liveProc(e.pid); ok {
			c.finish(p, metrics.Failed)
			dense.Clear(c.failed, c.sys.Index(p.walk.Origin()))
		}
		return nil
	}
	if !e.traveling {
		e.target = c.net.CentralTarget(e.vacancy, c.rng)
		travel := nd.Location().Dist(e.target) / c.cfg.MoveSpeed
		e.traveling = true
		e.at = c.now + travel
		c.schedule(e)
		return nil
	}

	from, _ := c.sys.CoordOf(nd.Location())
	dist, err := c.net.MoveNodeDist(e.nodeID, e.target)
	if err != nil {
		return fmt.Errorf("async: process %d move: %w", e.pid, err)
	}
	c.col.RecordMove(e.pid, dist)
	dense.Clear(c.departing, c.sys.Index(from))
	c.claimPID[c.sys.Index(e.vacancy)] = 0
	if !e.final {
		// A cascading head vacated its grid; the claim travels there.
		c.claimPID[c.sys.Index(from)] = int32(e.pid) + 1
	}
	if e.final {
		if p, ok := c.liveProc(e.pid); ok {
			c.finish(p, metrics.Converged)
		}
	}
	return nil
}

func (c *Controller) finish(p *proc, outcome metrics.Outcome) {
	if outcome == metrics.Failed {
		dense.Set(c.failed, c.sys.Index(p.walk.Origin()))
	}
	c.col.Finish(p.id, outcome, int(c.now*1000))
	p.done = true
	c.active--
}

// Finalize marks all still-active processes failed; call it at a deadline.
func (c *Controller) Finalize() {
	for i := range c.procs {
		if p := &c.procs[i]; !p.done {
			c.finish(p, metrics.Failed)
		}
	}
}

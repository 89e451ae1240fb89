package sim

import (
	"runtime"
	"slices"
	"sync"
	"unsafe"

	"wsncover/internal/ar"
	"wsncover/internal/async"
	"wsncover/internal/core"
	"wsncover/internal/deploy"
	"wsncover/internal/geom"
	"wsncover/internal/grid"
	"wsncover/internal/metrics"
	"wsncover/internal/network"
	"wsncover/internal/node"
	"wsncover/internal/randx"
)

// schemeScratch lazily holds one pooled state block per controller
// package. Each worker arena owns one, so consecutive trials of the same
// scheme reuse the controller's dense tables (procs, claims, bitsets,
// round buffers) instead of reallocating them.
type schemeScratch struct {
	sr    *core.Scratch
	ar    *ar.Scratch
	async *async.Scratch
}

func (s *schemeScratch) forSR() *core.Scratch {
	if s.sr == nil {
		s.sr = new(core.Scratch)
	}
	return s.sr
}

func (s *schemeScratch) forAR() *ar.Scratch {
	if s.ar == nil {
		s.ar = new(ar.Scratch)
	}
	return s.ar
}

func (s *schemeScratch) forAsync() *async.Scratch {
	if s.async == nil {
		s.async = new(async.Scratch)
	}
	return s.async
}

// TrialArena is the pooled replicate engine's per-worker world: it owns
// a Network (with its node storage and cell registries), the metrics
// collector, the controllers' dense scratch state, the trial's random
// streams (reseeded in place, never reallocated), and a memo of
// deployment bases; the hamilton.Shared cache adds the topology tables.
// Consecutive trials with the same grid dimensions, communication
// range, and energy model Reset the network in place instead of
// rebuilding it, which removes the deployment allocations (~1.4 MB and
// ~9k objects per 64x64 trial) that dominated campaign cost after the
// round loop went allocation-free. Campaign runners draw arenas from a
// process-lived free list (acquireArena), so the reuse spans campaigns
// too.
//
// The memo serves a trial's deployment when its layout recurs. A
// campaign gives replicate r the same seed in every cell (JobSpace), and
// Controlled draws the hole pick, the one-node-per-cell layout and then
// the spares one by one from the same point of stream 2, so the spares
// of a smaller spare count are the first spares of a larger one. The
// first time the memo sees a key (seed, opening kind, holes,
// avoid-adjacent) the arena records the deployment as it builds it
// (deploy.Base): the hole cells, every node in draw order with its cell
// and whether it took its cell's head as it landed, and stream 2's
// state after the last. Recording costs what the plain build costs, so
// a key that never recurs loses nothing to it. After that, a trial with
// N spares at most the recorded ones replays the base and the first N
// spares (network.AddPlaced), with no draw, no cell lookup and no
// election distance; a larger N replays what is recorded, restores
// stream 2, and draws and records only the rest. The memo holds at most
// memoBytes of recordings, counted by their buffers' capacity, oldest
// evicted first, so a working set larger than the bound costs one
// recording per evicted key when it comes back; a geometry that does
// not fit one base (256x256 and up) turns it off. Replicate is the
// innermost job dimension, so its working set is one base per
// replicate of the current opening. networkFor empties it whenever it
// rebuilds the network.
//
// A replay that draws nothing leaves stream 2 where it was seeded, not
// where the spare draws leave it. That is safe because nothing reads
// stream 2 after deployment: the jam centre draws from stream 1, and the
// scheme and the events split off the root (TestReplayLeavesStream2Unread).
//
// Pooling is purely a memory optimization: an arena-run trial is
// byte-identical to the fresh-built RunTrial for the same TrialConfig —
// network.Reset restores the pristine post-construction state, a
// replayed base rebuilds the nodes, heads and journal its recording
// built, and the differential tests compare whole campaign manifests
// across the two paths. The fresh path (NewTrial, FreshBuild) never
// uses the memo and remains the executable specification.
//
// An arena is not safe for concurrent use; the experiment engine gives
// each worker goroutine its own (see RunCampaignStream). State exposed
// by a finished trial (Trial.Network, the scheme's Collector) is
// invalidated by the arena's next RunTrial. So is every random stream
// the trial handed out: the network's loss stream (network.Reset drops
// it), the controller's Config.RNG, the trial's event stream and its
// per-firing children. Each is reseeded for the next trial.
type TrialArena struct {
	net     *network.Network
	col     *metrics.Collector
	scr     schemeScratch
	streams randx.Streams
	memo    baseMemo
	trial   Trial // the trial RunTrial reassembles in place

	// Geometry and physics the pooled network was built with; a trial
	// that differs in any of them rebuilds instead of resetting.
	cols, rows int
	commRange  float64
	energy     node.EnergyModel
}

// NewTrialArena returns an empty arena; the first trial populates it.
func NewTrialArena() *TrialArena {
	return &TrialArena{col: metrics.NewCollector()}
}

// freeArenas is the process-lived free list of idle arenas. Campaigns
// take their workers' arenas from it and hand them back when they end,
// so back-to-back campaigns (a sweep service, a benchmark loop) reuse
// the world the previous campaign built instead of paying a cold
// network.New and regrowing the node store from zero. Reuse is always
// safe: networkFor rebuilds whenever geometry or energy model differ.
// The list keeps at most GOMAXPROCS arenas — enough for one campaign at
// full parallelism — and leaves the rest to the collector. It is not a
// sync.Pool because the collector empties those between (and within)
// campaigns, which is exactly the rebuild this list exists to avoid.
var freeArenas struct {
	sync.Mutex
	list []*TrialArena
}

// acquireArena returns an idle arena from the free list, or a new one.
func acquireArena() *TrialArena {
	freeArenas.Lock()
	defer freeArenas.Unlock()
	if n := len(freeArenas.list); n > 0 {
		a := freeArenas.list[n-1]
		freeArenas.list = freeArenas.list[:n-1]
		return a
	}
	return NewTrialArena()
}

// releaseArenas returns the non-nil arenas to the free list. The caller
// must not touch them afterwards. When the list overflows, the arenas
// idle longest are dropped: the next campaign most likely has the shape
// of the last one.
func releaseArenas(arenas []*TrialArena) {
	freeArenas.Lock()
	defer freeArenas.Unlock()
	for _, a := range arenas {
		if a != nil {
			freeArenas.list = append(freeArenas.list, a)
		}
	}
	list := freeArenas.list
	if over := len(list) - runtime.GOMAXPROCS(0); over > 0 {
		n := copy(list, list[over:])
		clear(list[n:])
		freeArenas.list = list[:n]
	}
}

// networkFor returns a pristine network for the normalized trial
// configuration: the pooled one, Reset in place, when the geometry and
// energy model match; a fresh build otherwise (which then becomes the
// pooled one).
func (a *TrialArena) networkFor(cfg *TrialConfig) (*network.Network, error) {
	if a.net != nil && a.cols == cfg.Cols && a.rows == cfg.Rows &&
		a.commRange == cfg.CommRange && a.energy == cfg.EnergyModel {
		a.net.Reset()
		return a.net, nil
	}
	sys, err := grid.NewForCommRange(cfg.Cols, cfg.Rows, cfg.CommRange, geom.Pt(0, 0))
	if err != nil {
		return nil, err
	}
	a.net = network.New(sys, cfg.EnergyModel)
	a.memo.reset(sys.NumCells())
	a.cols, a.rows = cfg.Cols, cfg.Rows
	a.commRange = cfg.CommRange
	a.energy = cfg.EnergyModel
	return a.net, nil
}

// RunTrial executes one trial inside the arena, reusing pooled state
// where the configuration allows. Results are byte-identical to the
// package-level RunTrial.
func (a *TrialArena) RunTrial(cfg TrialConfig) (TrialResult, error) {
	t, err := newTrial(cfg, a)
	if err != nil {
		return TrialResult{}, err
	}
	return t.Run()
}

// memoBytes bounds the deployment bases one arena's memo holds,
// recorded spares included. A base costs 20 bytes per recorded node (one
// per non-hole cell, then the spares) plus ~5 KB, most of it the stream
// state. So the bound admits 38 bases of the paper's 16x16 field with no
// spares, 27 with 200 and 17 with 600 (one opening's 16 replicates
// fit); 15 of a 32x32 field, 4 of a 64x64 one, 1 of a 128x128 one and
// none from 256x256 up. It is the memo's whole cost in memory: per
// arena, and live for as long as the arena idles in the free list. A
// base campaign and its widened sweep at 600 spares use 32 keys, more
// than it holds, so such rounds cycle it and re-record every key, once
// each; holding them all would take about 740 KiB per arena.
const memoBytes = 384 << 10

// baseKey identifies a deployment base under the arena's geometry: the
// seed and the opening fields the hole pick and the layout read.
type baseKey struct {
	seed          int64
	kind          openingKind
	holes         int
	avoidAdjacent bool
}

// memoBase is one recorded deployment base.
type memoBase struct {
	key   baseKey
	base  deploy.Base // the recording: placed nodes, spares, stream 2's state
	bytes int         // base.Bytes(0) as the memo last counted it
}

// nodeBytes is what a base records per node: its position and landing.
const nodeBytes = int(unsafe.Sizeof(geom.Point{}) + unsafe.Sizeof(network.Landing(0)))

// baseMemo is a TrialArena's bounded memo of deployment bases (see
// TrialArena): a key is recorded the first time it is built and
// replayed while it is held. The zero value is off until reset sizes
// it.
type baseMemo struct {
	// cells is the geometry's cell count. on is whether a base with no
	// spares fits memoBytes at it; the memo does nothing when it does
	// not.
	cells int
	on    bool
	index map[baseKey]*memoBase // the recorded base of each key held
	bases []*memoBase           // recorded bases, oldest first
	bytes int                   // the bases' Bytes, never more than memoBytes
	// replays and records count the bases served and recorded;
	// extensions counts the replays that drew spares past the recording.
	replays, records, extensions int
}

// reset empties the memo and sizes it for a geometry of cells cells.
// Bases recorded at another geometry are dropped, buffers included, so
// the memo never holds more than memoBytes of them.
func (m *baseMemo) reset(cells int) {
	m.cells = cells
	m.on = baseBytes(cells) <= memoBytes
	if m.index == nil && m.on {
		m.index = make(map[baseKey]*memoBase)
	}
	clear(m.index)
	clear(m.bases)
	m.bases, m.bytes = m.bases[:0], 0
}

// baseBytes is the least a base of nodes recorded nodes can hold.
func baseBytes(nodes int) int { return nodes*nodeBytes + int(unsafe.Sizeof(memoBase{})) }

// lookup returns the recorded base of k, if any. When there is none it
// returns instead an entry to record k's base of spares spares into
// (record commits it), when one fits. A nil or off memo returns neither.
func (m *baseMemo) lookup(k baseKey, spares int) (hit, rec *memoBase) {
	if m == nil || !m.on {
		return nil, nil
	}
	if e, ok := m.index[k]; ok {
		m.replays++
		return e, nil
	}
	return nil, m.claim(k, m.cells+max(spares, 0))
}

// claim returns an entry for k's base of at most nodes nodes, or nil
// when such a base alone exceeds memoBytes. It evicts the oldest bases
// until a base that size fits beside the rest, and reuses the buffers of
// the last one evicted. A base is made room for at the size the oldest
// one reached, too: a campaign's keys share its spare counts, so a new
// recording tends to be extended that far, and a memo kept full of such
// bases recycles their buffers instead of allocating new ones and
// growing them.
func (m *baseMemo) claim(k baseKey, nodes int) *memoBase {
	need := baseBytes(nodes)
	if need > memoBytes {
		return nil
	}
	if len(m.bases) > 0 {
		need = max(need, m.bases[0].bytes)
	}
	var e *memoBase
	for m.bytes+need > memoBytes {
		e = m.evict(nil)
	}
	if e == nil {
		e = new(memoBase)
	}
	e.key = k
	return e
}

// evict drops the oldest base other than keep and returns it, or nil
// when there is none.
func (m *baseMemo) evict(keep *memoBase) *memoBase {
	for i, e := range m.bases {
		if e == keep {
			continue
		}
		m.bases = slices.Delete(m.bases, i, i+1)
		m.bytes -= e.bytes
		delete(m.index, e.key)
		return e
	}
	return nil
}

// recount brings e's bytes up to date and evicts the oldest other bases
// until the memo fits memoBytes; it reports whether e still fits.
func (m *baseMemo) recount(e *memoBase) bool {
	b := e.base.Bytes(0)
	m.bytes += b - e.bytes
	e.bytes = b
	for m.bytes > memoBytes {
		if m.evict(e) == nil {
			return false
		}
	}
	return true
}

// record deploys spares spares with the given hole cells as
// deploy.Controlled does, recording the base and its spares into the
// claimed entry e on the way.
func (m *baseMemo) record(e *memoBase, net *network.Network, spares int, holes []grid.Coord, s2 *randx.Rand) error {
	if err := e.base.Place(net, spares, holes, s2, true); err != nil {
		return err
	}
	if err := e.base.AddSpares(net, spares, s2); err != nil {
		return err
	}
	e.bytes = 0
	m.bases = append(m.bases, e)
	m.index[e.key] = e
	m.records++
	if !m.recount(e) {
		m.evict(nil) // e, the only base left
	}
	return nil
}

// replay deploys spares spares from the recorded base e: the recorded
// nodes, then, past the recording, spares drawn from stream 2 at its
// recorded state, which extend the recording when the memo can make
// room for them.
func (m *baseMemo) replay(e *memoBase, net *network.Network, spares int, s2 *randx.Rand) error {
	extend := false
	if spares > e.base.Recorded() {
		m.extensions++
		grown := e.base.Bytes(spares)
		extend = grown <= memoBytes
		for extend && m.bytes-e.bytes+grown > memoBytes {
			extend = m.evict(e) != nil
		}
	}
	err := e.base.Replay(net, spares, s2, extend)
	m.recount(e)
	return err
}

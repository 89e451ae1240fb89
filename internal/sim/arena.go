package sim

import (
	"runtime"
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
// The memo serves the part of a trial's deployment that depends on the
// seed but not on the spare count. A campaign gives replicate r the
// same seed in every cell (JobSpace), so a replicate's hole pick and
// one-node-per-cell layout recur across schemes and spare counts; the
// arena records such a base (hole cells, placed nodes with their cells,
// stream 2's state after them) on the second sighting of its key (seed,
// opening kind, holes, avoid-adjacent) and replays it after that, then
// draws the spares as usual. It holds at most memoBytes of bases, and
// as many keys sighted once as it has room for bases, oldest evicted
// first; a geometry that does not fit one base (256x256 and up) turns
// it off. Replicate is the innermost job dimension, so its working set
// is one base per replicate of the current opening. networkFor empties
// it whenever it rebuilds the network.
//
// Pooling is purely a memory optimization: an arena-run trial is
// byte-identical to the fresh-built RunTrial for the same TrialConfig —
// network.Reset restores the pristine post-construction state, a
// replayed base rebuilds the nodes and the stream state its recording
// left, and the differential tests compare whole campaign manifests
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

// memoBytes bounds the deployment bases one arena's memo holds. A base
// costs 20 bytes per cell plus ~5 KB, most of it the stream state, so
// the bound admits 38 bases of the paper's 16x16 field (two openings of
// 16 replicates), 15 of a 32x32 one, 4 of a 64x64 one and none from
// 256x256 up. It is the memo's whole cost in memory: per arena, and
// live for as long as the arena idles in the free list.
const memoBytes = 384 << 10

// baseKey identifies a deployment base under the arena's geometry: the
// seed and the opening fields the hole pick and the layout read.
type baseKey struct {
	seed          int64
	kind          openingKind
	holes         int
	avoidAdjacent bool
}

// memoBase is one recorded deployment base and its memo slot.
type memoBase struct {
	slot  int
	key   baseKey
	base  deploy.Base
	state randx.State // stream 2 right after the layout
}

// replay deploys spares spares over the recorded base: its nodes, stream
// 2 moved to where their draws left it, then the spares as Controlled
// draws them.
func (e *memoBase) replay(net *network.Network, spares int, s2 *randx.Rand) error {
	if err := e.base.Replay(net, spares); err != nil {
		return err
	}
	s2.Restore(&e.state)
	return e.base.AddSpares(net, spares, s2)
}

// baseMemo is a TrialArena's bounded memo of deployment bases (see
// TrialArena). The zero value is off until reset sizes it.
type baseMemo struct {
	// slots is the number of bases memoBytes admits at the current
	// geometry; 0 turns the memo off. It also bounds the keys sighted
	// once: a working set that does not fit is never recorded.
	slots int
	// index maps a key to its base's slot, or to -1-i for a key sighted
	// once and held at seen[i].
	index    map[baseKey]int
	seen     []baseKey // ring of keys sighted once; seenNext is the oldest
	seenNext int
	bases    []*memoBase // ring of recorded bases; next is the oldest
	next     int
	// replays and records count the bases served and recorded.
	replays, records int
}

// reset empties the memo and sizes it for a geometry of cells cells.
// Bases recorded at another geometry are dropped, buffers included, so
// the memo never holds more than memoBytes of them.
func (m *baseMemo) reset(cells int) {
	perBase := cells*int(unsafe.Sizeof(geom.Point{})+unsafe.Sizeof(int32(0))) + int(unsafe.Sizeof(memoBase{}))
	m.slots = memoBytes / perBase
	if m.index == nil && m.slots > 0 {
		m.index = make(map[baseKey]int)
	}
	clear(m.index)
	m.seen, m.seenNext = m.seen[:0], 0
	clear(m.bases)
	m.bases, m.next = m.bases[:0], 0
}

// lookup returns the recorded base of k, if any. On k's second sighting
// it returns instead the slot to record k's base into (record commits
// it), evicting the oldest base when the memo is full; on the first it
// notes k and returns neither. A nil or off memo returns neither.
func (m *baseMemo) lookup(k baseKey) (hit, rec *memoBase) {
	if m == nil || m.slots == 0 {
		return nil, nil
	}
	if v, ok := m.index[k]; ok {
		if v >= 0 {
			m.replays++
			return m.bases[v], nil
		}
		return nil, m.claim(k)
	}
	i := m.seenNext
	if len(m.seen) < m.slots {
		i = len(m.seen)
		m.seen = append(m.seen, k)
	} else {
		m.forget(m.seen[i], -1-i)
		m.seen[i] = k
		m.seenNext = (i + 1) % m.slots
	}
	m.index[k] = -1 - i
	return nil, nil
}

// claim returns a slot for k's base: a fresh one while the memo has
// room, else the oldest, whose key no longer finds it. The index finds
// the slot once record commits it.
func (m *baseMemo) claim(k baseKey) *memoBase {
	var e *memoBase
	if len(m.bases) < m.slots {
		e = &memoBase{slot: len(m.bases)}
		m.bases = append(m.bases, e)
	} else {
		e = m.bases[m.next]
		m.forget(e.key, e.slot)
		m.next = (m.next + 1) % m.slots
	}
	e.key = k
	return e
}

// forget drops k from the index if it still maps to v.
func (m *baseMemo) forget(k baseKey, v int) {
	if w, ok := m.index[k]; ok && w == v {
		delete(m.index, k)
	}
}

// record deploys spares spares with the given hole cells as
// deploy.Controlled does, recording the base into the claimed slot e on
// the way.
func (m *baseMemo) record(e *memoBase, net *network.Network, spares int, holes []grid.Coord, s2 *randx.Rand) error {
	if err := e.base.Place(net, spares, holes, s2, true); err != nil {
		return err
	}
	s2.Save(&e.state)
	m.index[e.key] = e.slot
	m.records++
	return e.base.AddSpares(net, spares, s2)
}

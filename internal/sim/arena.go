package sim

import (
	"runtime"
	"sync"

	"wsncover/internal/ar"
	"wsncover/internal/async"
	"wsncover/internal/core"
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
// streams (reseeded in place, never reallocated), and — via the
// hamilton.Shared cache — every other piece of per-trial setup that does
// not depend on the seed. Consecutive trials with the same grid
// dimensions, communication range, and energy model Reset the network
// in place instead of rebuilding it, which removes the deployment
// allocations (~1.4 MB and ~9k objects per 64x64 trial) that dominated
// campaign cost after the round loop went allocation-free. Campaign
// runners draw arenas from a process-lived free list (acquireArena), so
// the reuse spans campaigns too.
//
// Pooling is purely a memory optimization: an arena-run trial is
// byte-identical to the fresh-built RunTrial for the same TrialConfig —
// network.Reset restores the pristine post-construction state, and the
// differential tests compare whole campaign manifests across the two
// paths. The fresh path remains the executable specification.
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

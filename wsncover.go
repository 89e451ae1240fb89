// Package wsncover reproduces "Mobility Control for Complete Coverage in
// Wireless Sensor Networks" (Jiang, Wu, Kline, Krantz; ICDCS 2008
// Workshops): a virtual-grid wireless sensor network in which coverage
// holes are repaired by a snake-like cascading replacement process
// synchronized along a directed Hamilton cycle (the SR scheme), compared
// against the unsynchronized 1-hop baseline AR.
//
// This package is the high-level facade. A Scenario bundles a grid
// system, a node population, a Hamilton topology, and a control scheme:
//
//	sc, err := wsncover.NewScenario(wsncover.Options{
//		Cols: 16, Rows: 16, Spares: 100, Seed: 1,
//	})
//	sc.CreateHoles(3)
//	res, err := sc.Run()
//	fmt.Println(res.Summary, res.Complete)
//
// The full machinery (deployment strategies, failure injectors, analytic
// model, figure generators) lives in the internal packages and is
// exercised by the cmd/ tools and the examples/ programs.
package wsncover

import (
	"fmt"

	"wsncover/internal/ar"
	"wsncover/internal/core"
	"wsncover/internal/coverage"
	"wsncover/internal/deploy"
	"wsncover/internal/geom"
	"wsncover/internal/grid"
	"wsncover/internal/hamilton"
	"wsncover/internal/metrics"
	"wsncover/internal/network"
	"wsncover/internal/node"
	"wsncover/internal/randx"
	"wsncover/internal/sim"
	"wsncover/internal/visual"
)

// Scheme selects a hole-recovery control scheme.
type Scheme int

// Available schemes. Enums start at 1 so the zero value is invalid; the
// Options default is SR.
const (
	// SR is the paper's synchronized replacement along the directed
	// Hamilton cycle (Algorithms 1 and 2).
	SR Scheme = iota + 1
	// SRShortcut is SR plus the future-work 1-hop shortcut.
	SRShortcut
	// AR is the unsynchronized 1-hop baseline of [3].
	AR
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SR:
		return "SR"
	case SRShortcut:
		return "SR+shortcut"
	case AR:
		return "AR"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Workload names a damage model with parameters, the facade form of the
// simulator's workload spec. Kind is required; the remaining fields
// parameterize it and must stay zero when the kind does not use them:
//
//	Workload{Kind: "churn", Holes: 2, Every: 5, Waves: 3}
//	Workload{Kind: "depletion", Budget: 40}
//
// Kinds: "holes" (random vacant cells before round 0), "jam" (disc
// attack, Radius), "churn" (waves of Holes fresh holes every Every
// rounds, Waves times), "depletion" (nodes die once their movement
// energy exceeds Budget, checked every Every rounds; PerMeter/PerMove
// configure the energy model when the trial has none — that applies to
// Sweep, which deploys per trial; a Scenario fixes its energy model at
// construction, so RunSchedule rejects them).
type Workload struct {
	Kind     string
	Holes    int
	Every    int
	Waves    int
	Radius   float64
	Budget   float64
	PerMeter float64
	PerMove  float64
}

// spec converts to the simulator's workload spec.
func (w Workload) spec() sim.WorkloadSpec {
	return sim.WorkloadSpec{
		Kind:     w.Kind,
		Holes:    w.Holes,
		Every:    w.Every,
		Waves:    w.Waves,
		Radius:   w.Radius,
		Budget:   w.Budget,
		PerMeter: w.PerMeter,
		PerMove:  w.PerMove,
	}
}

// Options configures a Scenario.
type Options struct {
	// Cols and Rows size the virtual grid (paper: 16x16). Required.
	Cols, Rows int
	// CommRange is the node communication range R; the cell size is
	// derived as r = R/sqrt(5). Zero means the paper's 10 m.
	CommRange float64
	// Spares is the number of spare nodes N scattered uniformly over the
	// field in addition to one node per cell.
	Spares int
	// Scheme selects the controller; zero means SR.
	Scheme Scheme
	// Seed drives all randomness; runs with equal seeds are identical.
	Seed int64
	// EnergyPerMeter and EnergyPerMove configure the movement energy
	// model (zero disables energy accounting).
	EnergyPerMeter float64
	EnergyPerMove  float64
}

// Result reports a recovery run.
type Result struct {
	// Summary aggregates the replacement processes (movements, distance,
	// success rate, messages).
	Summary metrics.Summary
	// Rounds is the number of synchronous rounds executed.
	Rounds int
	// Holes is the number of vacant cells remaining.
	Holes int
	// Complete reports whether every grid has a head (the paper's
	// complete-coverage condition).
	Complete bool
	// Connected reports head-overlay connectivity.
	Connected bool
}

// Scenario is a live simulation: a deployed network plus a control scheme.
// It is not safe for concurrent use.
type Scenario struct {
	opts Options
	rng  *randx.Rand
	sys  *grid.System
	net  *network.Network
	topo *hamilton.Topology
	ctrl sim.Scheme
}

// NewScenario deploys a network per Options: one node per cell plus
// Spares spare nodes uniformly at random, heads elected, topology built,
// controller attached. The network starts with complete coverage; use
// CreateHoles / FailRegion / FailRandom to damage it.
func NewScenario(opts Options) (*Scenario, error) {
	if opts.CommRange == 0 {
		opts.CommRange = sim.PaperCommRange
	}
	if opts.Scheme == 0 {
		opts.Scheme = SR
	}
	sys, err := grid.NewForCommRange(opts.Cols, opts.Rows, opts.CommRange, geom.Pt(0, 0))
	if err != nil {
		return nil, err
	}
	rng := randx.New(opts.Seed)
	net := network.New(sys, node.EnergyModel{
		PerMeter: opts.EnergyPerMeter,
		PerMove:  opts.EnergyPerMove,
	})
	if err := deploy.Controlled(net, opts.Spares, nil, rng.Split(1)); err != nil {
		return nil, err
	}
	sc := &Scenario{opts: opts, rng: rng, sys: sys, net: net}
	if err := sc.attachScheme(); err != nil {
		return nil, err
	}
	return sc, nil
}

func (sc *Scenario) attachScheme() error {
	switch sc.opts.Scheme {
	case SR, SRShortcut:
		topo, err := hamilton.Build(sc.sys)
		if err != nil {
			return err
		}
		sc.topo = topo
		ctrl, err := core.New(sc.net, core.Config{
			Topology:         topo,
			RNG:              sc.rng.Split(2),
			NeighborShortcut: sc.opts.Scheme == SRShortcut,
		})
		if err != nil {
			return err
		}
		sc.ctrl = ctrl
		return nil
	case AR:
		sc.ctrl = ar.New(sc.net, ar.Config{RNG: sc.rng.Split(2)})
		return nil
	default:
		return fmt.Errorf("wsncover: unknown scheme %v", sc.opts.Scheme)
	}
}

// CreateHoles empties count randomly chosen, mutually non-adjacent cells
// and returns their addresses.
func (sc *Scenario) CreateHoles(count int) ([]grid.Coord, error) {
	cells, err := deploy.PickHoleCells(sc.sys, count, true, sc.rng.Split(3))
	if err != nil {
		return nil, err
	}
	deploy.FailCells(sc.net, cells)
	return cells, nil
}

// CreateHoleAt empties one specific cell.
func (sc *Scenario) CreateHoleAt(c grid.Coord) error {
	if !sc.sys.Contains(c) {
		return fmt.Errorf("wsncover: cell %v outside grid", c)
	}
	sc.net.DisableAllInCell(c)
	return nil
}

// FailRandom disables count random enabled nodes (node failures or
// misbehavior exclusion), returning how many were disabled.
func (sc *Scenario) FailRandom(count int) int {
	return deploy.FailRandom(sc.net, count, sc.rng.Split(4))
}

// FailRegion disables every enabled node within radius of the point
// (x, y) — the jamming-attack model — and returns how many were hit.
func (sc *Scenario) FailRegion(x, y, radius float64) int {
	return deploy.FailRegion(sc.net, geom.Pt(x, y), radius)
}

// Run executes the control scheme until it converges (or a generous round
// budget elapses) and reports the outcome. It can be called repeatedly as
// new damage is injected; metrics accumulate across calls.
func (sc *Scenario) Run() (Result, error) {
	// Allow retries of previously failed holes: new spares may have
	// arrived since.
	if ctrl, ok := sc.ctrl.(*core.Controller); ok {
		ctrl.ResetFailed()
	}
	rounds, err := sim.RunSchedule(sc.ctrl, sc.net, sim.Schedule{}, nil, 2*sc.sys.NumCells()+16)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Summary:   sc.ctrl.Collector().Summarize(),
		Rounds:    rounds,
		Holes:     coverage.HoleCount(sc.net),
		Complete:  coverage.Complete(sc.net),
		Connected: sc.net.HeadGraphConnected(),
	}, nil
}

// RunSchedule drives the scenario through a workload's damage timeline:
// the workload's schedule events (churn waves, depletion checks)
// interleave with controller rounds until the schedule is exhausted and
// the scheme converges. The scenario's existing deployment is kept —
// only the schedule's events run, so workloads whose damage is entirely
// part of the initial deployment (holes, jam) schedule nothing and
// RunSchedule behaves like Run over damage injected with CreateHoles /
// FailRegion. Like Run, it can be called repeatedly; metrics accumulate.
func (sc *Scenario) RunSchedule(w Workload) (Result, error) {
	wl, err := sim.BuildWorkload(w.spec())
	if err != nil {
		return Result{}, err
	}
	// Parameters that only act at deploy time cannot take effect on an
	// already-deployed scenario; reject them so the caller does not
	// silently measure the wrong thing.
	switch w.Kind {
	case sim.WorkloadHoles:
		if w.Holes != 0 {
			return Result{}, fmt.Errorf(
				"wsncover: the holes workload's damage is part of deployment; use CreateHoles(%d) instead", w.Holes)
		}
	case sim.WorkloadJam:
		if w.Radius != 0 {
			return Result{}, fmt.Errorf(
				"wsncover: the jam workload's damage is part of deployment; use FailRegion instead")
		}
	case sim.WorkloadDepletion:
		if w.PerMeter != 0 || w.PerMove != 0 {
			return Result{}, fmt.Errorf(
				"wsncover: the scenario's energy model is fixed at construction; set Options.EnergyPerMeter/EnergyPerMove")
		}
		if sc.net.EnergyModel() == (node.EnergyModel{}) {
			return Result{}, fmt.Errorf(
				"wsncover: the depletion workload needs an energy model; set Options.EnergyPerMeter")
		}
	}
	maxRounds := 2*sc.sys.NumCells() + 16
	cfg := sim.TrialConfig{
		Cols:        sc.opts.Cols,
		Rows:        sc.opts.Rows,
		CommRange:   sc.opts.CommRange,
		Spares:      sc.opts.Spares,
		Holes:       1,
		Workload:    w.spec(),
		MaxRounds:   maxRounds,
		EnergyModel: sc.net.EnergyModel(),
	}
	sched, err := wl.Schedule(&cfg)
	if err != nil {
		return Result{}, err
	}
	if ctrl, ok := sc.ctrl.(*core.Controller); ok {
		ctrl.ResetFailed()
	}
	rounds, err := sim.RunSchedule(sc.ctrl, sc.net, sched, sc.rng.Split(5), maxRounds)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Summary:   sc.ctrl.Collector().Summarize(),
		Rounds:    rounds,
		Holes:     coverage.HoleCount(sc.net),
		Complete:  coverage.Complete(sc.net),
		Connected: sc.net.HeadGraphConnected(),
	}, nil
}

// Step advances the simulation a single round, for callers interleaving
// damage and recovery.
func (sc *Scenario) Step() error { return sc.ctrl.Step() }

// SchemeName returns the attached controller's name.
func (sc *Scenario) SchemeName() string { return sc.ctrl.Name() }

// Holes returns the current vacant cells.
func (sc *Scenario) Holes() []grid.Coord { return sc.net.VacantCells(nil) }

// Spares returns the current number of spare nodes in the network.
func (sc *Scenario) Spares() int { return sc.net.TotalSpares() }

// TotalMoves returns all node movements performed so far.
func (sc *Scenario) TotalMoves() int { return sc.net.TotalMoves() }

// TotalDistance returns the total moving distance so far.
func (sc *Scenario) TotalDistance() float64 { return sc.net.TotalDistance() }

// Render returns an ASCII picture of the grid occupancy.
func (sc *Scenario) Render() string { return visual.Network(sc.net) }

// RenderTopology returns an ASCII picture of the Hamilton structure (SR
// schemes only; empty for AR).
func (sc *Scenario) RenderTopology() string {
	if sc.topo == nil {
		return ""
	}
	return visual.Cycle(sc.topo)
}

// GridSystem exposes the underlying grid for advanced callers.
func (sc *Scenario) GridSystem() *grid.System { return sc.sys }

// Network exposes the underlying network for advanced callers.
func (sc *Scenario) Network() *network.Network { return sc.net }

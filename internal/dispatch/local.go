package dispatch

import (
	"context"
	"time"

	"wsncover/internal/experiment"
	"wsncover/internal/sim"
)

// LocalRun is one campaign executed in this process: the single
// runner behind every cmd/sweep run and behind sweepd's campaigns. With
// a CellStore it looks every cell of its spec up before running, and
// the cells the store serves are the run's prior, skipped and carried
// into the manifest; it appends each cell the moment the cell
// completes, which is the run's checkpoint. A killed run is resumed by
// running it again over the same store, shards of one campaign on many
// boxes are assembled by one run over the union of their segments, and
// a run whose cells are all stored computes nothing.
type LocalRun struct {
	// Executed is the number of trials Run executes: the spec's job
	// space under its cell range, minus the stored cells' trials.
	Executed int
	// GroupOrder lists the groups of the executed trials in job order,
	// and GroupTotal counts those trials per group.
	GroupOrder []string
	GroupTotal map[string]int
	// Cells is the number of cells in the spec's job space, and Reused
	// the number of them the store served.
	Cells, Reused int
	// OnProgress, when non-nil, observes the run: snapshots folded from
	// the ordered trial stream by a LocalProgress.
	OnProgress func(FleetSnapshot)

	spec      sim.CampaignSpec
	name      string
	store     *CellStore
	prior     []experiment.Point
	priorJobs int
	cells     []cell // in job order
	done      map[cell]bool
	cellTotal map[cell]int
	addr      map[cell]cellAddr // store runs only
}

// cell identifies one aggregated campaign cell in a manifest.
type cell struct {
	group string
	x     float64
}

// PlanLocal sizes the in-process run of spec (normalized, validated)
// named name over store, which may be nil for a run that neither reuses
// nor keeps cells.
func PlanLocal(spec sim.CampaignSpec, name string, store *CellStore) (*LocalRun, error) {
	r := &LocalRun{
		GroupTotal: make(map[string]int),
		spec:       spec,
		name:       name,
		store:      store,
		done:       make(map[cell]bool),
		cellTotal:  make(map[cell]int),
	}
	// One pass over the job space: every cell's trial count under the
	// cell range, in job order, and its store address.
	var addrs []cellAddr
	var err error
	spec.ExecutedJobs(nil, func(j sim.TrialJob) {
		k := cell{j.Group(), float64(j.Spares)}
		if _, seen := r.cellTotal[k]; !seen {
			r.cells = append(r.cells, k)
			if store != nil && err == nil {
				var a cellAddr
				a, err = addressCell(spec, j)
				addrs = append(addrs, a)
			}
		}
		r.cellTotal[k]++
	})
	if err != nil {
		return nil, err
	}
	r.Cells = len(r.cells)
	if store != nil {
		r.addr = make(map[cell]cellAddr, len(addrs))
		for _, a := range addrs {
			r.addr[a.cell] = a
		}
		r.prior = store.lookup(addrs)
		for _, p := range r.prior {
			r.done[cell{p.Group, p.X}] = true
		}
	}
	r.Reused = len(r.done)
	// Every trial of a cell not yet done executes, so a group's first
	// executed trial is the first job of its earliest such cell: walking
	// cells in first-appearance order yields the groups in the order
	// their first executed trial arrives.
	for _, k := range r.cells {
		n := r.cellTotal[k]
		if r.done[k] {
			r.priorJobs += n
			continue
		}
		r.Executed += n
		if _, ok := r.GroupTotal[k.group]; !ok {
			r.GroupOrder = append(r.GroupOrder, k.group)
		}
		r.GroupTotal[k.group] += n
	}
	return r, nil
}

// Run executes the planned trials and returns the campaign manifest
// (not yet saved) and the number of trials executed. onTrial, when
// non-nil, observes every completed trial in job order with the count
// executed so far, after that trial's cell (if it completed one) has
// been stored and OnProgress has seen it; an error from it stops the
// run. The manifest's Jobs is the trials this run executed plus those
// of the stored cells: the campaign's NumJobs, or a shard's own trial
// count under a cell range. On error — ctx cancelled included — the
// store holds every cell completed so far, and OnProgress still gets a
// terminal snapshot.
func (r *LocalRun) Run(ctx context.Context, onTrial func(sim.TrialJob, int) error) (*experiment.Manifest, int, error) {
	var keep func(sim.TrialJob) bool
	if len(r.done) > 0 {
		keep = func(j sim.TrialJob) bool { return !r.done[cell{j.Group(), float64(j.Spares)}] }
	}
	// Trials stream into online per-(group, N) accumulators: campaign
	// memory is O(cells), not O(trials).
	acc := experiment.NewAccumulator()
	var prog *LocalProgress
	if r.OnProgress != nil {
		prog = NewLocalProgress(r.Executed, r.GroupOrder, r.GroupTotal, r.OnProgress)
		prog.Start()
		defer prog.End()
	}
	cellDone := make(map[cell]int)
	ran := 0
	err := sim.RunCampaignSubset(ctx, r.spec, experiment.Options{Workers: r.spec.Workers}, keep,
		func(j sim.TrialJob, s experiment.Sample) error {
			acc.Add(s)
			ran++
			if r.store != nil {
				k := cell{s.Group, s.X}
				cellDone[k]++
				if cellDone[k] == r.cellTotal[k] {
					if err := r.store.append(r.addr[k], acc.Point(k.group, k.x)); err != nil {
						return err
					}
				}
			}
			if prog != nil {
				prog.Trial(s.Group)
			}
			if onTrial != nil {
				return onTrial(j, ran)
			}
			return nil
		})
	if err != nil {
		return nil, ran, err
	}
	m, err := experiment.NewManifest(r.name, r.spec, ran+r.priorJobs, r.spec.Workers, mergePoints(r.prior, acc.Points()))
	return m, ran, err
}

// mergePoints combines stored points with fresh ones in the canonical
// (group, X) order, so a manifest assembled over a store is
// indistinguishable from a single-run one. The skip filter keeps the
// two sets disjoint.
func mergePoints(prior, fresh []experiment.Point) []experiment.Point {
	if len(prior) == 0 {
		return fresh // Accumulator.Points is already in canonical order
	}
	merged := append(append(make([]experiment.Point, 0, len(prior)+len(fresh)), prior...), fresh...)
	experiment.SortPoints(merged)
	return merged
}

// progressThrottle is the minimum interval between the snapshots a
// LocalProgress sends outside group boundaries: fast enough for a live
// line, slow enough that no observer ever slows the worker pool.
const progressThrottle = 200 * time.Millisecond

// LocalProgress folds one process's ordered trial stream into
// FleetSnapshots: Fleet carries done/total plus the current group and
// its GroupDone, and Groups follows the run's group order. It is the
// only progress throttle of a run: a snapshot goes out at the start, at
// every group's first and last trial, at the end, and otherwise at most
// every progressThrottle, so every observer — meter, dashboard, ledger
// — sees each group reach its total.
// Between snapshots a trial costs a map lookup and a clock read and
// allocates nothing. Calls must be serialized (the engine's ordered
// sink).
type LocalProgress struct {
	on    func(FleetSnapshot)
	now   func() time.Time
	last  time.Time
	done  int
	total int
	order []string
	index map[string]int
	// groupDone and groupTotal are indexed like order; cur is the
	// group of the latest trial (-1 before the first).
	groupDone, groupTotal []int
	cur                   int
	ended                 bool
}

// NewLocalProgress sizes a fold for total trials over the groups in
// order, with groupTotal trials each, delivering snapshots to on.
func NewLocalProgress(total int, order []string, groupTotal map[string]int, on func(FleetSnapshot)) *LocalProgress {
	p := &LocalProgress{
		on: on, now: time.Now, total: total, order: order, cur: -1,
		index:      make(map[string]int, len(order)),
		groupDone:  make([]int, len(order)),
		groupTotal: make([]int, len(order)),
	}
	for i, g := range order {
		p.index[g] = i
		p.groupTotal[i] = groupTotal[g]
	}
	return p
}

// Start sends the opening snapshot, nothing done out of the total; a
// run with nothing to execute opens with its terminal snapshot instead.
func (p *LocalProgress) Start() {
	if p.total > 0 {
		p.emit(p.now(), false)
	}
}

// Trial records one finished trial of group and sends a snapshot when
// one is due. The run's last trial sends the terminal snapshot.
func (p *LocalProgress) Trial(group string) {
	p.done++
	i := p.index[group]
	p.cur = i
	p.groupDone[i]++
	now := p.now()
	if d := p.groupDone[i]; d == 1 || d == p.groupTotal[i] || p.done == p.total ||
		now.Sub(p.last) >= progressThrottle {
		p.emit(now, p.done == p.total)
	}
}

// End sends the terminal snapshot unless the last trial already did: a
// run that failed, was cancelled, or had nothing to execute still ends
// its observers' streams.
func (p *LocalProgress) End() {
	if !p.ended {
		p.emit(p.now(), true)
	}
}

func (p *LocalProgress) emit(now time.Time, final bool) {
	p.last = now
	p.ended = final
	s := FleetSnapshot{
		Fleet:  experiment.Progress{Done: p.done, Total: p.total},
		Groups: make([]GroupProgress, len(p.order)),
		final:  final,
	}
	if p.cur >= 0 {
		s.Fleet.Group, s.Fleet.GroupDone = p.order[p.cur], p.groupDone[p.cur]
	}
	for i, g := range p.order {
		s.Groups[i] = GroupProgress{Group: g, Done: p.groupDone[i], Total: p.groupTotal[i]}
	}
	p.on(s)
}

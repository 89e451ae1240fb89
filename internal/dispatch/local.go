package dispatch

import (
	"context"
	"os"
	"path/filepath"
	"time"

	"wsncover/internal/experiment"
	"wsncover/internal/sim"
)

// LocalRun is one campaign executed in this process: the single
// runner behind every cmd/sweep run that computes trials (plain,
// -shard, -resume, -checkpoint) and behind sweepd's campaigns. It
// owns the resumable state: a prior manifest's complete (group, N)
// cells are skipped and carried over, and the checkpoint is an
// experiment.CellLog — written once at start with the carried cells,
// then one appended line per completed cell — which
// experiment.ReadCellLog turns back into a prior manifest for a later
// run. Only whole cells are logged, because a resume skips whole
// cells; a partial cell's trials would be rerun anyway.
//
// How the prior manifest is found and vetted stays with the caller:
// cmd/sweep pins the trial physics of its -resume manifest and log,
// sweepd re-hashes its log's spec.
type LocalRun struct {
	// Executed is the number of trials Run executes: the spec's job
	// space under its cell range, minus the cells the prior manifest
	// already holds.
	Executed int
	// GroupOrder lists the groups of the executed trials in job order,
	// and GroupTotal counts those trials per group.
	GroupOrder []string
	GroupTotal map[string]int
	// Resumed is the number of prior cells kept and skipped; Orphans the
	// number of prior cells outside the spec's job space, which are
	// dropped so the manifest stays consistent with its recorded spec.
	Resumed, Orphans int
	// OnProgress, when non-nil, observes the run: snapshots folded from
	// the ordered trial stream by a LocalProgress.
	OnProgress func(FleetSnapshot)

	spec       sim.CampaignSpec
	name       string
	checkpoint string
	prior      []experiment.Point
	priorJobs  int
	cells      []cell // in job order
	done       map[cell]bool
	cellTotal  map[cell]int
}

// cell identifies one aggregated campaign cell in a manifest.
type cell struct {
	group string
	x     float64
}

// PlanLocal sizes the in-process run of spec (normalized, validated)
// named name. prior, when non-nil, is a manifest of the same campaign
// whose cells are kept instead of recomputed. A non-empty checkpoint
// path enables the per-cell checkpoint log there.
func PlanLocal(spec sim.CampaignSpec, name string, prior *experiment.Manifest, checkpoint string) *LocalRun {
	r := &LocalRun{
		GroupTotal: make(map[string]int),
		spec:       spec,
		name:       name,
		checkpoint: checkpoint,
		done:       make(map[cell]bool),
		cellTotal:  make(map[cell]int),
	}
	// One pass over the job space: every cell's trial count under the
	// cell range, in job order.
	spec.ExecutedJobs(nil, func(j sim.TrialJob) {
		k := cell{j.Group(), float64(j.Spares)}
		if _, seen := r.cellTotal[k]; !seen {
			r.cells = append(r.cells, k)
		}
		r.cellTotal[k]++
	})
	if prior != nil {
		for _, p := range prior.Points {
			k := cell{p.Group, p.X}
			if _, ok := r.cellTotal[k]; !ok {
				r.Orphans++
				continue
			}
			r.prior = append(r.prior, p)
			r.done[k] = true
		}
	}
	r.Resumed = len(r.done)
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
	return r
}

// Run executes the planned trials and returns the campaign manifest
// (not yet saved) and the number of trials executed. onTrial, when
// non-nil, observes every completed trial in job order with the count
// executed so far, after that trial's cell (if it completed one) has
// been logged and OnProgress has seen it; an error from it stops the
// run. The manifest's Jobs is the trials this run executed plus those
// the prior manifest carried: the campaign's NumJobs, or a shard's own
// trial count under a cell range. On error — ctx cancelled included —
// the checkpoint log holds every cell completed so far, and OnProgress
// still gets a terminal snapshot.
func (r *LocalRun) Run(ctx context.Context, onTrial func(sim.TrialJob, int) error) (*experiment.Manifest, int, error) {
	var keep func(sim.TrialJob) bool
	if len(r.done) > 0 {
		keep = func(j sim.TrialJob) bool { return !r.done[cell{j.Group(), float64(j.Spares)}] }
	}
	// Trials stream into online per-(group, N) accumulators: campaign
	// memory is O(cells), not O(trials).
	acc := experiment.NewAccumulator()
	var log *experiment.CellLog
	if r.checkpoint != "" {
		var err error
		if log, err = r.createLog(); err != nil {
			return nil, 0, err
		}
		defer log.Close() // for the error paths; success checks Close below
	}
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
			if log != nil {
				k := cell{s.Group, s.X}
				cellDone[k]++
				if n := r.cellTotal[k]; cellDone[k] == n {
					if err := log.Append(experiment.CellRecord{Point: acc.Point(k.group, k.x), Trials: n}); err != nil {
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
	if log != nil {
		if err := log.Close(); err != nil {
			return nil, ran, err
		}
	}
	m, err := experiment.NewManifest(r.name, r.spec, ran+r.priorJobs, r.spec.Workers, mergePoints(r.prior, acc.Points()))
	return m, ran, err
}

// createLog starts the checkpoint log: one atomic write of the header
// and the carried prior cells, replacing any log an earlier run left
// (whose accepted cells the caller already passed in as the prior
// manifest). Completed cells are appended from then on.
func (r *LocalRun) createLog() (*experiment.CellLog, error) {
	if err := os.MkdirAll(filepath.Dir(r.checkpoint), 0o755); err != nil {
		return nil, err
	}
	head, err := experiment.NewManifest(r.name, r.spec, 0, r.spec.Workers, nil)
	if err != nil {
		return nil, err
	}
	carried := make([]experiment.CellRecord, len(r.prior))
	for i, p := range r.prior {
		carried[i] = experiment.CellRecord{Point: p, Trials: r.cellTotal[cell{p.Group, p.X}]}
	}
	return experiment.CreateCellLog(r.checkpoint, head, carried)
}

// mergePoints combines prior points with fresh ones in the canonical
// (group, X) order, so a resumed manifest is indistinguishable from a
// single-run one. The resume filter keeps the two sets disjoint.
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

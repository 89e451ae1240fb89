package dispatch

import (
	"context"
	"errors"
	"time"

	"wsncover/internal/experiment"
	"wsncover/internal/sim"
	"wsncover/internal/telemetry"
)

// LocalRun is one campaign executed in this process: the single
// runner behind every cmd/sweep run and behind sweepd's campaigns. It
// plans and runs from the campaign's JobSpace, validated once by the
// caller: the whole campaign, or one shard of it (JobSpace.Shard).
// With a CellStore it looks every cell it executes up before running,
// and the cells the store serves are the run's prior, skipped and
// carried into the manifest; it appends each cell the moment the
// cell completes, which is the run's checkpoint. A killed run is resumed by
// running it again over the same store, shards of one campaign on many
// boxes are assembled by one run over the union of their segments, and
// a run whose cells are all stored computes nothing.
type LocalRun struct {
	// Executed is the number of trials Run executes: the job space's
	// executed cells, minus the stored cells' trials.
	Executed int
	// Cells is the number of cells the job space executes, and Reused
	// the number of them the store served.
	Cells, Reused int
	// OnProgress, when non-nil, observes the run: snapshots folded from
	// the ordered trial stream by a LocalProgress.
	OnProgress func(telemetry.Snapshot)
	// GroupSeconds, set by Run, is each group's wall span in seconds,
	// from its first executed trial to its last. A group none of whose
	// trials executed has no entry.
	GroupSeconds map[string]float64

	jobs   sim.JobSpace
	name   string
	store  *CellStore
	now    func() time.Time
	prior  []experiment.Point    // the stored cells' points, in cell order
	cells  []int                 // the cells Run executes, ascending
	addrs  []cellAddr            // their addresses (keys only in store runs)
	groups []telemetry.GroupView // executed trials per group, in job order
}

// PlanLocal sizes the in-process run of the validated campaign js named
// name over store, which may be nil for a run that neither reuses nor
// keeps cells. It visits each cell js executes once, addresses it, and
// looks every address up in one pass: the stored cells are the run's
// prior, the rest are the cells Run executes. A zero JobSpace is an
// error.
func PlanLocal(js sim.JobSpace, name string, store *CellStore) (*LocalRun, error) {
	spec := js.Spec()
	r := &LocalRun{jobs: js, name: name, store: store, now: time.Now}
	var addrs []cellAddr
	err := js.Cells(func(c int, j sim.TrialJob) (err error) {
		a := cellAddr{group: j.Group(), x: float64(j.Spares)}
		if store != nil {
			a, err = addressCell(spec, j)
		}
		r.cells = append(r.cells, c)
		addrs = append(addrs, a)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.Cells = len(r.cells)
	stored := make([]*experiment.Point, len(addrs))
	if store != nil {
		stored = store.lookup(addrs)
	}
	// A group's cells are consecutive in cell order (spare counts vary
	// fastest), and every trial of a cell not stored executes, so the
	// walk yields the groups in the order their first executed trial
	// arrives.
	missing := r.cells[:0]
	for i, a := range addrs {
		if p := stored[i]; p != nil {
			r.prior = append(r.prior, *p)
			continue
		}
		missing = append(missing, r.cells[i])
		r.addrs = append(r.addrs, a)
		if n := len(r.groups); n == 0 || r.groups[n-1].Group != a.group {
			r.groups = append(r.groups, telemetry.GroupView{Group: a.group})
		}
		r.groups[len(r.groups)-1].Total += spec.Replicates
	}
	r.cells = missing
	r.Reused = len(r.prior)
	r.Executed = len(r.cells) * spec.Replicates
	return r, nil
}

// Run executes the planned trials and returns the campaign manifest
// (not yet saved) and the number of trials executed. onTrial, when
// non-nil, observes every completed trial in job order with the count
// executed so far, after that trial's cell (if it completed one) has
// been stored and OnProgress has seen it; an error from it stops the
// run. The manifest's Jobs is the trials this run executed plus those
// of the stored cells: the campaign's NumJobs, or a shard's own trial
// count. On error — ctx cancelled included — the store holds every
// cell completed so far, OnProgress still gets a terminal snapshot,
// and GroupSeconds spans the trials that ran.
func (r *LocalRun) Run(ctx context.Context, onTrial func(sim.TrialJob, int) error) (*experiment.Manifest, int, error) {
	// Trials stream into online per-(group, N) accumulators: campaign
	// memory is O(cells), not O(trials).
	acc := experiment.NewAccumulator()
	prog := NewLocalProgress(r.groups, r.OnProgress)
	prog.now = r.now
	prog.Start()
	spec := r.jobs.Spec()
	ran := 0
	err := r.jobs.RunCells(ctx, r.cells,
		func(j sim.TrialJob, s experiment.Sample) error {
			acc.Add(s)
			ran++
			// The executed stream is whole cells of Replicates
			// consecutive trials, so every Replicates-th trial
			// completes the next planned cell.
			if r.store != nil && ran%spec.Replicates == 0 {
				if err := r.store.append(r.addrs[ran/spec.Replicates-1], acc.Point(s.Group, s.X)); err != nil {
					return err
				}
			}
			prog.Trial(s.Group)
			if onTrial != nil {
				return onTrial(j, ran)
			}
			return nil
		})
	prog.End()
	r.GroupSeconds = prog.GroupSeconds()
	if err != nil {
		return nil, ran, err
	}
	jobs := ran + r.Reused*spec.Replicates
	m, err := experiment.NewManifest(r.name, spec, jobs, spec.Workers, mergePoints(r.prior, acc.Points()))
	return m, ran, err
}

// RunRecord builds the ledger record of one run of the campaign js,
// for cmd/sweep and sweepd alike: m, ran and groupS are what Run
// returned and set (m nil, ran 0 and groupS nil for a run that never
// started), wall is the caller's span of the run, and runErr is how it
// ended. A cancelled run (a drain, a signal, a deadline) is aborted,
// any other error failed. A completed run is credited with its
// manifest's jobs and points, stored cells included; any other run
// with the trials it executed. The rate counts only executed trials,
// never stored cells. The caller adds what is its own: the name, the
// mode, the manifest path, the time and the CPU seconds. The error
// reports only a spec that does not hash; the record is complete but
// for its spec hash then.
func RunRecord(js sim.JobSpace, m *experiment.Manifest, ran int, wall time.Duration, groupS map[string]float64, runErr error) (telemetry.Record, error) {
	spec := js.Spec()
	rec := telemetry.Record{
		Status:       telemetry.StatusCompleted,
		Jobs:         ran,
		Workers:      spec.Workers,
		WallS:        wall.Seconds(),
		GroupSeconds: groupS,
	}
	rec.CellFirst, rec.CellCount = js.CellRange()
	if wall > 0 {
		rec.TrialsPerS = float64(ran) / wall.Seconds()
	}
	switch {
	case errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded):
		rec.Status = telemetry.StatusAborted
	case runErr != nil:
		rec.Status = telemetry.StatusFailed
	default:
		rec.Jobs, rec.Points = m.Jobs, len(m.Points)
	}
	var err error
	rec.SpecHash, err = telemetry.SpecHash(spec)
	return rec, err
}

// mergePoints combines stored points with fresh ones in the canonical
// (group, X) order, so a manifest assembled over a store is
// indistinguishable from a single-run one. PlanLocal keeps the two sets
// disjoint: a cell is either stored or executed.
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
// telemetry.Snapshots: done/total plus the current group and its done
// count, the groups in the run's order, and elapsed time, rate and ETA
// read off its own clock. It is the only progress throttle of a run: a
// snapshot goes out at the start, at every group's first and last
// trial, at the end, and otherwise at most every progressThrottle, so
// every observer sees each group reach its total. It also records each
// group's first and latest trial time, the spans GroupSeconds reports.
// Between snapshots a trial costs a map lookup and a clock read and
// allocates nothing. Calls must be serialized (the engine's ordered
// sink).
type LocalProgress struct {
	on          func(telemetry.Snapshot) // nil: spans only
	now         func() time.Time
	start, last time.Time
	done, total int
	groups      []telemetry.GroupView
	index       map[string]int
	// first and latest are each group's first and latest trial time,
	// indexed like groups; cur is the group of the latest trial (-1
	// before the first).
	first, latest []time.Time
	cur           int
	ended         bool
}

// NewLocalProgress sizes a fold over groups (each with its Total of
// trials, in the order the run reaches them), delivering snapshots to
// on, which may be nil.
func NewLocalProgress(groups []telemetry.GroupView, on func(telemetry.Snapshot)) *LocalProgress {
	p := &LocalProgress{
		on: on, now: time.Now, cur: -1,
		groups: make([]telemetry.GroupView, len(groups)),
		index:  make(map[string]int, len(groups)),
		first:  make([]time.Time, len(groups)),
		latest: make([]time.Time, len(groups)),
	}
	for i, g := range groups {
		p.groups[i] = telemetry.GroupView{Group: g.Group, Total: g.Total}
		p.index[g.Group] = i
		p.total += g.Total
	}
	return p
}

// Start starts the run's clock and sends the opening snapshot, nothing
// done out of the total; a run with nothing to execute sends only the
// terminal snapshot End sends.
func (p *LocalProgress) Start() {
	p.start = p.now()
	if p.total > 0 {
		p.emit(p.start, false)
	}
}

// Trial records one finished trial of group and sends a snapshot when
// one is due. The run's last trial sends the terminal snapshot.
func (p *LocalProgress) Trial(group string) {
	now := p.now()
	i := p.index[group]
	p.done++
	p.cur = i
	g := &p.groups[i]
	g.Done++
	if g.Done == 1 {
		p.first[i] = now
	}
	p.latest[i] = now
	if g.Done == 1 || g.Done == g.Total || p.done == p.total ||
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

// GroupSeconds returns each group's span in seconds, from its first
// trial to its latest; a group with no trial yet has no entry, and a
// fold with no trial at all returns nil.
func (p *LocalProgress) GroupSeconds() map[string]float64 {
	var out map[string]float64
	for i, g := range p.groups {
		if g.Done == 0 {
			continue
		}
		if out == nil {
			out = make(map[string]float64, len(p.groups))
		}
		out[g.Group] = p.latest[i].Sub(p.first[i]).Seconds()
	}
	return out
}

// emit stamps a snapshot at now and sends it. A terminal snapshot is
// groupless: a finished run has no current group.
func (p *LocalProgress) emit(now time.Time, final bool) {
	p.last = now
	p.ended = final
	if p.on == nil {
		return
	}
	s := telemetry.Snapshot{
		Progress: telemetry.Progress{Done: p.done, Total: p.total},
		Groups:   append([]telemetry.GroupView(nil), p.groups...),
		Final:    final,
	}
	if p.cur >= 0 && !final {
		s.Progress.Group, s.Progress.GroupDone = p.groups[p.cur].Group, p.groups[p.cur].Done
	}
	s.Stamp(now.Sub(p.start))
	p.on(s)
}

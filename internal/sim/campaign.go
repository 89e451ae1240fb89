package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"wsncover/internal/experiment"
)

// GridSize is one grid-system dimension of a campaign.
type GridSize struct {
	Cols int `json:"cols"`
	Rows int `json:"rows"`
}

// String implements fmt.Stringer.
func (g GridSize) String() string { return fmt.Sprintf("%dx%d", g.Cols, g.Rows) }

// ParseGridSize inverts String strictly: "CxR" with nothing else.
func ParseGridSize(s string) (GridSize, error) {
	c, r, ok := strings.Cut(strings.TrimSpace(s), "x")
	cols, errC := strconv.Atoi(c)
	rows, errR := strconv.Atoi(r)
	if !ok || errC != nil || errR != nil {
		return GridSize{}, fmt.Errorf("sim: bad grid size %q (want e.g. 16x16)", s)
	}
	return GridSize{Cols: cols, Rows: rows}, nil
}

// CampaignSpec describes a multi-dimensional Monte-Carlo campaign: the
// cross product of schemes, grid sizes, spare counts, hole counts,
// workloads, and runners, each cell replicated Replicates times. The
// JSON form is what cmd/sweep reads as a spec file.
type CampaignSpec struct {
	// Schemes to compare; empty means SR and AR (the paper's pairing).
	Schemes []SchemeKind `json:"schemes,omitempty"`
	// Grids to evaluate; empty means the paper's 16x16.
	Grids []GridSize `json:"grids,omitempty"`
	// Spares lists the swept spare counts N; empty means PaperNs.
	Spares []int `json:"spares,omitempty"`
	// Holes lists simultaneous hole counts; empty means {1}. Ignored by
	// workloads that do not scale with it (jam, or any workload pinning
	// its own hole count).
	Holes []int `json:"holes,omitempty"`
	// Workloads lists damage models as named workload specs; each entry
	// is one value of the campaign's damage dimension. Empty means
	// {holes}. Spec files written with the older "failures" name list
	// decode onto this field (see UnmarshalSpecJSON).
	Workloads []WorkloadSpec `json:"workloads,omitempty"`
	// Runners lists trial runners (sync rounds, async event stepping);
	// empty means {sync}. The async runner supports SR only.
	Runners []RunnerKind `json:"runners,omitempty"`
	// ClaimTTLs sweeps the claim-expiry knob as a campaign dimension
	// (the lossy-radio robustness axis). Empty means {0}: claims never
	// expire, the paper's reliable-channel model. Non-zero TTLs require
	// SR-family schemes and the sync runner. A workload's own TTL field
	// overrides the swept value for its trials.
	ClaimTTLs []int `json:"claim_ttls,omitempty"`
	// Replicates is the trial count per cell; zero means 20.
	Replicates int `json:"replicates,omitempty"`
	// BaseSeed anchors the deterministic per-replicate seed derivation.
	BaseSeed int64 `json:"seed,omitempty"`
	// Workers sizes the worker pool; values below 1 mean GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// CellFirst and CellCount restrict execution to the campaign cells
	// [CellFirst, CellFirst+CellCount), for sharding one campaign across
	// processes or machines. A cell is one (group, N) pair: in job order
	// it is Replicates consecutive jobs, so cell c is jobs
	// [c*Replicates, (c+1)*Replicates). A cell's trials depend only on
	// its own dimension values, the seed and the replicate count, so a
	// shard computes its cells byte for byte as the unsharded campaign
	// does, and the cells of disjoint shards stored in one
	// dispatch.CellStore assemble into the unsharded manifest. A zero
	// CellCount means every cell.
	CellFirst int `json:"cell_first,omitempty"`
	CellCount int `json:"cell_count,omitempty"`
	// FreshBuild routes every trial through the fresh world-building
	// path instead of the pooled per-worker TrialArena. Results are
	// byte-identical either way (the differential tests compare whole
	// manifests); the knob exists for those tests and for debugging
	// suspected pooling issues in the field.
	FreshBuild bool `json:"fresh_build,omitempty"`
	// CommRange, JamRadius, AdjacentHolesOK, ARInitProb, and ARMaxHops
	// pass through to every trial (zero values mean the trial defaults).
	CommRange       float64 `json:"comm_range,omitempty"`
	JamRadius       float64 `json:"jam_radius,omitempty"`
	AdjacentHolesOK bool    `json:"adjacent_holes_ok,omitempty"`
	ARInitProb      float64 `json:"ar_init_prob,omitempty"`
	ARMaxHops       int     `json:"ar_max_hops,omitempty"`

	// legacyDetect forces every trial onto the reference full-scan
	// detectors; set only by the differential tests that prove the
	// event-driven detectors reproduce the seed's campaign output byte
	// for byte.
	legacyDetect bool
}

func (s *CampaignSpec) normalize() {
	if len(s.Schemes) == 0 {
		s.Schemes = []SchemeKind{SR, AR}
	}
	if len(s.Grids) == 0 {
		s.Grids = []GridSize{{16, 16}}
	}
	if len(s.Spares) == 0 {
		s.Spares = PaperNs()
	}
	if len(s.Holes) == 0 {
		s.Holes = []int{1}
	}
	if len(s.Workloads) == 0 {
		s.Workloads = []WorkloadSpec{{Kind: WorkloadHoles}}
	}
	if s.Replicates == 0 {
		s.Replicates = 20
	}
}

// Validate rejects every spec JobSpace rejects, with the same error. A
// caller that goes on to run the campaign calls JobSpace instead and
// keeps the job space, so the checks run once.
func (s CampaignSpec) Validate() error {
	_, err := s.JobSpace()
	return err
}

// The campaign size limits: fixed bounds, far above every campaign the
// repository runs (the largest grid is 1024x1024 with 4,800 spares, the
// most replicates a few thousand), that keep one submitted spec from
// asking the engine for memory out of proportion to the request. Each
// is checked before the job space is laid out or a seed is derived.
const (
	maxReplicates = 1 << 20 // trials per cell
	maxGridCells  = 1 << 22 // cells per grid: 2048x2048
	maxSpares     = 1 << 20 // spare nodes per cell
	maxCells      = 1 << 16 // campaign cells, and so manifest points
	maxJobs       = 1 << 30 // trials in the campaign
)

// checkRanges rejects the layout values no job space can hold, and the
// sizes over the campaign limits; the per-trial ranges are
// TrialConfig.normalize's. A hole count below 1 matters even where a
// trial would accept it: the trial reads 0 as 1, so holes 0 beside
// holes 1 would run identical trials under two labels.
func (s CampaignSpec) checkRanges() error {
	if s.Replicates < 0 {
		return fmt.Errorf("sim: negative replicate count %d", s.Replicates)
	}
	if s.Replicates > maxReplicates {
		return fmt.Errorf("sim: replicates %d exceeds the limit of %d", s.Replicates, maxReplicates)
	}
	for _, h := range s.Holes {
		if h < 1 {
			return fmt.Errorf("sim: hole count %d below 1", h)
		}
	}
	for _, g := range s.Grids {
		if g.Cols > maxGridCells || g.Rows > maxGridCells || g.Cols > 0 && g.Rows > 0 && g.Cols*g.Rows > maxGridCells {
			return fmt.Errorf("sim: grids: %s exceeds the limit of %d cells per grid", g, maxGridCells)
		}
	}
	for _, n := range s.Spares {
		if n > maxSpares {
			return fmt.Errorf("sim: spares: %d exceeds the limit of %d spares per cell", n, maxSpares)
		}
	}
	// Count the cells as layout will lay them out, stopping at the limit
	// so no product overflows.
	cells := 0
	for _, wl := range s.Workloads {
		block := 1
		holes := len(s.Holes)
		if !wl.usesHolesDim() {
			holes = 1
		}
		for _, n := range []int{len(s.runnerDim()), len(s.ttlDim()), len(s.Grids), holes, len(s.Schemes), len(s.Spares)} {
			if block *= n; block > maxCells {
				break
			}
		}
		if cells += block; cells > maxCells {
			return fmt.Errorf("sim: the campaign has over the limit of %d cells "+
				"(schemes x grids x spares x holes x workloads x runners x claim_ttls)", maxCells)
		}
	}
	if jobs := cells * s.Replicates; jobs > maxJobs {
		return fmt.Errorf("sim: the campaign has %d jobs (cells x replicates), over the limit of %d", jobs, maxJobs)
	}
	return nil
}

// checkCellIdentities rejects a value listed twice in any dimension,
// and distinct values that label one curve (a workload pinning holes=3
// beside the swept holes=3). Either gives two cells one (group, N)
// identity, and the engine would fold them into one point of twice the
// replicates, every seed counted twice: a point no shard merge accepts
// and no one-cell content address (CellSpec) describes.
func (s CampaignSpec) checkCellIdentities(js JobSpace) error {
	for _, err := range []error{
		repeated("schemes", s.Schemes, equal),
		repeated("grids", s.Grids, equal),
		repeated("spares", s.Spares, equal),
		repeated("holes", s.Holes, equal),
		repeated("workloads", s.Workloads, func(a, b WorkloadSpec) bool { return reflect.DeepEqual(a, b) }),
		repeated("runners", s.Runners, equal),
		repeated("claim_ttls", s.ClaimTTLs, equal),
	} {
		if err != nil {
			return err
		}
	}
	groups := make(map[string]bool)
	for _, b := range js.blocks {
		for _, grp := range b.groups {
			if groups[grp] {
				return fmt.Errorf("sim: two of the campaign's cells share the group %q; "+
					"distinct dimension values must label distinct curves", grp)
			}
			groups[grp] = true
		}
	}
	return nil
}

// groupLabels returns the labels of a block's groups, one per (grid,
// holes, scheme) in job order.
func (s CampaignSpec) groupLabels(b jobBlock) []string {
	labels := make([]string, 0, len(s.Grids)*len(b.holes)*len(s.Schemes))
	for _, g := range s.Grids {
		for _, h := range b.holes {
			for _, k := range s.Schemes {
				j := TrialJob{Scheme: k, Grid: g, Holes: h, Workload: b.workload, Runner: b.runner, ClaimTTL: b.ttl}
				labels = append(labels, j.label())
			}
		}
	}
	return labels
}

// repeated reports the first value vals lists twice, naming the list.
func repeated[T any](list string, vals []T, same func(a, b T) bool) error {
	for i, v := range vals {
		for _, prev := range vals[:i] {
			if same(v, prev) {
				return fmt.Errorf("sim: %s lists %v twice", list, v)
			}
		}
	}
	return nil
}

func equal[T comparable](a, b T) bool { return a == b }

// ValidateUnsharded is the submission surface for services and caches
// that address whole campaigns: Validate plus a rejection of specs
// pinning a cell range, which it checks first. A shard spec's manifest covers only some of the
// campaign's cells, so content-addressing it under the full campaign's
// spec hash — which deliberately ignores shard layout — would poison
// the cache with partial results.
func (s CampaignSpec) ValidateUnsharded() error {
	if s.CellFirst != 0 || s.CellCount != 0 {
		return fmt.Errorf("sim: campaign pins the cell range [%d, +%d); "+
			"submit the unsharded spec", s.CellFirst, s.CellCount)
	}
	return s.Validate()
}

// ttlDim resolves the claim-TTL dimension; empty means {0} (claims
// never expire), so legacy specs keep their job indexing.
func (s CampaignSpec) ttlDim() []int {
	if len(s.ClaimTTLs) > 0 {
		return s.ClaimTTLs
	}
	return []int{0}
}

// runnerDim resolves the runner dimension; empty means sync only.
func (s CampaignSpec) runnerDim() []RunnerKind {
	if len(s.Runners) > 0 {
		return s.Runners
	}
	return []RunnerKind{RunSync}
}

// Normalized returns the spec with every empty dimension replaced by
// its default — the form a JobSpace holds and executes, and the one to
// echo into artifact labels and manifests.
func (s CampaignSpec) Normalized() CampaignSpec {
	s.normalize()
	return s
}

// EngineVersion numbers the results the trial engine computes. Every
// cell a dispatch.CellStore keeps records the version that computed it,
// and a cell of another version is a miss, so a stored cell is never
// served to an engine that would compute it differently. A change that
// moves any trial result bumps it and adds the new version's row to
// goldenCampaignHash (golden_test.go).
const EngineVersion = 1

// CellSpec returns the one-cell campaign of job j's cell: the
// normalized spec with every dimension list pinned to j's value (a
// workload that collapses the holes dimension pins the collapsed 1)
// and the execution-only fields — workers, fresh_build, the cell range
// — cleared. A cell's trials depend only on its own dimension values,
// the seed and the replicate count, so the one-cell campaign computes
// that cell byte for byte as s does, and its telemetry.SpecHash
// addresses the cell in any campaign that contains it.
func (s CampaignSpec) CellSpec(j TrialJob) CampaignSpec {
	s.normalize()
	s.Schemes = []SchemeKind{j.Scheme}
	s.Grids = []GridSize{j.Grid}
	s.Spares = []int{j.Spares}
	s.Holes = []int{j.Holes}
	s.Workloads = []WorkloadSpec{j.Workload}
	s.Runners = []RunnerKind{j.Runner}
	s.ClaimTTLs = []int{j.ClaimTTL}
	s.Workers, s.FreshBuild, s.CellFirst, s.CellCount = 0, false, 0, 0
	return s
}

// UnmarshalSpecJSON decodes a campaign spec strictly: unknown fields are
// an error, so a typoed dimension name fails loudly instead of silently
// running the default campaign. Every reader of a spec decodes through
// it: cmd/sweep's -spec files, manifest diffs and sweepd submissions.
//
// It is also the one place that reads the older spelling of the damage
// dimension, a "failures" list of names ("holes" or "jam", any case;
// an empty name means holes). Each name becomes the workload of that
// kind, in order, so an old spec file, manifest or shard runs the same
// jobs and hashes like its "workloads" equivalent. A spec that sets
// both lists is rejected.
//
// The older shard range, "shard_first"/"shard_count", addressed
// replicate blocks of every cell; shards now split whole cells
// (CellFirst/CellCount), so such a spec is rejected with that reason:
// the shard has to be re-run.
func UnmarshalSpecJSON(data []byte, spec *CampaignSpec) error {
	in := struct {
		*CampaignSpec
		Failures   []string        `json:"failures"`
		ShardFirst json.RawMessage `json:"shard_first"`
		ShardCount json.RawMessage `json:"shard_count"`
	}{CampaignSpec: spec}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return fmt.Errorf("sim: campaign spec: %w", err)
	}
	if in.ShardFirst != nil || in.ShardCount != nil {
		return fmt.Errorf("sim: campaign spec: shard_first/shard_count split every cell's replicates, " +
			"which shards no longer do: shards now split whole cells (cell_first/cell_count); re-run the shard")
	}
	if len(in.Failures) > 0 && len(spec.Workloads) > 0 {
		return fmt.Errorf("sim: campaign spec sets both failures and workloads; use workloads")
	}
	for _, f := range in.Failures {
		kind := strings.ToLower(strings.TrimSpace(f))
		switch kind {
		case "":
			kind = WorkloadHoles
		case WorkloadHoles, WorkloadJam:
		default:
			return fmt.Errorf("sim: campaign spec: unknown failure mode %q (want holes or jam)", f)
		}
		spec.Workloads = append(spec.Workloads, WorkloadSpec{Kind: kind})
	}
	return nil
}

// TrialJob is one fully resolved cell replicate of a campaign: every
// sweep dimension pinned plus the pre-derived seed, so executing it is a
// pure function of the job itself. The job is a plain value; its
// workload is identified by its spec, not a constructed instance. (It
// stopped being comparable with == when workload specs grew recursive
// Children; compare jobs with reflect.DeepEqual.)
type TrialJob struct {
	Scheme    SchemeKind
	Grid      GridSize
	Spares    int
	Holes     int
	Workload  WorkloadSpec
	Runner    RunnerKind
	ClaimTTL  int
	Replicate int
	Seed      int64

	// group is Group's label as JobSpace.At hands it out, computed once
	// per group; a job built by hand leaves it empty.
	group string
}

// Group names the curve this job belongs to in aggregated output: every
// dimension except the X axis (spares) and the replicate. Legacy
// dimensions keep their historical labels ("SR 16x16", "... jam",
// "... holes=3"); workload parameters and the async runner extend them.
func (j TrialJob) Group() string {
	if j.group != "" {
		return j.group
	}
	return j.label()
}

// label computes Group's label from the job's dimensions.
func (j TrialJob) label() string {
	g := fmt.Sprintf("%s %s", j.Scheme, j.Grid)
	if lbl := j.Workload.groupLabel(j.Holes); lbl != "" {
		g += " " + lbl
	}
	if j.Runner != RunSync {
		g += " " + j.Runner.String()
	}
	if j.ClaimTTL != 0 {
		g += fmt.Sprintf(" ttl=%d", j.ClaimTTL)
	}
	return g
}

// config resolves the job into a runnable trial configuration.
func (j TrialJob) config(s CampaignSpec) TrialConfig {
	return TrialConfig{
		Cols:            j.Grid.Cols,
		Rows:            j.Grid.Rows,
		CommRange:       s.CommRange,
		Spares:          j.Spares,
		Holes:           j.Holes,
		AdjacentHolesOK: s.AdjacentHolesOK,
		Workload:        j.Workload,
		Runner:          j.Runner,
		ClaimTTL:        j.ClaimTTL,
		JamRadius:       s.JamRadius,
		Scheme:          j.Scheme,
		Seed:            j.Seed,
		ARInitProb:      s.ARInitProb,
		ARMaxHops:       s.ARMaxHops,
		LegacyDetect:    s.legacyDetect,
	}
}

// JobSpace is a validated campaign: the lazily indexed job space of a
// normalized spec that passed every check, and the cells it executes.
// Job i is computed arithmetically from its index instead of
// materializing the whole cross product, so a 10^6-trial campaign
// costs O(replicates) setup memory (the shared seed table), not
// O(trials). Only CampaignSpec.JobSpace builds one; the zero JobSpace
// plans and runs nothing, with an error.
type JobSpace struct {
	spec   CampaignSpec
	seeds  []int64
	blocks []jobBlock
	total  int
	// lo and hi bound the cells [lo, hi) the job space executes: the
	// spec's cell range, or every cell.
	lo, hi int
}

// jobBlock is one (workload, runner, claim TTL) triple's contiguous
// index range.
type jobBlock struct {
	workload WorkloadSpec
	runner   RunnerKind
	ttl      int
	holes    []int
	start    int
	size     int
	// groups are the block's group labels in job order (JobSpace fills
	// them; layout alone leaves them nil).
	groups []string
}

// JobSpace validates the spec and lays out its job space, once. It
// rejects out-of-range values, unknown or malformed workloads, a value
// listed twice in a dimension, bad cell ranges, and any cell whose
// trials NewTrial would refuse: every cell's trial configuration is
// resolved the way a trial resolves it (TrialConfig.normalize, then the
// workload's schedule), so a per-trial range or a workload/scheme/runner
// pairing fails here, naming the cell, and never part-way through a
// campaign. The job space records the cells the spec executes; callers
// plan and run from it and never validate again.
//
// Jobs are indexed in the fixed nested order (workload, runner, ttl,
// grid, holes, scheme, spares, replicate); specs with one sync runner
// and the {0} TTL dimension keep the indexing they had before those
// dimensions existed. Replicate r uses the r-th seed derived from
// BaseSeed across every cell, so all schemes and configurations face
// statistically paired layouts, mirroring the paper's methodology of
// comparing SR and AR on identical damage.
func (s CampaignSpec) JobSpace() (JobSpace, error) {
	s.normalize()
	if err := s.checkRanges(); err != nil {
		return JobSpace{}, err
	}
	for _, w := range s.Workloads {
		if _, err := BuildWorkload(w); err != nil {
			return JobSpace{}, err
		}
	}
	js := s.layout()
	js.seeds = experiment.Seeds(s.BaseSeed, s.Replicates)
	for i := range js.blocks {
		js.blocks[i].groups = s.groupLabels(js.blocks[i])
	}
	if err := s.checkCellIdentities(js); err != nil {
		return JobSpace{}, err
	}
	if s.CellFirst < 0 || s.CellCount < 0 {
		return JobSpace{}, fmt.Errorf("sim: negative cell range [%d, +%d)", s.CellFirst, s.CellCount)
	}
	if s.CellCount == 0 && s.CellFirst != 0 {
		return JobSpace{}, fmt.Errorf("sim: cell_first %d without cell_count", s.CellFirst)
	}
	cells := js.total / s.Replicates
	if s.CellCount > 0 && s.CellFirst+s.CellCount > cells {
		return JobSpace{}, fmt.Errorf("sim: cell range [%d, %d) exceeds the campaign's %d cells",
			s.CellFirst, s.CellFirst+s.CellCount, cells)
	}
	for c := 0; c < cells; c++ {
		j := js.At(c * s.Replicates)
		cfg := j.config(s)
		err := cfg.normalize()
		if err == nil {
			_, err = resolveSchedule(&cfg)
		}
		if err != nil {
			return JobSpace{}, fmt.Errorf("sim: cell %d (%s N=%d): %w", c, j.Group(), j.Spares, err)
		}
	}
	js.lo, js.hi = 0, cells
	if s.CellCount > 0 {
		js.lo, js.hi = s.CellFirst, s.CellFirst+s.CellCount
	}
	return js, nil
}

// layout lays out the normalized spec's job blocks without deriving the
// replicate seeds, which only At needs.
func (s CampaignSpec) layout() JobSpace {
	js := JobSpace{spec: s}
	for _, wl := range s.Workloads {
		// A workload that does not scale with the holes dimension (jam's
		// disc decides; a pinned hole count overrides) collapses it, so
		// the campaign never replicates identical (config, seed) jobs
		// that would deflate the group's confidence intervals.
		holesDim := s.Holes
		if !wl.usesHolesDim() {
			holesDim = []int{1}
		}
		for _, runner := range s.runnerDim() {
			for _, ttl := range s.ttlDim() {
				size := len(s.Grids) * len(holesDim) * len(s.Schemes) * len(s.Spares) * s.Replicates
				js.blocks = append(js.blocks, jobBlock{
					workload: wl, runner: runner, ttl: ttl, holes: holesDim, start: js.total, size: size,
				})
				js.total += size
			}
		}
	}
	return js
}

// Len returns the total number of jobs.
func (js JobSpace) Len() int { return js.total }

// Spec returns the normalized spec the job space was built from.
func (js JobSpace) Spec() CampaignSpec { return js.spec }

// built rejects a job space CampaignSpec.JobSpace did not build: a
// validated one holds at least one job.
func (js JobSpace) built() error {
	if js.total == 0 {
		return fmt.Errorf("sim: job space not built by CampaignSpec.JobSpace")
	}
	return nil
}

// At returns job i. It panics when i is out of range.
func (js JobSpace) At(i int) TrialJob {
	if i < 0 || i >= js.total {
		panic(fmt.Sprintf("sim: job index %d outside [0, %d)", i, js.total))
	}
	var blk jobBlock
	for _, b := range js.blocks {
		if i < b.start+b.size {
			blk = b
			break
		}
	}
	s := js.spec
	j := i - blk.start
	group := blk.groups[j/(s.Replicates*len(s.Spares))]
	r := j % s.Replicates
	j /= s.Replicates
	spares := s.Spares[j%len(s.Spares)]
	j /= len(s.Spares)
	scheme := s.Schemes[j%len(s.Schemes)]
	j /= len(s.Schemes)
	holes := blk.holes[j%len(blk.holes)]
	j /= len(blk.holes)
	return TrialJob{
		Scheme:    scheme,
		Grid:      s.Grids[j],
		Spares:    spares,
		Holes:     holes,
		Workload:  blk.workload,
		Runner:    blk.runner,
		ClaimTTL:  blk.ttl,
		Replicate: r,
		Seed:      js.seeds[r],
		group:     group,
	}
}

// NumJobs returns the job count of the normalized spec: the sum of its
// block sizes, without expanding the jobs or deriving their seeds.
func (s CampaignSpec) NumJobs() int {
	s.normalize()
	return s.layout().total
}

// NumCells returns the cell count of the normalized spec: one cell per
// (group, N) pair, each Replicates consecutive jobs.
func (s CampaignSpec) NumCells() int {
	s.normalize()
	return s.layout().total / s.Replicates
}

// Cells calls fn for every cell the job space executes — the cell
// range applied — in cell order, with the cell's index and its first
// job (replicate 0), and returns fn's first error. PlanLocal sizes and
// addresses a run with it, one visit per cell.
func (js JobSpace) Cells(fn func(cell int, first TrialJob) error) error {
	if err := js.built(); err != nil {
		return err
	}
	for c := js.lo; c < js.hi; c++ {
		if err := fn(c, js.At(c*js.spec.Replicates)); err != nil {
			return err
		}
	}
	return nil
}

// ExecutedJobs calls fn for every job of the cells the spec executes
// that keep admits (nil keeps every job), in job-index order. A spec
// that fails validation executes no job.
func (s CampaignSpec) ExecutedJobs(keep func(TrialJob) bool, fn func(TrialJob)) {
	js, err := s.JobSpace()
	if err != nil {
		return
	}
	for i := js.lo * js.spec.Replicates; i < js.hi*js.spec.Replicates; i++ {
		if j := js.At(i); keep == nil || keep(j) {
			fn(j)
		}
	}
}

// SampleOf converts one trial outcome into the engine's aggregation
// currency: the job's curve identity, the spare count as X, every
// per-trial metric the paper's figures are built from in its
// experiment.Metric slot, and the exact converged and failed process
// counts. It allocates nothing: the group label comes from the job
// space's table.
func SampleOf(j TrialJob, res TrialResult) experiment.Sample {
	s := experiment.Sample{
		Group:     j.Group(),
		X:         float64(j.Spares),
		Converged: res.Summary.Converged,
		Failed:    res.Summary.Failed,
	}
	v := &s.Values
	v[experiment.Initiated] = float64(res.Summary.Initiated)
	v[experiment.Moves] = float64(res.Summary.Moves)
	v[experiment.Distance] = res.Summary.Distance
	v[experiment.Messages] = float64(res.Summary.Messages)
	v[experiment.SuccessRate] = res.Summary.SuccessRate()
	if res.Complete {
		v[experiment.Recovered] = 1
	}
	v[experiment.Rounds] = float64(res.Rounds)
	v[experiment.HolesBefore] = float64(res.HolesBefore)
	v[experiment.HolesAfter] = float64(res.HolesAfter)
	return s
}

// RunCampaignStream validates the spec and executes every cell it
// executes — the cell range applied — handing each trial's sample to
// sink in job-index order, never retaining a TrialResult: each result is
// converted to its Sample inside the worker and dropped once sunk.
// opts.Workers defaults to the spec's Workers field when unset; the
// sink sees a bit-identical stream for any worker count. A sink error
// aborts the campaign.
func RunCampaignStream(ctx context.Context, spec CampaignSpec, opts experiment.Options, sink func(TrialJob, experiment.Sample) error) error {
	if opts.Workers != 0 {
		spec.Workers = opts.Workers
	}
	js, err := spec.JobSpace()
	if err != nil {
		return err
	}
	cells := make([]int, js.hi-js.lo)
	for i := range cells {
		cells[i] = js.lo + i
	}
	return js.RunCells(ctx, cells, sink)
}

// RunCells executes the given cells, which must lie in the cells the
// job space executes (its cell range, or every cell) and ascend
// strictly: replicate r of cell c is job c*Replicates+r. Each trial's
// sample goes to sink with its job, in that order, so the stream is
// bit-identical to the matching slice of RunCampaignStream's — the
// property a run over stored cells relies on when it computes only the
// missing ones, and the cell range relies on for cross-process
// sharding. The pool has the spec's Workers goroutines.
//
// Each worker goroutine runs its trials inside a pooled TrialArena
// (unless the spec's FreshBuild), taken from the process-lived free
// list and returned when the campaign ends, so consecutive replicates —
// and consecutive campaigns — reuse the previous trial's memory instead
// of rebuilding the world; the differential tests pin that pooling
// never changes a byte of output.
func (js JobSpace) RunCells(ctx context.Context, cells []int, sink func(TrialJob, experiment.Sample) error) error {
	if err := js.built(); err != nil {
		return err
	}
	for i, c := range cells {
		if c < js.lo || c >= js.hi {
			return fmt.Errorf("sim: cell %d outside the executed cells [%d, %d)", c, js.lo, js.hi)
		}
		if i > 0 && c <= cells[i-1] {
			return fmt.Errorf("sim: cell %d after cell %d; cells must ascend", c, cells[i-1])
		}
	}
	spec := js.spec
	r := spec.Replicates
	job := func(i int) TrialJob { return js.At(cells[i/r]*r + i%r) }
	total := len(cells) * r
	opts := experiment.Options{Workers: spec.Workers}
	arenas := make([]*TrialArena, opts.WorkerCount(total))
	defer releaseArenas(arenas)
	return experiment.RunStream(ctx, total, opts,
		func(_ context.Context, w, i int) (experiment.Sample, error) {
			j := job(i)
			var res TrialResult
			var err error
			if spec.FreshBuild {
				res, err = RunTrial(j.config(spec))
			} else {
				if arenas[w] == nil {
					arenas[w] = acquireArena()
				}
				if res, err = arenas[w].RunTrial(j.config(spec)); err != nil {
					// A trial that failed part-way may leave the arena's
					// controller scratch mid-run; keep it out of the
					// free list.
					arenas[w] = nil
				}
			}
			if err != nil {
				return experiment.Sample{}, fmt.Errorf("%s N=%d replicate %d: %w",
					j.Group(), j.Spares, j.Replicate, err)
			}
			return SampleOf(j, res), nil
		},
		func(i int, s experiment.Sample) error { return sink(job(i), s) })
}

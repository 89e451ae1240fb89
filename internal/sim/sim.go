// Package sim is the experiment harness: it assembles networks in the
// paper's experimental configuration (Section 5), runs the SR and AR
// control schemes to convergence, and runs campaigns (CampaignSpec) over
// schemes, grids, spare counts, hole counts and workloads. A campaign's
// unit is the cell, one (group, N) pair with all its replicates.
// CampaignSpec.JobSpace validates a spec once, resolving every cell's
// trial configuration, and returns its JobSpace: the validated campaign
// that every later layer plans and runs from. JobSpace.Cells visits the
// cells it executes and JobSpace.RunCells runs chosen cells by index
// (RunCampaignStream validates and runs all of them). RunSweep folds a
// campaign into the per-cell sums behind every evaluation figure.
package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"wsncover/internal/ar"
	"wsncover/internal/core"
	"wsncover/internal/experiment"
	"wsncover/internal/hamilton"
	"wsncover/internal/metrics"
	"wsncover/internal/network"
	"wsncover/internal/node"
	"wsncover/internal/randx"
)

// Scheme is the common round-based interface of the replacement
// controllers (SR, SR+shortcut, AR).
type Scheme interface {
	// Name identifies the scheme in output.
	Name() string
	// Step runs one synchronous round.
	Step() error
	// Done reports whether no replacement process is active.
	Done() bool
	// Collector exposes the metrics collected so far.
	Collector() *metrics.Collector
	// Finalize fails all still-active processes at the round budget.
	Finalize()
}

// Statically verify the controllers satisfy the interface.
var (
	_ Scheme = (*core.Controller)(nil)
	_ Scheme = (*ar.Controller)(nil)
)

// SchemeKind selects a replacement scheme.
type SchemeKind int

// Available schemes. Enums start at 1 so the zero value is invalid.
const (
	// SR is the paper's synchronized Hamilton-cycle scheme.
	SR SchemeKind = iota + 1
	// SRShortcut is SR with the future-work 1-hop shortcut extension.
	SRShortcut
	// AR is the unsynchronized baseline of [3].
	AR
)

// String implements fmt.Stringer.
func (k SchemeKind) String() string {
	switch k {
	case SR:
		return "SR"
	case SRShortcut:
		return "SR+shortcut"
	case AR:
		return "AR"
	default:
		return fmt.Sprintf("SchemeKind(%d)", int(k))
	}
}

// ParseSchemeKind inverts String, accepting the spellings the CLIs use
// (case-insensitive; "SRS" abbreviates "SR+shortcut").
func ParseSchemeKind(s string) (SchemeKind, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "SR":
		return SR, nil
	case "SR+SHORTCUT", "SRS":
		return SRShortcut, nil
	case "AR":
		return AR, nil
	default:
		return 0, fmt.Errorf("sim: unknown scheme %q (want SR, SR+shortcut, or AR)", s)
	}
}

// MarshalJSON renders the scheme by name so sweep spec files stay
// readable.
func (k SchemeKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses a scheme name.
func (k *SchemeKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := ParseSchemeKind(s)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// PaperCommRange is the experimental communication range, R = 10 m.
const PaperCommRange = 10.0

// TrialConfig describes one simulation trial.
type TrialConfig struct {
	// Cols and Rows give the grid system size; the paper uses 16x16.
	Cols, Rows int
	// CommRange sets the communication range R from which the cell size
	// r = R/sqrt(5) is derived; zero means PaperCommRange (10 m, cells of
	// 4.4721 m).
	CommRange float64
	// Spares is the number of spare nodes N left in the network.
	Spares int
	// Holes is the number of simultaneous holes; the trial creates them
	// before the scheme starts. Zero means 1. Ignored by the jam
	// workload, where the jammed disc determines the damage.
	Holes int
	// AdjacentHolesOK permits holes in adjacent cells (harder case:
	// monitors of holes may themselves be vacant).
	AdjacentHolesOK bool
	// Workload selects the damage model as a named, parameterized spec
	// ({Kind: "churn", Every: 5, ...}). An empty Kind means the holes
	// workload, the paper's random vacant cells.
	Workload WorkloadSpec
	// Runner selects how the controller is stepped: synchronous global
	// rounds (the zero value, the paper's system model) or the
	// event-driven internal/async realization (SR only).
	Runner RunnerKind
	// JamRadius is the jam workload's disc radius when its spec sets no
	// Radius; zero means 1.5 cell sizes (a handful of neighboring cells).
	JamRadius float64
	// Scheme selects the controller.
	Scheme SchemeKind
	// Seed makes the trial reproducible.
	Seed int64
	// MaxRounds bounds the run; zero means 2*cells+16.
	MaxRounds int
	// ARInitProb and ARMaxHops tune the AR baseline (zero = defaults).
	ARInitProb float64
	ARMaxHops  int
	// EnergyModel optionally charges movement energy.
	EnergyModel node.EnergyModel
	// ClaimTTL expires a replacement claim whose process has made no
	// progress for that many rounds, letting detection retry the hole.
	// Zero means claims never expire (the paper's reliable-radio model).
	// SR-family schemes, sync runner only; also a campaign dimension
	// (CampaignSpec.ClaimTTLs) and set by the lossy/byzantine workloads.
	ClaimTTL int
	// MessageLoss drops each delivered message with this probability
	// (lossy radio). Zero means reliable delivery. Sync runner only; set
	// by the lossy workload.
	MessageLoss float64
	// ByzantineFrac corrupts that fraction of monitor cells: their heads
	// lie about vacancies, spawning phantom replacement processes.
	// ByzantineProb is the per-round lie probability of a corrupted
	// monitor, ByzantineLies bounds the lies each tells (0 = unlimited).
	// SR-family schemes, sync runner only; set by the byzantine workload.
	ByzantineFrac float64
	ByzantineProb float64
	ByzantineLies int
	// LegacyDetect runs SR and AR with their reference O(cells)
	// full-scan hole detectors instead of the event-driven ones fed by
	// the network vacancy journal. Each pair is bit-identical; the flag
	// exists for differential testing and benchmarking.
	LegacyDetect bool
	// LegacyAssembly once selected the trial assembly that predates
	// workloads. That assembly is gone; the field stays only so code
	// that still reads it compiles.
	//
	// Deprecated: it has no effect. Every trial runs through the
	// workload schedule, which reproduced the old assembly byte for byte
	// on every configuration it accepted.
	LegacyAssembly bool
}

func (cfg *TrialConfig) normalize() error {
	if cfg.Cols < 2 || cfg.Rows < 2 {
		return fmt.Errorf("sim: grid %dx%d too small", cfg.Cols, cfg.Rows)
	}
	// The float checks are written to fail on NaN as well.
	if !(cfg.CommRange >= 0) {
		return fmt.Errorf("sim: comm_range %g, want >= 0", cfg.CommRange)
	}
	if cfg.CommRange == 0 {
		cfg.CommRange = PaperCommRange
	}
	if cfg.Holes == 0 {
		cfg.Holes = 1
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 2*cfg.Cols*cfg.Rows + 16
	}
	if cfg.Scheme != SR && cfg.Scheme != SRShortcut && cfg.Scheme != AR {
		return fmt.Errorf("sim: unknown scheme %v", cfg.Scheme)
	}
	if cfg.Spares < 0 {
		return fmt.Errorf("sim: negative spare count %d", cfg.Spares)
	}
	if cfg.Workload.Kind == "" {
		// Parameters without a kind mean the default kind; BuildWorkload
		// then rejects parameters it does not take, so a forgotten Kind
		// fails loudly instead of being ignored.
		cfg.Workload.Kind = WorkloadHoles
	}
	if cfg.Runner != RunSync && cfg.Runner != RunAsync {
		return fmt.Errorf("sim: unknown runner %v", cfg.Runner)
	}
	if cfg.Runner == RunAsync && cfg.Scheme != SR {
		return fmt.Errorf("sim: the async runner supports the SR scheme only, not %v", cfg.Scheme)
	}
	if !(cfg.JamRadius >= 0) {
		return fmt.Errorf("sim: jam_radius %g, want >= 0", cfg.JamRadius)
	}
	if !(cfg.ARInitProb >= 0 && cfg.ARInitProb <= 1) {
		return fmt.Errorf("sim: ar_init_prob %g outside [0,1]", cfg.ARInitProb)
	}
	if cfg.ARMaxHops < 0 {
		return fmt.Errorf("sim: negative ar_max_hops %d", cfg.ARMaxHops)
	}
	if cfg.ClaimTTL < 0 {
		return fmt.Errorf("sim: negative claim TTL %d", cfg.ClaimTTL)
	}
	if cfg.MessageLoss < 0 || cfg.MessageLoss >= 1 {
		return fmt.Errorf("sim: message loss %g outside [0,1)", cfg.MessageLoss)
	}
	if cfg.ByzantineFrac < 0 || cfg.ByzantineFrac > 1 {
		return fmt.Errorf("sim: byzantine fraction %g outside [0,1]", cfg.ByzantineFrac)
	}
	if cfg.ByzantineProb < 0 || cfg.ByzantineProb > 1 {
		return fmt.Errorf("sim: byzantine probability %g outside [0,1]", cfg.ByzantineProb)
	}
	if cfg.ByzantineLies < 0 {
		return fmt.Errorf("sim: negative byzantine lie budget %d", cfg.ByzantineLies)
	}
	return nil
}

// TrialResult reports one trial's outcome.
type TrialResult struct {
	// Summary aggregates the scheme's replacement processes.
	Summary metrics.Summary
	// Rounds is the number of rounds executed.
	Rounds int
	// HolesBefore and HolesAfter count vacant cells before the scheme
	// started and after it finished.
	HolesBefore int
	HolesAfter  int
	// Complete reports whether every grid had a head at the end.
	Complete bool
	// Connected reports head-overlay connectivity at the end.
	Connected bool
}

// RunTrial builds the experimental configuration and runs the selected
// scheme over the configured workload's damage timeline: the workload
// deploys the population (one node per non-hole cell plus Spares spare
// nodes), its schedule events interleave with controller rounds, and the
// trial converges once no process and no barrier event is outstanding.
func RunTrial(cfg TrialConfig) (TrialResult, error) {
	t, err := NewTrial(cfg)
	if err != nil {
		return TrialResult{}, err
	}
	return t.Run()
}

// buildScheme constructs the configured controller over a deployed
// network, with an optional reusable metrics collector and controller
// scratch (the trial arena's; nil allocates fresh). The Hamilton
// topology comes from the process-wide hamilton.Shared cache: it
// depends only on the grid geometry, so every trial of a campaign
// shares one instance instead of rebuilding the O(cells) tables per
// trial.
func buildScheme(net *network.Network, cfg TrialConfig, rng *randx.Rand, col *metrics.Collector, scr *schemeScratch) (Scheme, error) {
	switch cfg.Scheme {
	case SR, SRShortcut:
		topo, err := hamilton.Shared(net.System())
		if err != nil {
			return nil, err
		}
		var scratch *core.Scratch
		if scr != nil {
			scratch = scr.forSR()
		}
		return core.New(net, core.Config{
			Topology:         topo,
			RNG:              rng,
			NeighborShortcut: cfg.Scheme == SRShortcut,
			FullScanDetect:   cfg.LegacyDetect,
			ClaimTTL:         cfg.ClaimTTL,
			ByzantineFrac:    cfg.ByzantineFrac,
			ByzantineProb:    cfg.ByzantineProb,
			ByzantineLies:    cfg.ByzantineLies,
			Collector:        col,
			Scratch:          scratch,
		})
	case AR:
		var scratch *ar.Scratch
		if scr != nil {
			scratch = scr.forAR()
		}
		return ar.New(net, ar.Config{
			RNG:            rng,
			InitProb:       cfg.ARInitProb,
			MaxHops:        cfg.ARMaxHops,
			FullScanDetect: cfg.LegacyDetect,
			Collector:      col,
			Scratch:        scratch,
		}), nil
	default:
		return nil, fmt.Errorf("sim: unknown scheme %v", cfg.Scheme)
	}
}

// SweepPoint sums the trials of one campaign cell: one scheme at one
// hole count and spare count.
type SweepPoint struct {
	// Scheme and Holes name the cell's curve.
	Scheme SchemeKind
	Holes  int
	// N is the spare count (x axis of every figure).
	N int
	// Summary is the sum over trials, the unit of Figures 6a, 7a, 8a.
	// It carries Initiated, Converged, Failed, Moves, Distance and
	// Messages; the other fields are zero.
	Summary metrics.Summary
	// Trials is the number of trials aggregated.
	Trials int
	// Recovered counts trials that ended with complete coverage.
	Recovered int
}

// MeanMovesPerTrial returns average movements per trial.
func (p SweepPoint) MeanMovesPerTrial() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Summary.Moves) / float64(p.Trials)
}

// RunSweep runs the campaign and sums each cell's trials into one
// SweepPoint, in cell order. The figures need sums rather than the
// manifest's per-cell means: Figs 6a, 7a and 8a plot totals, and Fig 6b
// is the pooled rate sum(converged)/sum(initiated). Every count is
// exact: the converged and failed counts come from the sample's integer
// counters, and the other counts are integers the sample carries as
// float64 values, which hold them exactly.
func RunSweep(ctx context.Context, spec CampaignSpec) ([]SweepPoint, error) {
	var out []SweepPoint
	err := RunCampaignStream(ctx, spec, experiment.Options{}, func(j TrialJob, s experiment.Sample) error {
		if j.Replicate == 0 {
			out = append(out, SweepPoint{Scheme: j.Scheme, Holes: j.Holes, N: j.Spares})
		}
		p := &out[len(out)-1]
		v := &s.Values
		p.Summary = p.Summary.Add(metrics.Summary{
			Initiated: int(v[experiment.Initiated]),
			Converged: s.Converged,
			Failed:    s.Failed,
			Moves:     int(v[experiment.Moves]),
			Distance:  v[experiment.Distance],
			Messages:  int(v[experiment.Messages]),
		})
		p.Trials++
		if v[experiment.Recovered] == 1 {
			p.Recovered++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PaperNs returns the spare counts of the paper's x axis: 10 to 1000.
func PaperNs() []int {
	return []int{10, 25, 40, 55, 70, 100, 150, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
}

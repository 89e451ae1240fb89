package wsncover

import (
	"context"
	"fmt"

	"wsncover/internal/sim"
)

// SweepOptions configures a Monte-Carlo comparison sweep over the spare
// count N, the evaluation of Section 5 exposed through the facade.
type SweepOptions struct {
	// Schemes to compare; empty means SR and AR (the paper's pairing).
	// A scheme listed twice is an error.
	Schemes []Scheme
	// Cols and Rows size the grid; zero means the paper's 16x16.
	Cols, Rows int
	// Spares lists the swept spare counts N; empty means the paper's
	// x axis (10..1000). A spare count listed twice is an error.
	Spares []int
	// Holes per trial; zero means 1, and a negative count is an error.
	Holes int
	// Workload selects the damage model over the trial timeline; the
	// zero value is the paper's random pre-placed holes. See Workload
	// for the available kinds and parameters.
	Workload Workload
	// Trials per (scheme, N) point; zero means 20, and a negative count
	// is an error.
	Trials int
	// Seed anchors all trials: trial t draws the t-th seed derived from
	// Seed under every scheme, so the schemes face identical damage.
	Seed int64
	// Workers sizes the parallel trial pool; values below 1 mean
	// GOMAXPROCS. Results are bit-identical for any worker count.
	Workers int
}

// SweepPoint aggregates the trials of one scheme at one spare count.
type SweepPoint struct {
	// N is the spare count.
	N int
	// Trials is the number of trials aggregated.
	Trials int
	// RecoveryRate is the percentage of trials that ended with complete
	// coverage.
	RecoveryRate float64
	// SuccessRate is the percentage of replacement processes that
	// converged (Figure 6b).
	SuccessRate float64
	// MeanMoves and MeanDistance are per-trial averages (Figures 7, 8).
	MeanMoves    float64
	MeanDistance float64
}

// SweepSeries is one scheme's curve over the swept spare counts.
type SweepSeries struct {
	Scheme Scheme
	Points []SweepPoint
}

func (s Scheme) kind() (sim.SchemeKind, error) {
	switch s {
	case SR:
		return sim.SR, nil
	case SRShortcut:
		return sim.SRShortcut, nil
	case AR:
		return sim.AR, nil
	default:
		return 0, fmt.Errorf("wsncover: unknown scheme %v", s)
	}
}

// Sweep runs seeded recovery trials for every scheme and spare count as
// one campaign on the parallel experiment engine and returns one
// aggregated curve per scheme. Equal options produce bit-identical
// curves regardless of the worker count or core count.
func Sweep(ctx context.Context, opts SweepOptions) ([]SweepSeries, error) {
	if len(opts.Schemes) == 0 {
		opts.Schemes = []Scheme{SR, AR}
	}
	if opts.Cols == 0 {
		opts.Cols = 16
	}
	if opts.Rows == 0 {
		opts.Rows = 16
	}
	spec := sim.CampaignSpec{
		Grids:      []sim.GridSize{{Cols: opts.Cols, Rows: opts.Rows}},
		Spares:     opts.Spares,
		Replicates: opts.Trials,
		BaseSeed:   opts.Seed,
		Workers:    opts.Workers,
	}
	for _, scheme := range opts.Schemes {
		kind, err := scheme.kind()
		if err != nil {
			return nil, err
		}
		spec.Schemes = append(spec.Schemes, kind)
	}
	if opts.Holes != 0 {
		spec.Holes = []int{opts.Holes}
	}
	// Pass a non-zero workload through even without a Kind: validation
	// resolves the default kind and rejects parameters it does not take,
	// so a forgotten Kind errors instead of silently sweeping the wrong
	// scenario.
	if opts.Workload != (Workload{}) {
		spec.Workloads = []sim.WorkloadSpec{opts.Workload.spec()}
	}
	pts, err := sim.RunSweep(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("wsncover: sweep: %w", err)
	}
	// Cells come in scheme order, each scheme's spare counts in turn.
	perScheme := len(pts) / len(opts.Schemes)
	out := make([]SweepSeries, len(opts.Schemes))
	for i, scheme := range opts.Schemes {
		out[i] = SweepSeries{Scheme: scheme, Points: make([]SweepPoint, perScheme)}
		for k, p := range pts[i*perScheme : (i+1)*perScheme] {
			out[i].Points[k] = SweepPoint{
				N:            p.N,
				Trials:       p.Trials,
				RecoveryRate: 100 * float64(p.Recovered) / float64(p.Trials),
				SuccessRate:  p.Summary.SuccessRate(),
				MeanMoves:    p.MeanMovesPerTrial(),
				MeanDistance: p.Summary.Distance / float64(p.Trials),
			}
		}
	}
	return out, nil
}

package figures

import (
	"context"
	"fmt"

	"wsncover/internal/plotdata"
	"wsncover/internal/sim"
)

// Extension experiments beyond the paper's figures: scalability in the
// grid size and robustness under simultaneous holes. cmd/figures runs
// them beside the figure series, and the BenchmarkExt benchmarks time
// them.

// ScalabilityConfig parameterizes the grid-size sweep.
type ScalabilityConfig struct {
	// Sizes lists square grid side lengths to evaluate.
	Sizes []int
	// SpareDensity is the spare count per cell (N = density * cells).
	SpareDensity float64
	// Trials per point; zero means 30.
	Trials int
	// Seed anchors the trials.
	Seed int64
	// Workers sizes the trial worker pool; below 1 means GOMAXPROCS.
	Workers int
}

// Scalability sweeps the grid size at constant spare density and reports
// mean movements per replacement for SR and AR. Under Theorem 2, constant
// density keeps SR's per-replacement cost nearly flat while the field
// grows — the scheme's scalability argument.
func Scalability(cfg ScalabilityConfig) (*plotdata.Table, error) {
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = []int{8, 12, 16, 20, 24}
	}
	if cfg.SpareDensity == 0 {
		cfg.SpareDensity = 0.75
	}
	if cfg.Trials == 0 {
		cfg.Trials = 30
	}
	x := plotdata.IntsToFloats(cfg.Sizes)
	srY := make([]float64, len(cfg.Sizes))
	arY := make([]float64, len(cfg.Sizes))
	for i, size := range cfg.Sizes {
		pts, err := sim.RunSweep(context.TODO(), sim.CampaignSpec{
			Schemes:    []sim.SchemeKind{sim.SR, sim.AR},
			Grids:      []sim.GridSize{{Cols: size, Rows: size}},
			Spares:     []int{int(cfg.SpareDensity * float64(size*size))},
			Replicates: cfg.Trials,
			BaseSeed:   cfg.Seed,
			Workers:    cfg.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("figures: scalability %dx%d: %w", size, size, err)
		}
		srY[i], arY[i] = pts[0].MeanMovesPerTrial(), pts[1].MeanMovesPerTrial()
	}
	return plotdata.NewTable(
		fmt.Sprintf("Extension: moves per replacement vs grid size (density %.2f spares/cell)",
			cfg.SpareDensity),
		"grid side", "moves per replacement",
		x,
		plotdata.Series{Label: "SR", Y: srY},
		plotdata.Series{Label: "AR", Y: arY},
	)
}

// MultiHoleConfig parameterizes the simultaneous-hole sweep.
type MultiHoleConfig struct {
	// Holes lists the simultaneous hole counts to evaluate.
	Holes []int
	// Spares is the fixed spare budget.
	Spares int
	// Trials per point; zero means 30.
	Trials int
	// Seed anchors the trials.
	Seed int64
	// Workers sizes the trial worker pool; below 1 means GOMAXPROCS.
	Workers int
}

// MultiHole sweeps the number of simultaneous holes on the paper's 16x16
// grid and reports the recovery rate (trials ending with complete
// coverage) for SR and AR. SR's conflict-free processes keep recovering
// as long as spares outnumber holes; AR's redundant processes waste
// spares and abandon displaced vacancies.
func MultiHole(cfg MultiHoleConfig) (*plotdata.Table, error) {
	if len(cfg.Holes) == 0 {
		cfg.Holes = []int{1, 2, 4, 8, 12}
	}
	if cfg.Spares == 0 {
		cfg.Spares = 60
	}
	if cfg.Trials == 0 {
		cfg.Trials = 30
	}
	pts, err := sim.RunSweep(context.TODO(), sim.CampaignSpec{
		Schemes:    []sim.SchemeKind{sim.SR, sim.AR},
		Grids:      []sim.GridSize{{Cols: 16, Rows: 16}},
		Spares:     []int{cfg.Spares},
		Holes:      cfg.Holes,
		Replicates: cfg.Trials,
		BaseSeed:   cfg.Seed,
		Workers:    cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("figures: multihole: %w", err)
	}
	// Cells come in (holes, scheme) order: SR then AR at each hole count.
	x := plotdata.IntsToFloats(cfg.Holes)
	srY := make([]float64, len(cfg.Holes))
	arY := make([]float64, len(cfg.Holes))
	for i := range cfg.Holes {
		sr, ar := pts[2*i], pts[2*i+1]
		srY[i] = 100 * float64(sr.Recovered) / float64(sr.Trials)
		arY[i] = 100 * float64(ar.Recovered) / float64(ar.Trials)
	}
	return plotdata.NewTable(
		fmt.Sprintf("Extension: full-recovery rate vs simultaneous holes (N=%d)", cfg.Spares),
		"simultaneous holes", "recovered trials (%)",
		x,
		plotdata.Series{Label: "SR", Y: srY},
		plotdata.Series{Label: "AR", Y: arY},
	)
}

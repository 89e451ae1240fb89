// Package figures regenerates the data series behind every evaluation
// figure of the paper (Figures 3, 5, 6, 7, 8). Analytical figures come
// from the Theorem 2 model; experimental figures come from a seeded
// campaign over the spare count N on the paper's 16x16 grid.
//
// Figure index (cmd/figures writes each series as CSV and an ASCII
// chart):
//
//	fig3a / fig3b : analytical E[moves] per replacement, 4x5 (L=19) and
//	                16x16 (L=255) grid systems
//	fig5a / fig5b : estimated total moving distance per replacement, r=10
//	fig6a         : replacement processes initiated, AR vs SR
//	fig6b         : process success rate (%), AR vs SR
//	fig7a / fig7b : experimental vs analytical number of node movements
//	fig8a / fig8b : experimental vs analytical total moving distance (m)
package figures

import (
	"context"
	"fmt"

	"wsncover/internal/analytic"
	"wsncover/internal/plotdata"
	"wsncover/internal/sim"
)

// Config parameterizes the experimental campaign.
type Config struct {
	// Trials per (scheme, N) point; the paper aggregates on the order of
	// a hundred runs per point. Zero means 100.
	Trials int
	// Seed anchors all trials: replicate r draws the r-th seed derived
	// from Seed (experiment.Seeds) under both schemes, so they face
	// identical layouts.
	Seed int64
	// Ns overrides the swept spare counts; nil means sim.PaperNs().
	Ns []int
	// Cols and Rows override the grid; zero means the paper's 16x16.
	Cols, Rows int
	// Holes per trial; zero means 1.
	Holes int
	// Workers sizes the trial worker pool of the underlying experiment
	// engine; values below 1 mean GOMAXPROCS. Figure data is
	// bit-identical for any worker count.
	Workers int
}

func (c *Config) normalize() {
	if c.Trials == 0 {
		c.Trials = 100
	}
	if len(c.Ns) == 0 {
		c.Ns = sim.PaperNs()
	}
	if c.Cols == 0 {
		c.Cols = 16
	}
	if c.Rows == 0 {
		c.Rows = 16
	}
	if c.Holes == 0 {
		c.Holes = 1
	}
}

// Fig3 produces the analytical movement-count curves of Figure 3:
// (a) the 4x5 grid system (L=19), N from 1 to 140;
// (b) the 16x16 grid system (L=255), N from 10 to 1400.
func Fig3() (a, b *plotdata.Table, err error) {
	nsA := rangeInts(1, 140, 1)
	ya, err := analytic.Series(nsA, 19)
	if err != nil {
		return nil, nil, err
	}
	a, err = plotdata.NewTable(
		"Fig 3(a): analytical #moves per replacement, 4x5 grid (L=19)",
		"N", "# of moves",
		plotdata.IntsToFloats(nsA),
		plotdata.Series{Label: "Analytical", Y: ya},
	)
	if err != nil {
		return nil, nil, err
	}
	nsB := rangeInts(10, 1400, 10)
	yb, err := analytic.Series(nsB, 255)
	if err != nil {
		return nil, nil, err
	}
	b, err = plotdata.NewTable(
		"Fig 3(b): analytical #moves per replacement, 16x16 grid (L=255)",
		"N", "# of moves",
		plotdata.IntsToFloats(nsB),
		plotdata.Series{Label: "Analytical", Y: yb},
	)
	return a, b, err
}

// Fig5 produces the moving-distance estimates of Figure 5 with r = 10.
func Fig5() (a, b *plotdata.Table, err error) {
	const r = 10.0
	nsA := rangeInts(1, 140, 1)
	ya, err := analytic.DistanceSeries(nsA, 19, r)
	if err != nil {
		return nil, nil, err
	}
	a, err = plotdata.NewTable(
		"Fig 5(a): estimated total moving distance per replacement, 4x5 grid (r=10)",
		"N", "total moving distance",
		plotdata.IntsToFloats(nsA),
		plotdata.Series{Label: "Estimate", Y: ya},
	)
	if err != nil {
		return nil, nil, err
	}
	nsB := rangeInts(10, 1000, 10)
	yb, err := analytic.DistanceSeries(nsB, 255, r)
	if err != nil {
		return nil, nil, err
	}
	b, err = plotdata.NewTable(
		"Fig 5(b): estimated total moving distance per replacement, 16x16 grid (r=10)",
		"N", "total moving distance",
		plotdata.IntsToFloats(nsB),
		plotdata.Series{Label: "Estimate", Y: yb},
	)
	return a, b, err
}

// Experimental bundles the tables of Figures 6, 7, and 8, which share
// one SR and AR campaign.
type Experimental struct {
	Fig6a *plotdata.Table // replacement processes initiated
	Fig6b *plotdata.Table // success rate (%)
	Fig7a *plotdata.Table // experimental #moves, AR vs SR
	Fig7b *plotdata.Table // analytical #moves, SR
	Fig8a *plotdata.Table // experimental total distance, AR vs SR
	Fig8b *plotdata.Table // analytical total distance, SR
}

// RunExperimental runs one SR and AR campaign on the parallel
// experiment engine and assembles Figures 6-8.
func RunExperimental(cfg Config) (*Experimental, error) {
	cfg.normalize()
	pts, err := sim.RunSweep(context.TODO(), sim.CampaignSpec{
		Schemes:    []sim.SchemeKind{sim.SR, sim.AR},
		Grids:      []sim.GridSize{{Cols: cfg.Cols, Rows: cfg.Rows}},
		Spares:     cfg.Ns,
		Holes:      []int{cfg.Holes},
		Replicates: cfg.Trials,
		BaseSeed:   cfg.Seed,
		Workers:    cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("figures: %w", err)
	}
	// Cells come in scheme order: every SR spare count, then every AR one.
	srPts, arPts := pts[:len(cfg.Ns)], pts[len(cfg.Ns):]

	x := plotdata.IntsToFloats(cfg.Ns)
	pick := func(pts []sim.SweepPoint, f func(sim.SweepPoint) float64) []float64 {
		out := make([]float64, len(pts))
		for i, p := range pts {
			out[i] = f(p)
		}
		return out
	}

	out := &Experimental{}
	out.Fig6a, err = plotdata.NewTable(
		fmt.Sprintf("Fig 6(a): replacement processes initiated (%d trials/point)", cfg.Trials),
		"N", "# of replacement processes",
		x,
		plotdata.Series{Label: "AR", Y: pick(arPts, func(p sim.SweepPoint) float64 { return float64(p.Summary.Initiated) })},
		plotdata.Series{Label: "SR", Y: pick(srPts, func(p sim.SweepPoint) float64 { return float64(p.Summary.Initiated) })},
	)
	if err != nil {
		return nil, err
	}
	out.Fig6b, err = plotdata.NewTable(
		"Fig 6(b): replacement success rate (%)",
		"N", "percentage",
		x,
		plotdata.Series{Label: "AR", Y: pick(arPts, func(p sim.SweepPoint) float64 { return p.Summary.SuccessRate() })},
		plotdata.Series{Label: "SR", Y: pick(srPts, func(p sim.SweepPoint) float64 { return p.Summary.SuccessRate() })},
	)
	if err != nil {
		return nil, err
	}
	out.Fig7a, err = plotdata.NewTable(
		"Fig 7(a): number of node movements (experimental)",
		"N", "# of node moves",
		x,
		plotdata.Series{Label: "AR", Y: pick(arPts, func(p sim.SweepPoint) float64 { return float64(p.Summary.Moves) })},
		plotdata.Series{Label: "SR", Y: pick(srPts, func(p sim.SweepPoint) float64 { return float64(p.Summary.Moves) })},
	)
	if err != nil {
		return nil, err
	}

	l := cfg.Cols*cfg.Rows - 1
	if cfg.Cols%2 == 1 && cfg.Rows%2 == 1 {
		l = cfg.Cols*cfg.Rows - 2 // Corollary 2
	}
	anMoves := make([]float64, len(cfg.Ns))
	for i, n := range cfg.Ns {
		m, err := analytic.Moves(n, l)
		if err != nil {
			return nil, err
		}
		anMoves[i] = m * float64(cfg.Trials) * float64(cfg.Holes)
	}
	out.Fig7b, err = plotdata.NewTable(
		"Fig 7(b): number of node movements (analytical SR)",
		"N", "# of node moves",
		x,
		plotdata.Series{Label: "SR", Y: anMoves},
	)
	if err != nil {
		return nil, err
	}

	out.Fig8a, err = plotdata.NewTable(
		"Fig 8(a): total moving distance of nodes, meters (experimental)",
		"N", "total moving distance",
		x,
		plotdata.Series{Label: "AR", Y: pick(arPts, func(p sim.SweepPoint) float64 { return p.Summary.Distance })},
		plotdata.Series{Label: "SR", Y: pick(srPts, func(p sim.SweepPoint) float64 { return p.Summary.Distance })},
	)
	if err != nil {
		return nil, err
	}

	r := sim.PaperCommRange / 2.2360679774997896964091736687747
	anDist := make([]float64, len(anMoves))
	for i := range anMoves {
		anDist[i] = anMoves[i] * analytic.MeanHopDistanceFactor * r
	}
	out.Fig8b, err = plotdata.NewTable(
		"Fig 8(b): total moving distance of nodes, meters (analytical SR)",
		"N", "total moving distance",
		x,
		plotdata.Series{Label: "SR", Y: anDist},
	)
	return out, err
}

// All returns every figure table keyed by its id, running the experimental
// campaign with cfg.
func All(cfg Config) (map[string]*plotdata.Table, error) {
	f3a, f3b, err := Fig3()
	if err != nil {
		return nil, err
	}
	f5a, f5b, err := Fig5()
	if err != nil {
		return nil, err
	}
	exp, err := RunExperimental(cfg)
	if err != nil {
		return nil, err
	}
	return map[string]*plotdata.Table{
		"fig3a": f3a, "fig3b": f3b,
		"fig5a": f5a, "fig5b": f5b,
		"fig6a": exp.Fig6a, "fig6b": exp.Fig6b,
		"fig7a": exp.Fig7a, "fig7b": exp.Fig7b,
		"fig8a": exp.Fig8a, "fig8b": exp.Fig8b,
	}, nil
}

// rangeInts returns lo, lo+step, ..., capped at hi.
func rangeInts(lo, hi, step int) []int {
	var out []int
	for n := lo; n <= hi; n += step {
		out = append(out, n)
	}
	return out
}

// Command coveragesim runs one configurable hole-recovery simulation and
// reports the cost metrics of the selected control scheme.
//
// Usage:
//
//	coveragesim [-grid 16x16] [-scheme SR|SR+shortcut|AR] [-spares n]
//	            [-holes h] [-failure holes|jam] [-jam-radius r]
//	            [-seed s] [-show] [-adjacent]
//
// -show renders the grid occupancy before and after recovery. -failure
// names the trial's damage workload: holes (the default, random vacant
// cells) or jam, a jammed disc at a random center (the region attack of
// Xu et al.) whose hole count is emergent from -jam-radius. The damage
// line lists the vacant cells the network has before the scheme runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"wsncover/internal/coverage"
	"wsncover/internal/sim"
	"wsncover/internal/visual"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "coveragesim:", err)
		os.Exit(1)
	}
}

func parseGrid(s string) (cols, rows int, err error) {
	g, err := sim.ParseGridSize(s)
	if err != nil {
		return 0, 0, err
	}
	return g.Cols, g.Rows, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("coveragesim", flag.ContinueOnError)
	var (
		gridSpec  = fs.String("grid", "16x16", "grid system size, CxR")
		schemeS   = fs.String("scheme", "SR", "control scheme: SR, SR+shortcut, or AR")
		spares    = fs.Int("spares", 100, "spare nodes N in the network")
		holes     = fs.Int("holes", 1, "simultaneous holes to create")
		failureS  = fs.String("failure", "holes", "damage model: holes (random vacant cells) or jam (disc attack)")
		jamRadius = fs.Float64("jam-radius", 0, "jammed disc radius in meters (0 = 1.5 cells)")
		seed      = fs.Int64("seed", 1, "random seed")
		show      = fs.Bool("show", false, "render grid occupancy before/after")
		adjacent  = fs.Bool("adjacent", false, "allow adjacent hole cells")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cols, rows, err := parseGrid(*gridSpec)
	if err != nil {
		return err
	}
	scheme, err := sim.ParseSchemeKind(*schemeS)
	if err != nil {
		return err
	}
	failure := strings.ToLower(strings.TrimSpace(*failureS))
	if failure != sim.WorkloadHoles && failure != sim.WorkloadJam {
		return fmt.Errorf("unknown failure mode %q (want holes or jam)", *failureS)
	}

	// Assemble the trial explicitly (rather than via sim.RunTrial) so
	// -show can render the damaged network before the scheme runs; the
	// trial is the one sim.RunTrial runs at the same seed.
	trial, err := sim.NewTrial(sim.TrialConfig{
		Cols: cols, Rows: rows, Scheme: scheme, Spares: *spares,
		Holes: *holes, AdjacentHolesOK: *adjacent,
		Workload: sim.WorkloadSpec{Kind: failure}, JamRadius: *jamRadius,
		Seed: *seed,
	})
	if err != nil {
		return err
	}
	net := trial.Network()
	sys := net.System()
	holeCells := coverage.Holes(net)
	fmt.Printf("grid %dx%d (r=%.4f m, R=%.1f m), N=%d spares, %s damage: %d hole(s) at %v\n",
		cols, rows, sys.CellSize(), sys.CommRange(), *spares, failure, len(holeCells), holeCells)
	if *show {
		fmt.Println("before:")
		fmt.Print(visual.Network(net))
	}

	res, err := trial.Run()
	if err != nil {
		return err
	}

	if *show {
		fmt.Println("after:")
		fmt.Print(visual.Network(net))
	}
	s := res.Summary
	fmt.Printf("scheme=%s rounds=%d\n", scheme, res.Rounds)
	fmt.Printf("processes initiated=%d converged=%d failed=%d success=%.1f%%\n",
		s.Initiated, s.Converged, s.Failed, s.SuccessRate())
	fmt.Printf("node movements=%d total distance=%.2f m messages=%d\n",
		s.Moves, s.Distance, s.Messages)
	fmt.Printf("coverage: holes=%d complete=%v connected=%v\n",
		res.HolesAfter, res.Complete, res.Connected)
	return nil
}

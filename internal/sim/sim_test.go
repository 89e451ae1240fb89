package sim

import (
	"context"
	"testing"

	"wsncover/internal/analytic"
)

func TestTrialConfigValidation(t *testing.T) {
	bad := []TrialConfig{
		{Cols: 1, Rows: 5, Scheme: SR},
		{Cols: 16, Rows: 16}, // missing scheme
		{Cols: 16, Rows: 16, Scheme: SchemeKind(9)},
		{Cols: 16, Rows: 16, Scheme: SR, Spares: -1},
	}
	for i, cfg := range bad {
		if _, err := RunTrial(cfg); err == nil {
			t.Errorf("case %d should fail: %+v", i, cfg)
		}
	}
}

func TestSchemeKindString(t *testing.T) {
	if SR.String() != "SR" || AR.String() != "AR" || SRShortcut.String() != "SR+shortcut" {
		t.Error("SchemeKind strings")
	}
	if SchemeKind(42).String() == "" {
		t.Error("invalid kind should render")
	}
}

func TestRunTrialSRBasics(t *testing.T) {
	res, err := RunTrial(TrialConfig{
		Cols: 8, Rows: 8, Scheme: SR, Spares: 20, Holes: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HolesBefore != 2 {
		t.Errorf("HolesBefore = %d", res.HolesBefore)
	}
	if res.HolesAfter != 0 || !res.Complete || !res.Connected {
		t.Errorf("result = %+v", res)
	}
	if res.Summary.Initiated != 2 || res.Summary.Converged != 2 {
		t.Errorf("summary = %v", res.Summary)
	}
	if res.Rounds < 1 {
		t.Error("no rounds recorded")
	}
}

func TestRunTrialDeterministicPerSeed(t *testing.T) {
	cfg := TrialConfig{Cols: 8, Rows: 8, Scheme: AR, Spares: 15, Holes: 2, Seed: 11}
	a, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary != b.Summary || a.Rounds != b.Rounds {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
	cfg.Seed = 12
	c, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary == c.Summary && a.Rounds == c.Rounds {
		t.Log("different seeds coincided (possible but suspicious)")
	}
}

func TestRunTrialDualPathGrid(t *testing.T) {
	// Odd x odd grid exercises Algorithm 2 end to end.
	res, err := RunTrial(TrialConfig{
		Cols: 5, Rows: 5, Scheme: SR, Spares: 4, Holes: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Errorf("dual-path recovery incomplete: %+v", res)
	}
	if res.Summary.SuccessRate() != 100 {
		t.Errorf("success = %v", res.Summary.SuccessRate())
	}
}

func TestRunTrialZeroSpares(t *testing.T) {
	res, err := RunTrial(TrialConfig{
		Cols: 6, Rows: 6, Scheme: SR, Spares: 0, Holes: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Error("cannot recover without spares")
	}
	if res.Summary.Failed != 1 {
		t.Errorf("summary = %v", res.Summary)
	}
}

func TestRunSweepShape(t *testing.T) {
	pts, err := RunSweep(context.Background(), CampaignSpec{
		Schemes:    []SchemeKind{SR},
		Grids:      []GridSize{{8, 8}},
		Spares:     []int{5, 20},
		Replicates: 5,
		BaseSeed:   100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for i, p := range pts {
		if p.Scheme != SR || p.Holes != 1 || p.N != []int{5, 20}[i] {
			t.Errorf("point %d = %v holes=%d N=%d", i, p.Scheme, p.Holes, p.N)
		}
		if p.Trials != 5 {
			t.Errorf("N=%d trials = %d", p.N, p.Trials)
		}
		if p.Summary.Initiated != 5 {
			t.Errorf("N=%d initiated = %d, want 5 (one per trial)", p.N, p.Summary.Initiated)
		}
		if p.Recovered != 5 {
			t.Errorf("N=%d recovered = %d", p.N, p.Recovered)
		}
	}
	// More spares, fewer movements.
	if pts[0].MeanMovesPerTrial() < pts[1].MeanMovesPerTrial() {
		t.Errorf("moves should decrease with N: %v vs %v",
			pts[0].MeanMovesPerTrial(), pts[1].MeanMovesPerTrial())
	}
}

// TestRunSweepMatchesTrialSums is the fold's reference: each point
// equals the sum of RunTrial over its cell's jobs, for every scheme, three
// hole counts and a churn workload. Converged and Failed come from the
// samples' integer counters, so the sums are exact even for a trial
// whose success rate does not give its converged count back exactly in
// floating point (success_rate*initiated/100 != converged); the test
// requires the spec to hold such a trial.
func TestRunSweepMatchesTrialSums(t *testing.T) {
	spec := CampaignSpec{
		Schemes:    []SchemeKind{SR, SRShortcut, AR},
		Grids:      []GridSize{{10, 10}},
		Spares:     []int{6, 30},
		Holes:      []int{1, 3, 10},
		Workloads:  []WorkloadSpec{{Kind: WorkloadHoles}, {Kind: WorkloadChurn, Every: 3, Waves: 2}},
		Replicates: 4,
		BaseSeed:   2008,
	}
	pts, err := RunSweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	js := jobSpace(t, spec)
	if len(pts)*spec.Replicates != js.Len() {
		t.Fatalf("%d points of %d trials for %d jobs", len(pts), spec.Replicates, js.Len())
	}
	inexact := 0
	for c, got := range pts {
		var want SweepPoint
		for r := 0; r < spec.Replicates; r++ {
			j := js.At(c*spec.Replicates + r)
			res, err := RunTrial(j.config(spec))
			if err != nil {
				t.Fatal(err)
			}
			if sum := res.Summary; sum.SuccessRate()*float64(sum.Initiated)/100 != float64(sum.Converged) {
				inexact++
			}
			want.Scheme, want.Holes, want.N = j.Scheme, j.Holes, j.Spares
			want.Summary = want.Summary.Add(res.Summary)
			want.Trials++
			if res.Complete {
				want.Recovered++
			}
		}
		if want.Summary.Active != 0 {
			t.Fatalf("cell %d: %d processes still active after the trials", c, want.Summary.Active)
		}
		// The fold does not carry the per-trial maxima.
		want.Summary.MaxHops, want.Summary.Rounds = 0, 0
		if got != want {
			t.Errorf("cell %d:\n got %+v\nwant %+v", c, got, want)
		}
	}
	if inexact == 0 {
		t.Error("no trial's converged count is inexact in floating point; the spec no longer probes exactness")
	}
	t.Logf("%d of %d trials have an inexact success_rate*initiated/100", inexact, js.Len())
}

func TestPaperNs(t *testing.T) {
	ns := PaperNs()
	if ns[0] != 10 || ns[len(ns)-1] != 1000 {
		t.Errorf("PaperNs = %v", ns)
	}
	for i := 1; i < len(ns); i++ {
		if ns[i] <= ns[i-1] {
			t.Error("PaperNs must increase")
		}
	}
}

// TestPaperClaims is the calibration test: it verifies on the paper's
// 16x16 configuration that the reproduction exhibits the qualitative
// results of Section 5. Tolerances are generous because each point uses a
// modest trial budget.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep is slow")
	}
	const trials = 40
	ns := []int{10, 55, 200}
	pts, err := RunSweep(context.Background(), CampaignSpec{
		Schemes:    []SchemeKind{SR, AR},
		Spares:     ns,
		Replicates: trials,
		BaseSeed:   4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range ns {
		sr, ar := pts[i], pts[len(ns)+i]

		// Claim: SR initiates exactly one process per hole; AR more than
		// twice as many ("fewer than 50% replacement processes are
		// needed in SR").
		if sr.Summary.Initiated != trials {
			t.Errorf("N=%d: SR initiated %d, want %d", n, sr.Summary.Initiated, trials)
		}
		if ar.Summary.Initiated <= 2*sr.Summary.Initiated {
			t.Errorf("N=%d: AR initiated %d, want > 2x SR (%d)",
				n, ar.Summary.Initiated, sr.Summary.Initiated)
		}

		// Claim: the success rate is always 100%% in SR.
		if sr.Summary.SuccessRate() != 100 {
			t.Errorf("N=%d: SR success = %v", n, sr.Summary.SuccessRate())
		}
		if sr.Recovered != trials {
			t.Errorf("N=%d: SR recovered %d/%d", n, sr.Recovered, trials)
		}

		switch n {
		case 10:
			// Claim: when N < 55, SR needs more movements (long Hamilton
			// path) while AR gives up early.
			if sr.Summary.Moves <= ar.Summary.Moves {
				t.Errorf("N=10: SR moves %d should exceed AR %d",
					sr.Summary.Moves, ar.Summary.Moves)
			}
			if ar.Summary.SuccessRate() >= sr.Summary.SuccessRate() {
				t.Errorf("N=10: AR success %v should trail SR",
					ar.Summary.SuccessRate())
			}
		case 55:
			// Claim: around N=55 AR fails 10-20% of its processes.
			fail := 100 - ar.Summary.SuccessRate()
			if fail < 2 || fail > 30 {
				t.Errorf("N=55: AR failure rate %v%% outside the paper band", fail)
			}
		case 200:
			// Claim: when N >= 55 SR needs fewer movements and less
			// distance while keeping a higher success rate.
			if sr.Summary.Moves >= ar.Summary.Moves {
				t.Errorf("N=200: SR moves %d should be below AR %d",
					sr.Summary.Moves, ar.Summary.Moves)
			}
			if sr.Summary.Distance >= ar.Summary.Distance {
				t.Errorf("N=200: SR distance %v should be below AR %v",
					sr.Summary.Distance, ar.Summary.Distance)
			}
		}
	}
}

// TestSRMatchesAnalytic verifies Figure 7's claim that SR's experimental
// movement counts track the Theorem 2 prediction.
func TestSRMatchesAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical sweep is slow")
	}
	const trials = 150
	pts, err := RunSweep(context.Background(), CampaignSpec{
		Schemes:    []SchemeKind{SR},
		Spares:     []int{55, 200},
		Replicates: trials,
		BaseSeed:   8000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		n := p.N
		obs := p.MeanMovesPerTrial()
		want, err := analytic.Moves(n, 255)
		if err != nil {
			t.Fatal(err)
		}
		ratio := obs / want
		if ratio < 0.7 || ratio > 1.3 {
			t.Errorf("N=%d: observed %.2f moves/replacement vs analytic %.2f (ratio %.2f)",
				n, obs, want, ratio)
		}
	}
}

// TestSRDistanceMatchesEstimate verifies Figure 8's distance estimate:
// total distance ~ moves * 1.08 * r.
func TestSRDistanceMatchesEstimate(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical sweep is slow")
	}
	pts, err := RunSweep(context.Background(), CampaignSpec{
		Schemes:    []SchemeKind{SR},
		Spares:     []int{100},
		Replicates: 150,
		BaseSeed:   9000,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := pts[0].Summary
	r := PaperCommRange / 2.2360679774997896
	perHop := s.Distance / float64(s.Moves)
	estimate := analytic.MeanHopDistanceFactor * r
	if perHop < 0.9*estimate || perHop > 1.1*estimate {
		t.Errorf("per-hop distance %.3f vs paper estimate %.3f", perHop, estimate)
	}
}

func TestBuildSchemeKinds(t *testing.T) {
	res, err := RunTrial(TrialConfig{Cols: 6, Rows: 6, Scheme: SRShortcut, Spares: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Error("shortcut scheme should also recover")
	}
}

func TestMultiHoleTrial(t *testing.T) {
	res, err := RunTrial(TrialConfig{
		Cols: 16, Rows: 16, Scheme: SR, Spares: 50, Holes: 8, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Errorf("8 simultaneous holes with 50 spares must recover: %+v", res)
	}
	if res.Summary.Initiated != 8 {
		t.Errorf("initiated = %d, want 8", res.Summary.Initiated)
	}
}

func TestAdjacentHolesTrial(t *testing.T) {
	res, err := RunTrial(TrialConfig{
		Cols: 8, Rows: 8, Scheme: SR, Spares: 20, Holes: 6,
		AdjacentHolesOK: true, Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Errorf("adjacent holes must still recover: %+v", res)
	}
}

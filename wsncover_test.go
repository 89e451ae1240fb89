package wsncover

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"wsncover/internal/grid"
	"wsncover/internal/node"
)

func TestNewScenarioDefaults(t *testing.T) {
	sc, err := NewScenario(Options{Cols: 8, Rows: 8, Spares: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sc.SchemeName() != "SR" {
		t.Errorf("default scheme = %q", sc.SchemeName())
	}
	if got := sc.Spares(); got != 10 {
		t.Errorf("Spares = %d", got)
	}
	if len(sc.Holes()) != 0 {
		t.Error("fresh scenario should have no holes")
	}
	if sc.GridSystem().CellSize() < 4.47 || sc.GridSystem().CellSize() > 4.48 {
		t.Errorf("cell size = %v, want ~4.4721", sc.GridSystem().CellSize())
	}
}

func TestNewScenarioValidation(t *testing.T) {
	if _, err := NewScenario(Options{Cols: 0, Rows: 8}); err == nil {
		t.Error("invalid grid should fail")
	}
	if _, err := NewScenario(Options{Cols: 8, Rows: 8, Scheme: Scheme(42)}); err == nil {
		t.Error("invalid scheme should fail")
	}
}

func TestSchemeString(t *testing.T) {
	if SR.String() != "SR" || AR.String() != "AR" || SRShortcut.String() != "SR+shortcut" {
		t.Error("scheme strings")
	}
	if Scheme(9).String() == "" {
		t.Error("invalid scheme should render")
	}
}

func TestQuickstartFlow(t *testing.T) {
	sc, err := NewScenario(Options{Cols: 8, Rows: 8, Spares: 15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	holes, err := sc.CreateHoles(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(holes) != 3 || len(sc.Holes()) != 3 {
		t.Fatalf("holes = %v", holes)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.Holes != 0 {
		t.Errorf("result = %+v", res)
	}
	if res.Summary.Initiated != 3 || res.Summary.SuccessRate() != 100 {
		t.Errorf("summary = %v", res.Summary)
	}
	if sc.TotalMoves() == 0 || sc.TotalDistance() == 0 {
		t.Error("movement accounting missing")
	}
}

func TestRepeatedDamageAndRecovery(t *testing.T) {
	sc, err := NewScenario(Options{Cols: 8, Rows: 8, Spares: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if _, err := sc.CreateHoles(2); err != nil {
			t.Fatal(err)
		}
		res, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete {
			t.Fatalf("round %d: coverage incomplete: %+v", round, res)
		}
	}
}

func TestFailRegionAndRecovery(t *testing.T) {
	sc, err := NewScenario(Options{Cols: 10, Rows: 10, Spares: 60, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b := sc.GridSystem().Bounds()
	hit := sc.FailRegion(b.Center().X, b.Center().Y, 8)
	if hit == 0 {
		t.Fatal("jamming hit nothing")
	}
	if len(sc.Holes()) == 0 {
		t.Skip("jam did not create holes on this seed")
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Errorf("recovery incomplete: %+v (holes %v)", res, sc.Holes())
	}
}

func TestFailRandomAPI(t *testing.T) {
	sc, err := NewScenario(Options{Cols: 6, Rows: 6, Spares: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.FailRandom(10); got != 10 {
		t.Errorf("FailRandom = %d", got)
	}
}

// A non-positive count disables nothing; a negative one used to panic
// in the sampler.
func TestFailRandomNonPositiveCount(t *testing.T) {
	sc, err := NewScenario(Options{Cols: 6, Rows: 6, Spares: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	enabled := sc.Network().EnabledCount()
	for _, count := range []int{0, -1, -1000} {
		if got := sc.FailRandom(count); got != 0 {
			t.Errorf("FailRandom(%d) = %d, want 0", count, got)
		}
	}
	if got := sc.Network().EnabledCount(); got != enabled {
		t.Errorf("enabled nodes %d -> %d after non-positive FailRandom", enabled, got)
	}
}

func TestCreateHoleAt(t *testing.T) {
	sc, err := NewScenario(Options{Cols: 6, Rows: 6, Spares: 5, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.CreateHoleAt(grid.C(3, 3)); err != nil {
		t.Fatal(err)
	}
	if len(sc.Holes()) != 1 {
		t.Error("hole not created")
	}
	if err := sc.CreateHoleAt(grid.C(9, 9)); err == nil {
		t.Error("off-grid hole should fail")
	}
}

func TestARScenario(t *testing.T) {
	sc, err := NewScenario(Options{Cols: 8, Rows: 8, Spares: 40, Scheme: AR, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if sc.SchemeName() != "AR" {
		t.Errorf("scheme = %q", sc.SchemeName())
	}
	if _, err := sc.CreateHoles(2); err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Initiated <= 2 {
		t.Errorf("AR should initiate redundant processes, got %d", res.Summary.Initiated)
	}
	if sc.RenderTopology() != "" {
		t.Error("AR has no Hamilton topology to render")
	}
}

func TestRenderOutputs(t *testing.T) {
	sc, err := NewScenario(Options{Cols: 5, Rows: 5, Spares: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sc.Render(), "holes=0") {
		t.Error("Render missing summary")
	}
	if !strings.Contains(sc.RenderTopology(), "dual-path") {
		t.Error("5x5 should render a dual-path topology")
	}
}

func TestEnergyAccounting(t *testing.T) {
	sc, err := NewScenario(Options{
		Cols: 6, Rows: 6, Spares: 10, Seed: 9, EnergyPerMeter: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.CreateHoles(1); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Run(); err != nil {
		t.Fatal(err)
	}
	// Some node must have spent energy equal to its traveled distance.
	total := 0.0
	for id := 0; id < sc.Network().NumNodes(); id++ {
		total += sc.Network().Node(node.ID(id)).EnergySpent()
	}
	if total == 0 {
		t.Error("no energy accounted")
	}
}

func TestStepAPI(t *testing.T) {
	sc, err := NewScenario(Options{Cols: 6, Rows: 6, Spares: 10, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.CreateHoles(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30 && len(sc.Holes()) > 0; i++ {
		if err := sc.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(sc.Holes()) != 0 {
		t.Error("single repair should finish within 30 manual rounds")
	}
}

func TestRunScheduleChurn(t *testing.T) {
	sc, err := NewScenario(Options{Cols: 10, Rows: 10, Spares: 50, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.RunSchedule(Workload{Kind: "churn", Holes: 2, Every: 4, Waves: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.Holes != 0 {
		t.Errorf("churn schedule not repaired: %+v", res)
	}
	// Three waves of up to two holes each, repaired under fire.
	if res.Summary.Initiated < 3 {
		t.Errorf("expected processes across waves, got %d", res.Summary.Initiated)
	}
	if res.Rounds <= 2*4 {
		t.Errorf("converged at round %d, before the last wave at round 8", res.Rounds)
	}
}

func TestRunScheduleDepletion(t *testing.T) {
	// Without an energy model depletion has nothing to drain; the facade
	// says so instead of silently doing nothing.
	plain, err := NewScenario(Options{Cols: 8, Rows: 8, Spares: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.RunSchedule(Workload{Kind: "depletion", Budget: 5}); err == nil ||
		!strings.Contains(err.Error(), "energy model") {
		t.Errorf("depletion without energy model: err = %v", err)
	}

	sc, err := NewScenario(Options{
		Cols: 8, Rows: 8, Spares: 20, Seed: 2, EnergyPerMeter: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.CreateHoles(3); err != nil {
		t.Fatal(err)
	}
	before := sc.Network().EnabledCount()
	res, err := sc.RunSchedule(Workload{Kind: "depletion", Budget: 2, Every: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Network().EnabledCount() >= before {
		t.Errorf("depletion killed no mover: %d -> %d enabled (result %+v)",
			before, sc.Network().EnabledCount(), res)
	}
}

func TestRunScheduleValidation(t *testing.T) {
	sc, err := NewScenario(Options{Cols: 6, Rows: 6, Spares: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.RunSchedule(Workload{Kind: "meteor"}); err == nil {
		t.Error("unknown workload kind should fail")
	}
	if _, err := sc.RunSchedule(Workload{Kind: "jam", Every: 2}); err == nil {
		t.Error("stray workload parameter should fail")
	}
	// Deploy-time parameters cannot act on a deployed scenario and are
	// rejected instead of being silently ignored.
	if _, err := sc.RunSchedule(Workload{Kind: "holes", Holes: 3}); err == nil {
		t.Error("deploy-time holes parameter should fail on a scenario")
	}
	if _, err := sc.RunSchedule(Workload{Kind: "jam", Radius: 9}); err == nil {
		t.Error("deploy-time jam radius should fail on a scenario")
	}
	if _, err := sc.RunSchedule(Workload{Kind: "depletion", Budget: 5, PerMeter: 2}); err == nil {
		t.Error("scenario-fixed energy parameters should fail")
	}
	// A no-event workload behaves like Run over existing damage.
	if _, err := sc.CreateHoles(1); err != nil {
		t.Fatal(err)
	}
	res, err := sc.RunSchedule(Workload{Kind: "holes"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Errorf("hole not repaired: %+v", res)
	}
}

func TestSweepFacadeWorkload(t *testing.T) {
	opts := SweepOptions{
		Schemes: []Scheme{SR, AR},
		Cols:    8, Rows: 8,
		Spares:   []int{20},
		Workload: Workload{Kind: "churn", Holes: 1, Every: 3, Waves: 2},
		Trials:   3,
		Seed:     5,
	}
	series, err := Sweep(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if s.Points[0].Trials != 3 {
			t.Errorf("%s trials = %d", s.Scheme, s.Points[0].Trials)
		}
		// Two waves per trial mean at least two processes per trial.
		if s.Points[0].MeanMoves == 0 {
			t.Errorf("%s churn sweep recorded no movement", s.Scheme)
		}
	}
	again, err := Sweep(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(series, again) {
		t.Error("workload sweep not reproducible")
	}

	// A workload with parameters but no Kind must error, not silently
	// sweep the default scenario.
	_, err = Sweep(context.Background(), SweepOptions{
		Spares: []int{5}, Trials: 1,
		Workload: Workload{Every: 5, Waves: 3},
	})
	if err == nil {
		t.Error("kind-less parameterized workload should fail")
	}
}

func TestSweepFacade(t *testing.T) {
	opts := SweepOptions{
		Schemes: []Scheme{SR, AR},
		Cols:    8, Rows: 8,
		Spares: []int{8, 24},
		Trials: 6,
		Seed:   31,
	}
	series, err := Sweep(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || series[0].Scheme != SR || series[1].Scheme != AR {
		t.Fatalf("series = %+v", series)
	}
	for _, s := range series {
		if len(s.Points) != 2 {
			t.Fatalf("%s points = %d", s.Scheme, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Trials != 6 {
				t.Errorf("%s N=%d trials = %d", s.Scheme, p.N, p.Trials)
			}
			if p.RecoveryRate < 0 || p.RecoveryRate > 100 || p.SuccessRate < 0 || p.SuccessRate > 100 {
				t.Errorf("%s N=%d rates out of range: %+v", s.Scheme, p.N, p)
			}
		}
		// SR repairs the single default hole every time.
		if s.Scheme == SR && s.Points[0].RecoveryRate != 100 {
			t.Errorf("SR recovery = %v", s.Points[0].RecoveryRate)
		}
	}

	// Bit-identical rerun at a different worker count.
	opts.Workers = 1
	again, err := Sweep(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(series, again) {
		t.Error("facade sweep depends on worker count")
	}

	if _, err := Sweep(context.Background(), SweepOptions{
		Schemes: []Scheme{Scheme(9)}, Spares: []int{5}, Trials: 1,
	}); err == nil {
		t.Error("invalid scheme should fail")
	}
}

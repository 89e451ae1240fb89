package sim

import (
	"bytes"
	"fmt"
	"testing"

	"wsncover/internal/coverage"
	"wsncover/internal/deploy"
	"wsncover/internal/experiment"
	"wsncover/internal/geom"
	"wsncover/internal/grid"
	"wsncover/internal/network"
	"wsncover/internal/randx"
)

// This file keeps the trial assembly that predates workloads as an
// independent reference for the differential tests: a switch on the
// damage kind that deploys and damages the network, then a convergence
// loop of its own. Production has one assembly (newTrial) and one loop
// (Trial.runSync); these are what they are compared against.

// referenceDamage deploys the trial population on an empty network and
// injects the holes or jam damage, drawing from rng with the fixed
// stream-split discipline. cfg must be normalized.
func referenceDamage(net *network.Network, cfg TrialConfig, rng *randx.Rand) error {
	sys := net.System()
	switch cfg.Workload.Kind {
	case WorkloadJam:
		// Deploy complete coverage, then jam a disc at a random center:
		// every node inside it dies, heads included, and the vacated
		// cells become the holes the scheme must repair.
		damage := rng.Split(1)
		if err := deploy.Controlled(net, cfg.Spares, nil, rng.Split(2)); err != nil {
			return err
		}
		radius := cfg.JamRadius
		if cfg.Workload.Radius != 0 {
			radius = cfg.Workload.Radius
		}
		if radius == 0 {
			radius = 1.5 * sys.CellSize()
		}
		center := damage.InRect(sys.Bounds())
		deploy.FailRegion(net, center, radius)
		return nil
	case WorkloadHoles:
		holes, err := deploy.PickHoleCells(sys, cfg.Holes, !cfg.AdjacentHolesOK, rng.Split(1))
		if err != nil {
			return err
		}
		return deploy.Controlled(net, cfg.Spares, holes, rng.Split(2))
	default:
		return fmt.Errorf("reference assembly supports workloads %q and %q, not %q",
			WorkloadHoles, WorkloadJam, cfg.Workload.Kind)
	}
}

// referenceRunToConvergence steps the scheme until it has been idle for
// a few consecutive rounds or the round budget is exhausted, in which
// case still-active processes are failed. It returns the rounds run.
func referenceRunToConvergence(s Scheme, maxRounds int) (int, error) {
	const idleGrace = 3
	idle := 0
	rounds := 0
	for rounds < maxRounds {
		if err := s.Step(); err != nil {
			return rounds, err
		}
		rounds++
		if s.Done() {
			idle++
			if idle >= idleGrace {
				return rounds, nil
			}
		} else {
			idle = 0
		}
	}
	s.Finalize()
	return rounds, nil
}

// referenceWorld builds a fresh network, damages it and attaches the
// configured scheme, all from cfg.Seed. It returns the normalized cfg.
func referenceWorld(cfg TrialConfig) (Scheme, *network.Network, TrialConfig, error) {
	if err := cfg.normalize(); err != nil {
		return nil, nil, cfg, err
	}
	if cfg.Runner != RunSync {
		return nil, nil, cfg, fmt.Errorf("reference assembly supports the sync runner only")
	}
	rng := randx.New(cfg.Seed)
	sys, err := grid.NewForCommRange(cfg.Cols, cfg.Rows, cfg.CommRange, geom.Pt(0, 0))
	if err != nil {
		return nil, nil, cfg, err
	}
	net := network.New(sys, cfg.EnergyModel)
	if err := referenceDamage(net, cfg, rng); err != nil {
		return nil, nil, cfg, err
	}
	scheme, err := buildScheme(net, cfg, rng.Split(3), nil, nil)
	return scheme, net, cfg, err
}

// referenceTrial runs one trial through the reference assembly.
func referenceTrial(cfg TrialConfig) (TrialResult, error) {
	scheme, net, cfg, err := referenceWorld(cfg)
	if err != nil {
		return TrialResult{}, err
	}
	res := TrialResult{HolesBefore: coverage.HoleCount(net)}
	if res.Rounds, err = referenceRunToConvergence(scheme, cfg.MaxRounds); err != nil {
		return TrialResult{}, err
	}
	res.Summary = scheme.Collector().Summarize()
	res.HolesAfter = coverage.HoleCount(net)
	res.Complete = coverage.Complete(net)
	res.Connected = net.HeadGraphConnected()
	return res, nil
}

// referenceManifestBytes runs every job of the spec through the
// reference assembly, in job order, and serializes the aggregated
// manifest exactly as assemblyManifestBytes does for the workload path.
func referenceManifestBytes(t *testing.T, spec CampaignSpec) []byte {
	t.Helper()
	js := jobSpace(t, spec)
	samples := make([]experiment.Sample, 0, js.Len())
	for i := 0; i < js.Len(); i++ {
		j := js.At(i)
		res, err := referenceTrial(j.config(spec))
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, SampleOf(j, res))
	}
	m, err := experiment.NewManifest("diff", spec, len(samples), 0, experiment.Aggregate(samples))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunScheduleEmptyIsReferenceLoop pins the one production
// convergence loop: RunSchedule with an empty schedule must step a
// hand-assembled scheme exactly like the reference loop, in rounds and
// in every collected metric, including when the round budget runs out
// and Finalize fails the still-active processes.
func TestRunScheduleEmptyIsReferenceLoop(t *testing.T) {
	exhausted := 0
	for _, kind := range []string{WorkloadHoles, WorkloadJam} {
		for _, scheme := range []SchemeKind{SR, SRShortcut, AR} {
			for _, maxRounds := range []int{2, 0} {
				for seed := int64(0); seed < 3; seed++ {
					cfg := TrialConfig{
						Cols: 10, Rows: 10, Scheme: scheme, Spares: 6, Holes: 3,
						Workload: WorkloadSpec{Kind: kind}, JamRadius: 9,
						MaxRounds: maxRounds, Seed: seed,
					}
					ref, _, norm, err := referenceWorld(cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, net, _, err := referenceWorld(cfg)
					if err != nil {
						t.Fatal(err)
					}
					wantRounds, err := referenceRunToConvergence(ref, norm.MaxRounds)
					if err != nil {
						t.Fatal(err)
					}
					gotRounds, err := RunSchedule(got, net, Schedule{}, nil, norm.MaxRounds)
					if err != nil {
						t.Fatal(err)
					}
					want, have := ref.Collector().Summarize(), got.Collector().Summarize()
					if gotRounds != wantRounds || have != want {
						t.Errorf("%s %v max=%d seed %d: RunSchedule %d rounds %+v, reference %d rounds %+v",
							kind, scheme, norm.MaxRounds, seed, gotRounds, have, wantRounds, want)
					}
					if wantRounds == norm.MaxRounds && want.Failed > 0 {
						exhausted++
					}
				}
			}
		}
	}
	if exhausted == 0 {
		t.Error("no case ran out of rounds with processes still active; the Finalize path went untested")
	}
}

package sim

import (
	"bytes"
	"testing"

	"wsncover/internal/experiment"
)

// manifestBytes runs the campaign with the given detector selection and
// serializes the aggregated manifest. Both arms use the same (batch)
// aggregation, so any byte difference is a detection divergence.
func manifestBytes(t *testing.T, spec CampaignSpec, legacy bool, workers int) []byte {
	t.Helper()
	spec.legacyDetect = legacy
	samples, _ := runCampaign(t, spec, workers)
	points := experiment.Aggregate(samples)
	// The worker count is execution metadata, not a result; pin it so the
	// byte comparison covers results only.
	m, err := experiment.NewManifest("diff", spec, len(samples), 0, points)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCampaignManifestsBitIdenticalAcrossDetectors is the acceptance
// criterion at the campaign level: over schemes x grids x failure modes x
// seeds, the event-driven detector must produce byte-identical campaign
// manifests to the seed's full-scan implementation, at any worker count.
func TestCampaignManifestsBitIdenticalAcrossDetectors(t *testing.T) {
	specs := []CampaignSpec{
		{
			Schemes:    []SchemeKind{SR, SRShortcut, AR},
			Grids:      []GridSize{{8, 8}, {9, 9}}, // cycle and dual path
			Spares:     []int{4, 20},
			Holes:      []int{1, 3},
			Workloads:  []WorkloadSpec{{Kind: WorkloadHoles}, {Kind: WorkloadJam}},
			Replicates: 3,
			BaseSeed:   101,
		},
		{
			Schemes:         []SchemeKind{SR},
			Grids:           []GridSize{{12, 12}},
			Spares:          []int{0, 8}, // spare drought: exhausted walks
			Holes:           []int{4},
			AdjacentHolesOK: true,
			Replicates:      4,
			BaseSeed:        202,
		},
	}
	for i, spec := range specs {
		ref := manifestBytes(t, spec, true, 1)
		if got := manifestBytes(t, spec, false, 1); !bytes.Equal(got, ref) {
			t.Errorf("spec %d: event-driven manifest differs from full-scan manifest (workers=1)", i)
		}
		if got := manifestBytes(t, spec, false, 8); !bytes.Equal(got, ref) {
			t.Errorf("spec %d: event-driven manifest differs at workers=8", i)
		}
		if got := manifestBytes(t, spec, true, 8); !bytes.Equal(got, ref) {
			t.Errorf("spec %d: full-scan manifest not worker-invariant", i)
		}
	}
}

// TestTrialLegacyDetectFlag spot-checks the TrialConfig plumbing: for
// every scheme — SR and, since the AR journal port, AR too — the
// full-scan and event-driven detectors must agree trial by trial.
func TestTrialLegacyDetectFlag(t *testing.T) {
	for _, scheme := range []SchemeKind{SR, SRShortcut, AR} {
		for seed := int64(0); seed < 4; seed++ {
			base := TrialConfig{
				Cols: 9, Rows: 9, Scheme: scheme, Spares: 12, Holes: 3, Seed: seed,
			}
			legacy := base
			legacy.LegacyDetect = true
			a, err := RunTrial(base)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunTrial(legacy)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("%v seed %d: %+v vs %+v", scheme, seed, a, b)
			}
		}
	}
}

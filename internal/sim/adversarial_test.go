package sim

import (
	"bytes"
	"strings"
	"testing"
)

// TestAdversarialManifestDeterminism: equal adversarial specs — every
// new zoo kind plus the combinators — must produce byte-identical
// manifests at any worker count. This is what keeps hostile scenarios
// shardable and mergeable like the benign ones.
func TestAdversarialManifestDeterminism(t *testing.T) {
	base := CampaignSpec{
		Schemes:    []SchemeKind{SR},
		Grids:      []GridSize{{8, 8}},
		Spares:     []int{24},
		Replicates: 2,
	}
	workloads := []WorkloadSpec{
		{Kind: WorkloadMover, Every: 5, Waves: 2},
		{Kind: WorkloadByzantine, Holes: 2, Frac: 0.2, Prob: 0.5},
		{Kind: WorkloadResupply, Holes: 3, At: 5, Batch: 4, Count: 2},
		{Kind: WorkloadLossy, Holes: 2, Loss: 0.25},
		{Kind: WorkloadSequence, Every: 5, Children: []WorkloadSpec{
			{Kind: WorkloadHoles, Holes: 2},
			{Kind: WorkloadByzantine, Holes: 1, Frac: 0.2},
		}},
		{Kind: WorkloadOverlay, Children: []WorkloadSpec{
			{Kind: WorkloadJam},
			{Kind: WorkloadChurn, Holes: 1, Every: 3, Waves: 2},
		}},
		{Kind: WorkloadRandom, Pick: 7, Count: 2},
	}
	for i, wl := range workloads {
		spec := base
		spec.Workloads = []WorkloadSpec{wl}
		spec.BaseSeed = int64(100 + i)
		t.Run(wl.Kind, func(t *testing.T) {
			ref := campaignManifestBytes(t, spec, 1)
			if got := campaignManifestBytes(t, spec, 4); !bytes.Equal(got, ref) {
				t.Errorf("%s manifest differs at workers=4", wl)
			}
			if got := campaignManifestBytes(t, spec, 1); !bytes.Equal(got, ref) {
				t.Errorf("%s manifest not reproducible across runs", wl)
			}
		})
	}
}

// TestClaimTTLDimension: claim_ttls is a first-class campaign dimension —
// it multiplies the job space, labels groups, and sweeps byte-
// deterministically at any worker count.
func TestClaimTTLDimension(t *testing.T) {
	spec := CampaignSpec{
		Schemes:    []SchemeKind{SR},
		Grids:      []GridSize{{8, 8}},
		Spares:     []int{20},
		Workloads:  []WorkloadSpec{{Kind: WorkloadLossy, Holes: 2, Loss: 0.2}},
		ClaimTTLs:  []int{4, 12},
		Replicates: 2,
		BaseSeed:   61,
	}
	if got, want := spec.Normalized().NumJobs(), 2*2; got != want {
		t.Fatalf("NumJobs() = %d, want %d (2 ttls x 2 replicates)", got, want)
	}
	seen := map[string]bool{}
	spec.Normalized().ExecutedJobs(nil, func(j TrialJob) {
		seen[j.Group()] = true
		if j.ClaimTTL != 4 && j.ClaimTTL != 12 {
			t.Errorf("job carries ttl %d, want 4 or 12", j.ClaimTTL)
		}
	})
	if len(seen) != 2 {
		t.Errorf("ttl sweep produced %d groups, want 2: %v", len(seen), seen)
	}
	for g := range seen {
		if !strings.Contains(g, "ttl=") {
			t.Errorf("group label %q does not name its ttl", g)
		}
	}

	ref := campaignManifestBytes(t, spec, 1)
	if got := campaignManifestBytes(t, spec, 4); !bytes.Equal(got, ref) {
		t.Error("ttl-swept manifest differs at workers=4")
	}

	// The dimension is SR-family, sync-runner only.
	bad := spec
	bad.Schemes = []SchemeKind{AR}
	if err := bad.Validate(); err == nil {
		t.Error("claim_ttls with AR should fail Validate")
	}
	bad = spec
	bad.Runners = []RunnerKind{RunAsync}
	if err := bad.Validate(); err == nil {
		t.Error("claim_ttls with the async runner should fail Validate")
	}
	bad = spec
	bad.ClaimTTLs = []int{-1}
	if err := bad.Validate(); err == nil {
		t.Error("negative claim_ttls should fail Validate")
	}
}

// TestAdversarialSpecJSONRoundTrip: a composed spec survives the JSON
// round trip intact — the grammar is data, not code.
func TestAdversarialSpecJSONRoundTrip(t *testing.T) {
	in := `{
		"schemes": ["sr"],
		"grids": [{"cols": 8, "rows": 8}],
		"spares": [16],
		"claim_ttls": [6],
		"replicates": 2,
		"seed": 5,
		"workloads": [{
			"kind": "sequence",
			"every": 8,
			"children": [
				{"kind": "byzantine", "holes": 2, "frac": 0.2},
				{"kind": "resupply", "holes": 2, "batch": 4},
				{"kind": "lossy", "holes": 1, "loss": 0.2}
			]
		}]
	}`
	var spec CampaignSpec
	if err := UnmarshalSpecJSON([]byte(in), &spec); err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	wl := spec.Workloads[0]
	if wl.Kind != WorkloadSequence || len(wl.Children) != 3 ||
		wl.Children[0].Frac != 0.2 || wl.Children[2].Loss != 0.2 {
		t.Fatalf("spec did not round-trip: %+v", wl)
	}
	ref := campaignManifestBytes(t, spec, 1)
	if got := campaignManifestBytes(t, spec, 4); !bytes.Equal(got, ref) {
		t.Error("composed spec-file manifest differs at workers=4")
	}
}

// TestAdversarialWorkloadGuards: the zoo's scheme/runner restrictions
// fail at trial construction with errors naming the constraint.
func TestAdversarialWorkloadGuards(t *testing.T) {
	cases := []struct {
		name string
		cfg  TrialConfig
	}{
		{"byzantine/ar", TrialConfig{
			Cols: 8, Rows: 8, Scheme: AR, Spares: 10, Seed: 1,
			Workload: WorkloadSpec{Kind: WorkloadByzantine, Holes: 1},
		}},
		{"lossy/ar", TrialConfig{
			Cols: 8, Rows: 8, Scheme: AR, Spares: 10, Seed: 1,
			Workload: WorkloadSpec{Kind: WorkloadLossy, Holes: 1},
		}},
		{"byzantine/async", TrialConfig{
			Cols: 8, Rows: 8, Scheme: SR, Spares: 10, Seed: 1, Runner: RunAsync,
			Workload: WorkloadSpec{Kind: WorkloadByzantine, Holes: 1},
		}},
		{"lossy/async", TrialConfig{
			Cols: 8, Rows: 8, Scheme: SR, Spares: 10, Seed: 1, Runner: RunAsync,
			Workload: WorkloadSpec{Kind: WorkloadLossy, Holes: 1},
		}},
		{"resupply/async", TrialConfig{
			Cols: 8, Rows: 8, Scheme: SR, Spares: 10, Seed: 1, Runner: RunAsync,
			Workload: WorkloadSpec{Kind: WorkloadResupply, Holes: 1},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewTrial(c.cfg); err == nil {
				t.Errorf("%s: NewTrial accepted an unsupported combination", c.name)
			}
		})
	}

	// Stray parameters on the new kinds fail loudly, like the old ones.
	for _, spec := range []WorkloadSpec{
		{Kind: WorkloadMover, Budget: 3},
		{Kind: WorkloadByzantine, Radius: 2},
		{Kind: WorkloadResupply, Loss: 0.1},
		{Kind: WorkloadLossy, Waves: 2},
		{Kind: WorkloadSequence, Pick: 3, Children: []WorkloadSpec{{Kind: WorkloadHoles}}},
		{Kind: WorkloadRandom, Children: []WorkloadSpec{{Kind: WorkloadHoles}}},
	} {
		if _, err := BuildWorkload(spec); err == nil {
			t.Errorf("stray parameter accepted: %+v", spec)
		}
	}
}

// TestValidateMatchesTrialAssembly: a workload that installs knobs a
// scheme or runner refuses (claim expiry, a lossy radio, byzantine
// monitors, mid-run resupply) fails Validate, naming the workload and
// the scheme, instead of failing at its first trial mid-campaign. A
// random composition draws only kinds its trials accept, so it still
// validates on AR and on the async runner.
func TestValidateMatchesTrialAssembly(t *testing.T) {
	byz := WorkloadSpec{Kind: WorkloadByzantine}
	lossy := WorkloadSpec{Kind: WorkloadLossy}
	base := CampaignSpec{Grids: []GridSize{{8, 8}}, Spares: []int{10, 20}, Replicates: 2}
	for _, tc := range []struct {
		schemes []SchemeKind
		runners []RunnerKind
		wl      WorkloadSpec
		want    []string
	}{
		{[]SchemeKind{SR, AR}, nil, byz, []string{`"byzantine"`, "scheme AR"}},
		{[]SchemeKind{SRShortcut, AR}, nil, lossy, []string{`"lossy"`, "scheme AR"}},
		{[]SchemeKind{SR, AR}, nil, WorkloadSpec{Kind: WorkloadOverlay, Children: []WorkloadSpec{byz}},
			[]string{"overlay [byzantine]", "scheme AR"}},
		{[]SchemeKind{SR}, []RunnerKind{RunSync, RunAsync}, WorkloadSpec{Kind: WorkloadResupply},
			[]string{`"resupply"`, "scheme SR", "runner async"}},
		{[]SchemeKind{SR}, []RunnerKind{RunAsync}, WorkloadSpec{Kind: WorkloadSequence,
			Children: []WorkloadSpec{{Kind: WorkloadHoles}, lossy}},
			[]string{"lossy", "scheme SR", "runner async"}},
	} {
		spec := base
		spec.Schemes, spec.Runners, spec.Workloads = tc.schemes, tc.runners, []WorkloadSpec{tc.wl}
		err := spec.Validate()
		if err == nil {
			t.Errorf("%s on %v %v: Validate accepted it", tc.wl, tc.schemes, tc.runners)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s on %v %v: error %q does not name %s", tc.wl, tc.schemes, tc.runners, err, w)
			}
		}
	}
	for _, tc := range []struct {
		schemes []SchemeKind
		runners []RunnerKind
	}{
		{[]SchemeKind{SR, SRShortcut, AR}, nil},
		{[]SchemeKind{SR}, []RunnerKind{RunSync, RunAsync}},
	} {
		spec := base
		spec.Schemes, spec.Runners = tc.schemes, tc.runners
		for pick := int64(0); pick < 16; pick++ {
			spec.Workloads = append(spec.Workloads, WorkloadSpec{Kind: WorkloadRandom, Pick: pick, Count: MaxChildren})
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("random compositions on %v %v: %v", tc.schemes, tc.runners, err)
		}
	}
}

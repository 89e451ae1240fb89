package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"wsncover/internal/experiment"
	"wsncover/internal/network"
	"wsncover/internal/node"
	"wsncover/internal/randx"
)

// assemblyManifestBytes runs the campaign through the workload path and
// serializes the aggregated manifest like referenceManifestBytes does
// for the reference assembly; any byte difference is an assembly
// divergence. Both marshal the same spec struct, so the comparison
// covers results only.
func assemblyManifestBytes(t *testing.T, spec CampaignSpec, workers int) []byte {
	t.Helper()
	samples, _ := runCampaign(t, spec, workers)
	points := experiment.Aggregate(samples)
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

// TestLegacySpecBitIdenticalThroughWorkloadPath is the acceptance
// criterion of the workload redesign: a campaign over the paper's damage
// dimension (schemes x grids x spares x holes x {holes, jam}) must
// produce a byte-identical manifest through the workload path as
// through the pre-workload reference assembly (reference_test.go), at
// any worker count.
func TestLegacySpecBitIdenticalThroughWorkloadPath(t *testing.T) {
	specs := []CampaignSpec{
		{
			Schemes:    []SchemeKind{SR, SRShortcut, AR},
			Grids:      []GridSize{{8, 8}, {9, 9}}, // cycle and dual path
			Spares:     []int{4, 20},
			Holes:      []int{1, 3},
			Workloads:  []WorkloadSpec{{Kind: WorkloadHoles}, {Kind: WorkloadJam}},
			Replicates: 3,
			BaseSeed:   311,
		},
		{
			Schemes:         []SchemeKind{SR, AR},
			Grids:           []GridSize{{12, 12}},
			Spares:          []int{0, 8}, // spare drought: exhausted walks
			Holes:           []int{4},
			AdjacentHolesOK: true,
			Workloads:       []WorkloadSpec{{Kind: WorkloadJam}},
			JamRadius:       12,
			Replicates:      4,
			BaseSeed:        422,
		},
	}
	for i, spec := range specs {
		ref := referenceManifestBytes(t, spec)
		for _, workers := range []int{1, 8} {
			if got := assemblyManifestBytes(t, spec, workers); !bytes.Equal(got, ref) {
				t.Errorf("spec %d: workload-path manifest differs from the reference assembly's (workers=%d)", i, workers)
			}
		}
	}
}

// campaignManifestBytes serializes one aggregated campaign run of the
// spec as executed (streaming accumulator, the cmd/sweep path).
func campaignManifestBytes(t *testing.T, spec CampaignSpec, workers int) []byte {
	t.Helper()
	_, points := runCampaign(t, spec, workers)
	m, err := experiment.NewManifest("det", spec, spec.NumJobs(), 0, points)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWorkloadManifestDeterminism is the workload-coverage satellite:
// equal churn and depletion specs must produce byte-identical manifests
// at any worker count, including across the runner axis.
func TestWorkloadManifestDeterminism(t *testing.T) {
	specs := []CampaignSpec{
		{
			Schemes:    []SchemeKind{SR, AR},
			Grids:      []GridSize{{8, 8}},
			Spares:     []int{6, 24},
			Workloads:  []WorkloadSpec{{Kind: WorkloadChurn, Holes: 2, Every: 4, Waves: 3}},
			Replicates: 3,
			BaseSeed:   17,
		},
		{
			Schemes:    []SchemeKind{SR, AR},
			Grids:      []GridSize{{8, 8}},
			Spares:     []int{10},
			Workloads:  []WorkloadSpec{{Kind: WorkloadDepletion, Budget: 12, Every: 3}},
			Replicates: 3,
			BaseSeed:   29,
		},
		{
			Schemes:    []SchemeKind{SR},
			Grids:      []GridSize{{8, 8}},
			Spares:     []int{8},
			Workloads:  []WorkloadSpec{{Kind: WorkloadChurn, Every: 3, Waves: 2}},
			Runners:    []RunnerKind{RunSync, RunAsync},
			Replicates: 2,
			BaseSeed:   43,
		},
	}
	for i, spec := range specs {
		ref := campaignManifestBytes(t, spec, 1)
		if got := campaignManifestBytes(t, spec, 8); !bytes.Equal(got, ref) {
			t.Errorf("spec %d: manifest differs at workers=8", i)
		}
		if got := campaignManifestBytes(t, spec, 1); !bytes.Equal(got, ref) {
			t.Errorf("spec %d: manifest not reproducible across runs", i)
		}
	}
}

func TestChurnTrialDeliversHolesUnderFire(t *testing.T) {
	cfg := TrialConfig{
		Cols: 10, Rows: 10, Scheme: SR, Spares: 60, Seed: 3,
		Workload: WorkloadSpec{Kind: WorkloadChurn, Holes: 2, Every: 4, Waves: 4},
	}
	res, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// HolesBefore counts only the round-0 wave; later waves arrive while
	// recovery runs, so the scheme must have repaired more holes than
	// were ever simultaneously visible at the start.
	if res.HolesBefore == 0 || res.HolesBefore > 2 {
		t.Errorf("HolesBefore = %d, want 1..2 (first wave only)", res.HolesBefore)
	}
	if !res.Complete || res.HolesAfter != 0 {
		t.Errorf("ample spares should repair all churn: %+v", res)
	}
	if res.Summary.Initiated < 3 {
		t.Errorf("expected processes across several waves, got %d", res.Summary.Initiated)
	}
	// The trial cannot converge before the last wave has fired.
	if res.Rounds <= 3*4 {
		t.Errorf("converged at round %d, before the last wave at round 12", res.Rounds)
	}

	// Determinism: equal configs, equal outcomes.
	again, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res != again {
		t.Errorf("churn trial not deterministic: %+v vs %+v", res, again)
	}
}

func TestDepletionTrialDrainsNodes(t *testing.T) {
	base := TrialConfig{
		Cols: 8, Rows: 8, Scheme: SR, Spares: 30, Holes: 3,
		AdjacentHolesOK: true, Seed: 11,
	}
	ctrl, err := NewTrial(base)
	if err != nil {
		t.Fatal(err)
	}
	ctrlRes, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}

	depleted := base
	depleted.Workload = WorkloadSpec{Kind: WorkloadDepletion, Budget: 4, Every: 1}
	tr, err := NewTrial(depleted)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The workload installs the default energy model and the tiny budget
	// kills movers, so the depleted run must end with fewer enabled
	// nodes than the control run.
	if tr.Network().EnergyModel() == (node.EnergyModel{}) {
		t.Fatal("depletion workload did not install an energy model")
	}
	if tr.Network().EnabledCount() >= ctrl.Network().EnabledCount() {
		t.Errorf("depletion killed no one: %d enabled vs control %d",
			tr.Network().EnabledCount(), ctrl.Network().EnabledCount())
	}
	if res == ctrlRes {
		t.Error("depletion result identical to control result")
	}
}

func TestAsyncRunnerTrial(t *testing.T) {
	cfg := TrialConfig{
		Cols: 8, Rows: 8, Scheme: SR, Spares: 20, Holes: 2, Seed: 7,
		Runner: RunAsync,
	}
	res, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.HolesAfter != 0 {
		t.Errorf("async SR should repair 2 holes with 20 spares: %+v", res)
	}
	if res.Summary.Moves == 0 || res.Rounds == 0 {
		t.Errorf("async trial reported no activity: %+v", res)
	}
	again, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res != again {
		t.Errorf("async trial not deterministic: %+v vs %+v", res, again)
	}

	// The async runner is SR-only.
	for _, scheme := range []SchemeKind{AR, SRShortcut} {
		bad := cfg
		bad.Scheme = scheme
		if _, err := RunTrial(bad); err == nil {
			t.Errorf("async runner accepted scheme %v", scheme)
		}
	}
}

func TestWorkloadSpecValidation(t *testing.T) {
	// Stray parameters fail loudly instead of being silently ignored.
	if _, err := BuildWorkload(WorkloadSpec{Kind: WorkloadJam, Every: 3}); err == nil {
		t.Error("jam with every should fail")
	}
	if _, err := BuildWorkload(WorkloadSpec{Kind: WorkloadHoles, Budget: 2}); err == nil {
		t.Error("holes with budget should fail")
	}
	if _, err := BuildWorkload(WorkloadSpec{Kind: "meteor"}); err == nil {
		t.Error("unknown kind should fail")
	}
	// The empty kind resolves to the default holes workload.
	if w, err := BuildWorkload(WorkloadSpec{}); err != nil || w.spec.Kind != WorkloadHoles {
		t.Errorf("empty kind resolved to %v, %v", w, err)
	}
	kinds := WorkloadKinds()
	want := []string{
		WorkloadByzantine, WorkloadChurn, WorkloadDepletion, WorkloadHoles,
		WorkloadJam, WorkloadLossy, WorkloadMover, WorkloadOverlay,
		WorkloadRandom, WorkloadResupply, WorkloadSequence,
	}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("WorkloadKinds() = %v, want %v", kinds, want)
	}

	// Async x non-SR scheme is rejected up front.
	err := CampaignSpec{
		Schemes: []SchemeKind{SR, AR},
		Runners: []RunnerKind{RunSync, RunAsync},
	}.Validate()
	if err == nil {
		t.Error("async runner with AR scheme should fail Validate")
	}
}

// TestDistinctWorkloadSpecsGetDistinctGroups pins the curve-identity
// invariant: two jobs belong to the same curve iff their workload specs
// (and the rest of their group dimensions) are equal.
func TestDistinctWorkloadSpecsGetDistinctGroups(t *testing.T) {
	base := TrialJob{Scheme: SR, Grid: GridSize{16, 16}, Holes: 1}
	pinned := base
	pinned.Workload = WorkloadSpec{Kind: WorkloadHoles, Holes: 5}
	if base.Group() == pinned.Group() {
		t.Errorf("default and pinned-holes workloads share group %q", base.Group())
	}
	if g := pinned.Group(); g != "SR 16x16 holes=5" {
		t.Errorf("pinned group = %q", g)
	}
}

// TestScheduleEventValidation pins the event-loop contract: recurring
// events cannot be barriers, and malformed events fail at assembly.
func TestScheduleEventValidation(t *testing.T) {
	apply := func(*network.Network, *randx.Rand, int) error { return nil }
	cases := []Event{
		{Round: 2, Every: 2, Barrier: true, Apply: apply},
		{Round: -1, Apply: apply},
		{Round: 1, Every: -2, Apply: apply},
		{Round: 1},
	}
	for i, ev := range cases {
		if err := validateEvents([]Event{ev}); err == nil {
			t.Errorf("case %d: event %+v should be rejected", i, ev)
		}
	}
	// A depletion schedule is a single recurring event, not one event
	// per check round.
	var cfg TrialConfig
	cfg.Cols, cfg.Rows, cfg.Scheme = 8, 8, SR
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	wl, err := BuildWorkload(WorkloadSpec{Kind: WorkloadDepletion})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := wl.Schedule(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Events) != 1 || sched.Events[0].Every == 0 {
		t.Errorf("depletion schedule = %d events (want 1 recurring)", len(sched.Events))
	}
}

// TestDepletionCheckFiresAfterLastMove pins the quiescence rule: with a
// check period longer than the trial's idle grace, a node pushed over
// budget by its final movement must still be killed by one last check
// before the trial may converge — the sync runner must not report
// complete coverage the async runner would deny.
func TestDepletionCheckFiresAfterLastMove(t *testing.T) {
	cfg := TrialConfig{
		Cols: 8, Rows: 8, Scheme: SR, Spares: 30, Holes: 3,
		AdjacentHolesOK: true, Seed: 11,
		// Budget so small every mover dies; checks every 9 rounds, far
		// past the idle grace of 3.
		Workload: WorkloadSpec{Kind: WorkloadDepletion, Budget: 0.5, Every: 9},
	}
	tr, err := NewTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Moves == 0 {
		t.Fatal("trial moved no one; scenario does not exercise the check")
	}
	// Every mover exceeded the budget, so no mover may survive: each
	// move's distance is positive and budget is 0.5 with PerMeter 1.
	for id := 0; id < tr.Network().NumNodes(); id++ {
		nd := tr.Network().Node(node.ID(id))
		if nd.Enabled() && nd.EnergySpent() > 0.5 {
			t.Fatalf("node %d over budget (%.2f) survived convergence at round %d",
				id, nd.EnergySpent(), res.Rounds)
		}
	}
	// The final kill leaves holes behind; the trial must report them.
	if res.Complete || res.HolesAfter == 0 {
		t.Errorf("trial reports complete coverage despite depleted movers: %+v", res)
	}
}

// TestTrialWorkloadWithoutKindFailsLoudly pins the forgotten-Kind
// safety net: parameters without a kind resolve to the default kind,
// whose builder rejects parameters it does not take.
func TestTrialWorkloadWithoutKindFailsLoudly(t *testing.T) {
	_, err := RunTrial(TrialConfig{
		Cols: 8, Rows: 8, Scheme: SR, Spares: 5,
		Workload: WorkloadSpec{Every: 5, Waves: 3},
	})
	if err == nil || !strings.Contains(err.Error(), "does not take") {
		t.Errorf("kind-less parameterized workload: err = %v", err)
	}
	// A kind-less spec with only the holes parameter is the default
	// workload with a pinned hole count — valid.
	res, err := RunTrial(TrialConfig{
		Cols: 8, Rows: 8, Scheme: SR, Spares: 10, Seed: 2,
		Workload: WorkloadSpec{Holes: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HolesBefore != 2 {
		t.Errorf("pinned holes = %d, want 2", res.HolesBefore)
	}
}

func TestCampaignSpecWorkloadJSONRoundTrip(t *testing.T) {
	in := `{
		"schemes": ["SR"],
		"grids": [{"cols": 8, "rows": 8}],
		"spares": [10],
		"workloads": [
			{"kind": "churn", "holes": 3, "every": 5},
			{"kind": "depletion", "budget": 40, "per_meter": 0.5}
		],
		"runners": ["sync", "async"],
		"replicates": 2,
		"seed": 9
	}`
	var spec CampaignSpec
	if err := json.Unmarshal([]byte(in), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != 2 || spec.Workloads[0].Kind != WorkloadChurn ||
		spec.Workloads[0].Every != 5 || spec.Workloads[1].Budget != 40 {
		t.Errorf("workloads = %+v", spec.Workloads)
	}
	if len(spec.Runners) != 2 || spec.Runners[1] != RunAsync {
		t.Errorf("runners = %v", spec.Runners)
	}
	out, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back CampaignSpec
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Errorf("round trip:\n%+v\n%+v", spec, back)
	}
	if err := json.Unmarshal([]byte(`{"runners": ["warp"]}`), &spec); err == nil {
		t.Error("bad runner name should fail")
	}

	// A spec without runner or TTL dimensions marshals without them, so
	// manifests written before those dimensions existed stay mergeable.
	legacy := CampaignSpec{Workloads: []WorkloadSpec{{Kind: WorkloadJam}}, Replicates: 2}
	raw, err := json.Marshal(legacy.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "runners") || strings.Contains(string(raw), "claim_ttls") {
		t.Errorf("spec marshals unset dimensions: %s", raw)
	}
}

// TestJobSpaceWorkloadRunnerAxes pins the job indexing of the new axes:
// nested order (workload, runner, grid, holes, scheme, spares,
// replicate), holes-dimension collapse for workloads that pin their own
// hole count, and paired seeds across every cell.
func TestJobSpaceWorkloadRunnerAxes(t *testing.T) {
	spec := CampaignSpec{
		Schemes:    []SchemeKind{SR},
		Grids:      []GridSize{{8, 8}},
		Spares:     []int{5, 10},
		Holes:      []int{1, 2},
		Workloads:  []WorkloadSpec{{Kind: WorkloadChurn}, {Kind: WorkloadChurn, Holes: 3}},
		Runners:    []RunnerKind{RunSync, RunAsync},
		Replicates: 2,
		BaseSeed:   8,
	}
	jobs := executedJobs(spec)
	// First churn sweeps the holes dimension; the pinned one collapses it.
	want := (1*2*1*2*2)*2 + (1*1*1*2*2)*2
	if len(jobs) != want {
		t.Fatalf("jobs = %d, want %d", len(jobs), want)
	}
	js := jobSpace(t, spec)
	if js.Len() != len(jobs) {
		t.Fatalf("JobSpace.Len = %d, want %d", js.Len(), len(jobs))
	}
	for i, j := range jobs {
		if !reflect.DeepEqual(js.At(i), j) {
			t.Fatalf("At(%d) = %+v, want %+v", i, js.At(i), j)
		}
		if j.Workload.Holes == 3 && j.Holes != 1 {
			t.Fatalf("pinned-holes workload sweeps holes dim: %+v", j)
		}
	}
	seeds := experiment.Seeds(8, 2)
	for _, j := range jobs {
		if j.Seed != seeds[j.Replicate] {
			t.Fatalf("job %+v seed mismatch", j)
		}
	}
	// Runner nests inside workload: the first half of each workload
	// block is sync, the second async.
	if jobs[0].Runner != RunSync || jobs[8].Runner != RunAsync {
		t.Errorf("runner nesting: jobs[0]=%v jobs[8]=%v", jobs[0].Runner, jobs[8].Runner)
	}
}

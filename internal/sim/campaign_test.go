package sim

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"wsncover/internal/experiment"
	"wsncover/internal/telemetry"
)

// jobSpace is CampaignSpec.JobSpace that fails the test on error.
func jobSpace(t testing.TB, spec CampaignSpec) JobSpace {
	t.Helper()
	js, err := spec.JobSpace()
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// executedJobs lists the jobs spec executes, through ExecutedJobs.
func executedJobs(spec CampaignSpec) []TrialJob {
	var jobs []TrialJob
	spec.ExecutedJobs(nil, func(j TrialJob) { jobs = append(jobs, j) })
	return jobs
}

func TestRunTrialJamFailure(t *testing.T) {
	res, err := RunTrial(TrialConfig{
		Cols: 16, Rows: 16, Scheme: SR, Spares: 80,
		Workload: WorkloadSpec{Kind: WorkloadJam}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HolesBefore == 0 {
		t.Fatal("jam created no holes; radius should cover at least one cell center region")
	}
	if !res.Complete {
		t.Errorf("80 spares should repair a default jam: %+v", res)
	}
	if res.HolesAfter != 0 {
		t.Errorf("holes remain after recovery: %+v", res)
	}

	// A wider jam kills more cells.
	wide, err := RunTrial(TrialConfig{
		Cols: 16, Rows: 16, Scheme: SR, Spares: 80,
		Workload: WorkloadSpec{Kind: WorkloadJam}, JamRadius: 15, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if wide.HolesBefore <= res.HolesBefore {
		t.Errorf("radius 15 made %d holes vs default's %d", wide.HolesBefore, res.HolesBefore)
	}

	if _, err := RunTrial(TrialConfig{
		Cols: 8, Rows: 8, Scheme: SR, Workload: WorkloadSpec{Kind: "flood"},
	}); err == nil {
		t.Error("unknown workload kind should fail")
	}
	if _, err := RunTrial(TrialConfig{
		Cols: 8, Rows: 8, Scheme: SR, JamRadius: -1,
	}); err == nil {
		t.Error("negative jam radius should fail")
	}
}

// TestRunSweepWorkerCountInvariance is the engine's core acceptance
// criterion at the sweep level: the same spec and seed must produce
// bit-identical points at any worker count.
func TestRunSweepWorkerCountInvariance(t *testing.T) {
	run := func(workers int) []SweepPoint {
		pts, err := RunSweep(context.Background(), CampaignSpec{
			Schemes:    []SchemeKind{AR},
			Grids:      []GridSize{{12, 12}},
			Spares:     []int{5, 20, 60},
			Replicates: 8,
			BaseSeed:   1234,
			Workers:    workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	ref := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d diverged:\n%+v\nwant\n%+v", workers, got, ref)
		}
	}
}

func TestRunSweepContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunSweep(ctx, CampaignSpec{Schemes: []SchemeKind{SR}, Replicates: 50})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCampaignJobsExpansion(t *testing.T) {
	spec := CampaignSpec{
		Schemes:    []SchemeKind{SR, AR},
		Grids:      []GridSize{{8, 8}, {12, 12}},
		Spares:     []int{10, 30},
		Holes:      []int{1, 2},
		Workloads:  []WorkloadSpec{{Kind: WorkloadHoles}, {Kind: WorkloadJam}},
		Replicates: 3,
		BaseSeed:   77,
	}
	jobs := executedJobs(spec)
	// holes expands the holes dimension; jam ignores hole counts
	// (the disc decides), so it contributes a single holes value — no
	// duplicate (config, seed) jobs inflating the jam statistics.
	want := 2*2*2*2*3 + 2*2*1*2*3
	if len(jobs) != want {
		t.Fatalf("jobs = %d, want %d", len(jobs), want)
	}
	jamJobs := 0
	for _, j := range jobs {
		if j.Workload.Kind == WorkloadJam {
			jamJobs++
			if j.Holes != 1 {
				t.Fatalf("jam job carries holes=%d", j.Holes)
			}
		}
	}
	if jamJobs != 2*2*1*2*3 {
		t.Errorf("jam jobs = %d", jamJobs)
	}
	// Replicate r shares its seed across every cell (paired layouts).
	seeds := experiment.Seeds(77, 3)
	for _, j := range jobs {
		if j.Seed != seeds[j.Replicate] {
			t.Fatalf("job %+v seed mismatch", j)
		}
	}
	// Expansion is deterministic.
	if !reflect.DeepEqual(jobs, executedJobs(spec)) {
		t.Error("ExecutedJobs not reproducible")
	}
	// Group naming: scheme + grid, with non-default damage called out.
	if g := jobs[0].Group(); g != "SR 8x8" {
		t.Errorf("group = %q", g)
	}
	if g := (TrialJob{Scheme: AR, Grid: GridSize{16, 16}, Holes: 4}).Group(); g != "AR 16x16 holes=4" {
		t.Errorf("group = %q", g)
	}
	jam := TrialJob{Scheme: SR, Grid: GridSize{16, 16}, Holes: 1, Workload: WorkloadSpec{Kind: WorkloadJam}}
	if g := jam.Group(); g != "SR 16x16 jam" {
		t.Errorf("group = %q", g)
	}
	churn := TrialJob{Scheme: SR, Grid: GridSize{16, 16}, Holes: 1,
		Workload: WorkloadSpec{Kind: WorkloadChurn, Every: 5, Waves: 3}, Runner: RunAsync}
	if g := churn.Group(); g != "SR 16x16 churn e=5 w=3 async" {
		t.Errorf("group = %q", g)
	}
}

// runCampaign runs spec on workers through RunCampaignStream and
// returns its samples in job order and their streamed (Accumulator)
// points, failing the test on error.
func runCampaign(t testing.TB, spec CampaignSpec, workers int) ([]experiment.Sample, []experiment.Point) {
	t.Helper()
	var samples []experiment.Sample
	acc := experiment.NewAccumulator()
	err := RunCampaignStream(context.Background(), spec, experiment.Options{Workers: workers},
		func(_ TrialJob, s experiment.Sample) error {
			samples = append(samples, s)
			acc.Add(s)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return samples, acc.Points()
}

func TestRunCampaignAggregates(t *testing.T) {
	spec := CampaignSpec{
		Schemes:    []SchemeKind{SR, AR},
		Grids:      []GridSize{{8, 8}},
		Spares:     []int{8, 24},
		Replicates: 4,
		BaseSeed:   99,
	}
	samples, streamed := runCampaign(t, spec, 4)
	if len(samples) != 2*2*4 {
		t.Fatalf("samples = %d", len(samples))
	}
	pts := experiment.Aggregate(samples)
	if len(pts) != 4 { // 2 schemes x 2 spare counts
		t.Fatalf("points = %d: %+v", len(pts), pts)
	}
	for _, p := range pts {
		d, ok := p.Metrics["moves"]
		if !ok || d.N != 4 {
			t.Errorf("%s/%g: moves = %+v", p.Group, p.X, d)
		}
		if p.Metrics["success_rate"].Mean < 0 || p.Metrics["success_rate"].Mean > 100 {
			t.Errorf("%s/%g: success = %v", p.Group, p.X, p.Metrics["success_rate"])
		}
	}
	// SR initiates exactly one process per hole per trial.
	for _, p := range pts {
		if p.Group == "SR 8x8" && p.Metrics["initiated"].Mean != 1 {
			t.Errorf("SR initiated mean = %v, want 1", p.Metrics["initiated"].Mean)
		}
	}

	// Worker-count invariance holds across the whole campaign too.
	again, streamedSeq := runCampaign(t, spec, 1)
	if !reflect.DeepEqual(samples, again) {
		t.Error("campaign results depend on worker count")
	}

	// The streaming aggregation path agrees with the batch reference on
	// every exact field and is itself worker-invariant.
	if len(streamed) != len(pts) {
		t.Fatalf("streamed points = %d, want %d", len(streamed), len(pts))
	}
	for i := range pts {
		b, s := pts[i], streamed[i]
		if b.Group != s.Group || b.X != s.X {
			t.Fatalf("streamed point %d is (%s, %g), want (%s, %g)", i, s.Group, s.X, b.Group, b.X)
		}
		for name, bd := range b.Metrics {
			sd := s.Metrics[name]
			if bd.N != sd.N || bd.Min != sd.Min || bd.Max != sd.Max {
				t.Errorf("%s/%g %s: %+v vs %+v", b.Group, b.X, name, bd, sd)
			}
			if diff := bd.Mean - sd.Mean; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%s/%g %s: mean %v vs %v", b.Group, b.X, name, bd.Mean, sd.Mean)
			}
		}
	}
	if !reflect.DeepEqual(streamed, streamedSeq) {
		t.Error("streaming aggregation depends on worker count")
	}
}

func TestJobSpaceMatchesJobs(t *testing.T) {
	spec := CampaignSpec{
		Schemes:    []SchemeKind{SR, AR, SRShortcut},
		Grids:      []GridSize{{8, 8}, {12, 12}},
		Spares:     []int{10, 30, 50},
		Holes:      []int{1, 2},
		Workloads:  []WorkloadSpec{{Kind: WorkloadHoles}, {Kind: WorkloadJam}},
		Replicates: 3,
		BaseSeed:   5,
	}
	jobs := executedJobs(spec)
	js := jobSpace(t, spec)
	if js.Len() != len(jobs) || spec.NumJobs() != len(jobs) {
		t.Fatalf("Len = %d, NumJobs = %d, want %d", js.Len(), spec.NumJobs(), len(jobs))
	}
	for i, want := range jobs {
		if got := js.At(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("At(%d) = %+v, want %+v", i, got, want)
		}
	}
	for _, bad := range []int{-1, js.Len()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) should panic", bad)
				}
			}()
			js.At(bad)
		}()
	}
}

// TestNumJobsMatchesJobSpace checks the seed-free job count against the
// indexed job space over the checked-in campaign specs and the
// all-defaults spec.
func TestNumJobsMatchesJobSpace(t *testing.T) {
	paths, err := filepath.Glob("../../specs/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no spec fixtures: %v", err)
	}
	specs := map[string]CampaignSpec{"defaults": {}}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var spec CampaignSpec
		if err := UnmarshalSpecJSON(data, &spec); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		specs[filepath.Base(p)] = spec
	}
	for name, spec := range specs {
		if got, want := spec.NumJobs(), jobSpace(t, spec).Len(); got != want {
			t.Errorf("%s: NumJobs = %d, JobSpace().Len() = %d", name, got, want)
		}
	}
}

func TestCampaignSpecJSON(t *testing.T) {
	in := `{
		"schemes": ["SR", "sr+shortcut", "AR"],
		"grids": [{"cols": 16, "rows": 16}],
		"spares": [10, 55],
		"workloads": [{"kind": "holes"}, {"kind": "jam"}],
		"replicates": 5,
		"seed": 42
	}`
	var spec CampaignSpec
	if err := UnmarshalSpecJSON([]byte(in), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Schemes) != 3 || spec.Schemes[1] != SRShortcut {
		t.Errorf("schemes = %v", spec.Schemes)
	}
	if len(spec.Workloads) != 2 || spec.Workloads[1].Kind != WorkloadJam {
		t.Errorf("workloads = %v", spec.Workloads)
	}
	out, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back CampaignSpec
	if err := UnmarshalSpecJSON(out, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Errorf("round trip:\n%+v\n%+v", spec, back)
	}

	// The older "failures" spelling of the damage dimension decodes to
	// the same spec as its "workloads" equivalent, so it hashes alike
	// and runs the same jobs.
	for old, equiv := range map[string]string{
		`{"failures": ["holes", "jam"]}`: `{"workloads": [{"kind": "holes"}, {"kind": "jam"}]}`,
		strings.Replace(in, `"workloads": [{"kind": "holes"}, {"kind": "jam"}]`, `"failures": ["holes", "jam"]`, 1): in,
	} {
		var a, b CampaignSpec
		if err := UnmarshalSpecJSON([]byte(old), &a); err != nil {
			t.Fatalf("%s: %v", old, err)
		}
		if err := UnmarshalSpecJSON([]byte(equiv), &b); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s decodes to\n%+v, want\n%+v", old, a, b)
		}
		ha, errA := telemetry.SpecHash(a.Normalized())
		hb, errB := telemetry.SpecHash(b.Normalized())
		if errA != nil || errB != nil || ha != hb {
			t.Errorf("%s: spec hash %s, want %s (%v, %v)", old, ha, hb, errA, errB)
		}
		if a.NumJobs() != b.NumJobs() || !reflect.DeepEqual(executedJobs(a), executedJobs(b)) {
			t.Errorf("%s: job list differs from its workloads equivalent", old)
		}
	}

	for _, bad := range []string{
		`{"schemes": ["XR"]}`,
		`{"failures": ["flood"]}`,
		`{"failures": ["jam"], "workloads": [{"kind": "jam"}]}`,
		`{"failure": ["jam"]}`,
	} {
		var spec CampaignSpec
		if err := UnmarshalSpecJSON([]byte(bad), &spec); err == nil {
			t.Errorf("%s should fail to decode", bad)
		}
	}
}

func TestCampaignSpecNormalized(t *testing.T) {
	var n CampaignSpec
	if err := UnmarshalSpecJSON([]byte(`{}`), &n); err != nil {
		t.Fatal(err)
	}
	n = n.Normalized()
	if n.Replicates != 20 || len(n.Schemes) != 2 || len(n.Spares) == 0 ||
		len(n.Grids) != 1 || len(n.Holes) != 1 ||
		!reflect.DeepEqual(n.Workloads, []WorkloadSpec{{Kind: WorkloadHoles}}) {
		t.Errorf("defaults not filled: %+v", n)
	}
	// Set fields survive.
	n = CampaignSpec{Replicates: 7, Spares: []int{3}}.Normalized()
	if n.Replicates != 7 || len(n.Spares) != 1 {
		t.Errorf("explicit fields clobbered: %+v", n)
	}
}

func TestParseGridSize(t *testing.T) {
	g, err := ParseGridSize(" 16x16 ")
	if err != nil || g != (GridSize{16, 16}) {
		t.Errorf("ParseGridSize = %v, %v", g, err)
	}
	for _, bad := range []string{"16by16", "16x16x3", "8x8junk", "x8", "8x", ""} {
		if _, err := ParseGridSize(bad); err == nil {
			t.Errorf("ParseGridSize(%q) should fail", bad)
		}
	}
}

func TestParseSchemeKindAndFailureMode(t *testing.T) {
	for in, want := range map[string]SchemeKind{
		"SR": SR, "sr": SR, "SRS": SRShortcut, "SR+shortcut": SRShortcut, "ar": AR,
	} {
		got, err := ParseSchemeKind(in)
		if err != nil || got != want {
			t.Errorf("ParseSchemeKind(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSchemeKind("bogus"); err == nil {
		t.Error("bogus scheme should fail")
	}
	// The failure-mode names of the older "failures" spec spelling.
	for in, want := range map[string]string{
		"holes": WorkloadHoles, "": WorkloadHoles, "JAM": WorkloadJam, " jam ": WorkloadJam,
	} {
		data, err := json.Marshal(map[string][]string{"failures": {in}})
		if err != nil {
			t.Fatal(err)
		}
		var spec CampaignSpec
		if err := UnmarshalSpecJSON(data, &spec); err != nil ||
			!reflect.DeepEqual(spec.Workloads, []WorkloadSpec{{Kind: want}}) {
			t.Errorf("failures [%q] = %v, %v", in, spec.Workloads, err)
		}
	}
	var spec CampaignSpec
	if err := UnmarshalSpecJSON([]byte(`{"failures": ["flood"]}`), &spec); err == nil {
		t.Error("bogus mode should fail")
	}
}

// TestShardRangeIsSliceOfFullCampaign pins the sharding contract: a
// spec restricted to a cell range computes exactly the trials of those
// cells in the unsharded campaign, byte for byte and in job order.
func TestShardRangeIsSliceOfFullCampaign(t *testing.T) {
	spec := CampaignSpec{
		Schemes:    []SchemeKind{SR, AR},
		Grids:      []GridSize{{8, 8}},
		Spares:     []int{6, 18},
		Replicates: 5,
		BaseSeed:   77,
	}
	full, _ := runCampaign(t, spec, 2)
	// 4 cells of 5 jobs: cell c is jobs [5c, 5c+5), so the shards below
	// tile the full run's sample stream in order.
	var stitched []experiment.Sample
	for _, sh := range []struct{ first, count int }{{0, 1}, {1, 2}, {3, 1}} {
		s := spec
		s.CellFirst, s.CellCount = sh.first, sh.count
		part, _ := runCampaign(t, s, 2)
		if len(part) != sh.count*spec.Replicates {
			t.Fatalf("cells [%d, +%d) produced %d samples, want %d", sh.first, sh.count, len(part), sh.count*spec.Replicates)
		}
		stitched = append(stitched, part...)
	}
	if !reflect.DeepEqual(stitched, full) {
		t.Fatalf("stitched cell shards differ from the full campaign:\nshards: %+v\nfull:   %+v", stitched, full)
	}
}

// TestCampaignSpecShardValidation rejects malformed cell ranges.
func TestCampaignSpecShardValidation(t *testing.T) {
	// SR x {8, 24}: 2 cells.
	base := CampaignSpec{Schemes: []SchemeKind{SR}, Spares: []int{8, 24}, Replicates: 10}
	for _, r := range [][2]int{{-1, 2}, {0, -2}, {1, 0}, {1, 2}, {2, 1}} {
		spec := base
		spec.CellFirst, spec.CellCount = r[0], r[1]
		if err := spec.Validate(); err == nil {
			t.Errorf("cell range %v should fail validation", r)
		}
	}
	base.CellFirst, base.CellCount = 1, 1
	if err := base.Validate(); err != nil {
		t.Errorf("valid cell range rejected: %v", err)
	}
}

// TestValidateRejectsOutOfRange: values no trial can run fail
// validation, before any job space is derived from them (a negative
// replicate count would otherwise panic in the seed derivation, a
// negative AR hop budget in the first AR trial).
func TestValidateRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*CampaignSpec)
		want string // "" means valid
	}{
		{"defaults", func(s *CampaignSpec) {}, ""},
		{"zero replicates mean 20", func(s *CampaignSpec) { s.Replicates = 0 }, ""},
		{"negative replicates", func(s *CampaignSpec) { s.Replicates = -1 }, "replicate count -1"},
		{"zero holes", func(s *CampaignSpec) { s.Holes = []int{0, 1} }, "hole count 0"},
		{"negative holes", func(s *CampaignSpec) { s.Holes = []int{-2} }, "hole count -2"},
		{"negative comm range", func(s *CampaignSpec) { s.CommRange = -3 }, "comm_range -3"},
		{"NaN comm range", func(s *CampaignSpec) { s.CommRange = math.NaN() }, "comm_range NaN"},
		{"negative jam radius", func(s *CampaignSpec) { s.JamRadius = -1 }, "jam_radius -1"},
		{"negative AR hops", func(s *CampaignSpec) { s.ARMaxHops = -4 }, "ar_max_hops -4"},
		{"AR prob below 0", func(s *CampaignSpec) { s.ARInitProb = -0.1 }, "ar_init_prob -0.1"},
		{"AR prob above 1", func(s *CampaignSpec) { s.ARInitProb = 1.5 }, "ar_init_prob 1.5"},
		{"AR prob 1", func(s *CampaignSpec) { s.ARInitProb = 1 }, ""},
		// Every cell is checked, not only the first grid and spare count.
		{"negative second spare count", func(s *CampaignSpec) { s.Spares = []int{10, -5} }, "-5"},
		{"second grid too small", func(s *CampaignSpec) { s.Grids = []GridSize{{8, 8}, {1, 1}} }, "1x1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := CampaignSpec{Grids: []GridSize{{8, 8}}, Spares: []int{8}, Replicates: 2}
			tc.edit(&s)
			err := s.Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Validate = %v, want nil", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("Validate = %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

// TestValidateBoundsCampaignSize: a spec asking for more replicates,
// grid cells, spares (resupplied ones included), campaign cells, jobs
// or scheduled workload events (alone or composed) than the limits
// fails validation naming the field and the limit, before anything is
// allocated in proportion to the request; a spec at every limit passes
// the size checks.
func TestValidateBoundsCampaignSize(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []string
	}{
		{`{"replicates":1000000000}`, []string{"replicates 1000000000", "1048576"}},
		{`{"spares":[10,1000000000]}`, []string{"spares: 1000000000", "1048576"}},
		{`{"grids":[{"cols":100000,"rows":100000}]}`, []string{"grids: 100000x100000", "4194304"}},
		{`{"grids":[{"cols":8,"rows":8},{"cols":5000000,"rows":1}]}`, []string{"grids: 5000000x1", "4194304"}},
		{`{"claim_ttls":[` + intList(300) + `],"spares":[` + intList(300) + `]}`, []string{"cells", "65536"}},
		{`{"spares":[` + intList(1000) + `],"replicates":1048576}`, []string{"jobs", "1073741824"}},
		{`{"workloads":[{"kind":"resupply","batch":100000000,"count":1000}]}`, []string{"resupply batch 100000000 x count 1000", "1048576"}},
		{`{"workloads":[{"kind":"sequence","children":[{"kind":"holes"},{"kind":"resupply","count":1000000000}]}]}`, []string{"count 1000000000", "1048576"}},
		{`{"workloads":[{"kind":"churn","waves":1000000000}]}`, []string{"churn waves 1000000000", "4096"}},
		{`{"workloads":[{"kind":"mover","waves":5000}]}`, []string{"mover waves 5000", "4096"}},
		{`{"workloads":[{"kind":"resupply","count":5000}]}`, []string{"resupply count 5000", "4096"}},
		{`{"workloads":[` + nestedOverlay(MaxCompositionDepth) + `]}`, []string{"overlay", "4096"}},
	} {
		var spec CampaignSpec
		if err := UnmarshalSpecJSON([]byte(tc.spec), &spec); err != nil {
			t.Fatalf("%.60s: %v", tc.spec, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := spec.Validate()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%.60s: Validate = nil, want a size error", tc.spec)
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%.60s: Validate = %v, want it to name %q", tc.spec, err, w)
			}
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%.60s: Validate allocated %d bytes before rejecting it", tc.spec, got)
		}
	}
	atLimit := CampaignSpec{
		Schemes: []SchemeKind{SR}, Grids: []GridSize{{2048, 2048}}, Spares: []int{maxSpares},
		Replicates: maxReplicates, Workloads: []WorkloadSpec{{Kind: WorkloadHoles}},
	}
	atLimit.normalize()
	if err := atLimit.checkRanges(); err != nil {
		t.Errorf("a spec at the limits: %v", err)
	}
	for _, w := range []WorkloadSpec{
		{Kind: WorkloadChurn, Waves: maxEvents},
		{Kind: WorkloadResupply, Count: maxEvents},
		{Kind: WorkloadSequence, Children: []WorkloadSpec{{Kind: WorkloadChurn, Waves: maxEvents / 2}, {Kind: WorkloadMover, Waves: maxEvents/2 - 2}}},
	} {
		if _, err := BuildWorkload(w); err != nil {
			t.Errorf("a workload at the event limit: %v", err)
		}
	}
	atLimit.Spares, atLimit.ClaimTTLs = make([]int, maxCells/8), make([]int, 8)
	atLimit.Replicates = maxJobs / maxCells
	if err := atLimit.checkRanges(); err != nil {
		t.Errorf("a spec of %d cells and %d jobs: %v", maxCells, maxJobs, err)
	}
}

// nestedOverlay returns an overlay spec nested depth deep (the leaves
// counted as one level), every node with MaxChildren children and every
// leaf a 100-wave churn: each leaf and each inner overlay below the
// root is under the event limit, the root's total is over it.
func nestedOverlay(depth int) string {
	if depth == 1 {
		return `{"kind":"churn","waves":100}`
	}
	child := nestedOverlay(depth - 1)
	return `{"kind":"overlay","children":[` + strings.Repeat(child+",", MaxChildren-1) + child + `]}`
}

// intList returns "1,2,...,n".
func intList(n int) string {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		if i > 1 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(i))
	}
	return b.String()
}

// TestRunTrialRejectsOutOfRange: a trial configuration outside the
// range its controller can run is an error from RunTrial, never a panic
// and never a run.
func TestRunTrialRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*TrialConfig)
		want string
	}{
		{"negative AR hops", func(c *TrialConfig) { c.ARMaxHops = -4 }, "ar_max_hops -4"},
		{"AR prob 2", func(c *TrialConfig) { c.ARInitProb = 2 }, "ar_init_prob 2"},
		{"AR prob NaN", func(c *TrialConfig) { c.ARInitProb = math.NaN() }, "ar_init_prob NaN"},
		{"negative comm range", func(c *TrialConfig) { c.CommRange = -3 }, "comm_range -3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := TrialConfig{Cols: 8, Rows: 8, Scheme: AR, Spares: 10, Seed: 3}
			tc.edit(&cfg)
			var err error
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("RunTrial panicked: %v", p)
					}
				}()
				_, err = RunTrial(cfg)
			}()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunTrial = %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

// TestUnmarshalSpecJSONRejectsReplicateShards: a shard spec written
// before shards split whole cells (here the spec echoed by such a shard
// manifest) fails with the reason, not a bare unknown-field error.
func TestUnmarshalSpecJSONRejectsReplicateShards(t *testing.T) {
	old := `{"schemes":["SR","AR"],"grids":[{"cols":8,"rows":8}],"spares":[8,24],"holes":[1],` +
		`"workloads":[{"kind":"holes"}],"replicates":4,"seed":21,"shard_first":2,"shard_count":2}`
	var spec CampaignSpec
	err := UnmarshalSpecJSON([]byte(old), &spec)
	if err == nil || !strings.Contains(err.Error(), "whole cells") || !strings.Contains(err.Error(), "re-run the shard") {
		t.Fatalf("UnmarshalSpecJSON(old shard spec) = %v, want the shards-split-cells error", err)
	}
	if strings.Contains(err.Error(), "unknown field") {
		t.Errorf("error %q is the bare unknown-field error", err)
	}
}

// TestValidateUnsharded pins the service submission surface: a shard
// spec must not reach a whole-campaign cache or queue.
func TestValidateUnsharded(t *testing.T) {
	spec := CampaignSpec{Replicates: 10}
	if err := spec.ValidateUnsharded(); err != nil {
		t.Errorf("unsharded spec rejected: %v", err)
	}
	spec.CellFirst, spec.CellCount = 0, 1
	if err := spec.ValidateUnsharded(); err == nil {
		t.Error("shard-pinned spec must be rejected by ValidateUnsharded")
	}
	bad := CampaignSpec{Replicates: 10, Workloads: []WorkloadSpec{{Kind: "flood"}}}
	if err := bad.ValidateUnsharded(); err == nil {
		t.Error("ValidateUnsharded must still apply Validate")
	}
}

// TestJobGroupLabelTable checks that JobSpace.At hands out each job's
// group label from a table built once per group: equal to the label the
// job's dimensions spell, and free to read. The async runner hosts SR
// only, so the runner dimension is swept on an SR-only campaign.
func TestJobGroupLabelTable(t *testing.T) {
	spec := CampaignSpec{
		Schemes:    []SchemeKind{SR, AR},
		Grids:      []GridSize{{8, 8}, {9, 9}},
		Spares:     []int{4, 20},
		Holes:      []int{1, 3},
		Workloads:  []WorkloadSpec{{Kind: WorkloadHoles}, {Kind: WorkloadJam}, {Kind: WorkloadChurn, Every: 3}},
		ClaimTTLs:  []int{0},
		Replicates: 2,
	}
	async := spec
	async.Schemes, async.Runners = []SchemeKind{SR}, []RunnerKind{RunSync, RunAsync}
	for _, spec := range []CampaignSpec{spec, async} {
		js := jobSpace(t, spec)
		for i := 0; i < js.Len(); i++ {
			j := js.At(i)
			if j.group == "" || j.Group() != j.label() {
				t.Fatalf("job %d: table label %q, computed %q", i, j.group, j.label())
			}
		}
		j := js.At(js.Len() - 1)
		if allocs := testing.AllocsPerRun(10, func() { _ = j.Group() }); allocs != 0 {
			t.Errorf("Group of a JobSpace job allocates %.0f times", allocs)
		}
	}
}

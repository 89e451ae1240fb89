package sim

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"

	"wsncover/internal/experiment"
)

// TestArenaTrialsBitIdenticalToFresh runs a heterogeneous sequence of
// configurations through one arena — forcing rebuilds, resets, scheme
// switches, grid switches, and energy-model switches — and requires
// every result to equal the fresh-built reference trial.
func TestArenaTrialsBitIdenticalToFresh(t *testing.T) {
	configs := []TrialConfig{
		{Cols: 8, Rows: 8, Scheme: SR, Spares: 10, Holes: 2, Seed: 1},
		{Cols: 8, Rows: 8, Scheme: SR, Spares: 10, Holes: 2, Seed: 2}, // reset reuse
		{Cols: 8, Rows: 8, Scheme: AR, Spares: 10, Holes: 2, Seed: 2}, // scheme switch, same net shape
		{Cols: 9, Rows: 9, Scheme: SR, Spares: 12, Holes: 3, Seed: 3}, // dual-path grid, rebuild
		{Cols: 9, Rows: 9, Scheme: SRShortcut, Spares: 0, Holes: 3, Seed: 4},
		{Cols: 8, Rows: 8, Scheme: SR, Spares: 10, Holes: 2, Seed: 1,
			Workload: WorkloadSpec{Kind: WorkloadChurn, Every: 3, Waves: 2}},
		{Cols: 8, Rows: 8, Scheme: SR, Spares: 20, Seed: 5,
			Workload: WorkloadSpec{Kind: WorkloadDepletion, Budget: 15}}, // installs an energy model
		{Cols: 8, Rows: 8, Scheme: SR, Spares: 10, Holes: 2, Seed: 6}, // back to no energy model
		{Cols: 8, Rows: 8, Scheme: SR, Spares: 8, Seed: 7, Runner: RunAsync,
			Workload: WorkloadSpec{Kind: WorkloadJam}},
		{Cols: 8, Rows: 8, Scheme: SR, Spares: 10, Holes: 2, Seed: 8, LegacyDetect: true},
	}
	arena := NewTrialArena()
	for i, cfg := range configs {
		pooled, err := arena.RunTrial(cfg)
		if err != nil {
			t.Fatalf("config %d pooled: %v", i, err)
		}
		fresh, err := RunTrial(cfg)
		if err != nil {
			t.Fatalf("config %d fresh: %v", i, err)
		}
		if pooled != fresh {
			t.Fatalf("config %d: pooled %+v differs from fresh %+v", i, pooled, fresh)
		}
	}
}

// pooledManifestBytes serializes a campaign manifest with pooling on or
// off. Mirrors manifestBytes (differential_test.go), but over the
// FreshBuild axis.
func pooledManifestBytes(t *testing.T, spec CampaignSpec, fresh bool, workers int) []byte {
	t.Helper()
	spec.FreshBuild = fresh
	samples, err := RunCampaignSamples(context.Background(), spec, experiment.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return samplesManifestBytes(t, spec, samples)
}

// samplesManifestBytes serializes the manifest of a campaign's samples.
func samplesManifestBytes(t *testing.T, spec CampaignSpec, samples []experiment.Sample) []byte {
	t.Helper()
	points := experiment.Aggregate(samples)
	// The FreshBuild flag is execution strategy, not a result; pin it in
	// the echoed spec so the byte comparison covers results only.
	echo := spec.Normalized()
	echo.FreshBuild = false
	m, err := experiment.NewManifest("diff", echo, len(samples), 0, points)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOneArenaAlternatingCampaignsMatchFresh runs lossy, churn and holes
// campaigns back to back, twice over, through one arena, so every
// trial's random streams are ones the previous trial's workload left
// behind: a lossy trial's loss stream, a churn trial's event stream and
// per-firing children, a holes trial's deployment streams. Each
// campaign's manifest must equal the FreshBuild one byte for byte, which
// holds only if no stream outlives its trial.
func TestOneArenaAlternatingCampaignsMatchFresh(t *testing.T) {
	base := CampaignSpec{
		Schemes:    []SchemeKind{SR, AR},
		Grids:      []GridSize{{10, 10}},
		Spares:     []int{6, 30},
		Holes:      []int{3},
		Replicates: 3,
	}
	lossy, churn, holes := base, base, base
	lossy.Schemes = []SchemeKind{SR, SRShortcut} // a lossy radio needs an SR-family scheme
	lossy.Workloads = []WorkloadSpec{{Kind: WorkloadLossy, Loss: 0.3, TTL: 6}}
	lossy.BaseSeed = 91
	churn.Workloads = []WorkloadSpec{{Kind: WorkloadChurn, Every: 2, Waves: 4}}
	churn.BaseSeed = 92
	holes.BaseSeed = 93
	campaigns := []struct {
		name string
		spec CampaignSpec
	}{{"lossy", lossy}, {"churn", churn}, {"holes", holes}}
	arena := NewTrialArena()
	for pass := 0; pass < 2; pass++ {
		for _, c := range campaigns {
			js := c.spec.JobSpace()
			samples := make([]experiment.Sample, js.Len())
			for i := range samples {
				j := js.At(i)
				res, err := arena.RunTrial(j.config(c.spec.Normalized()))
				if err != nil {
					t.Fatal(err)
				}
				samples[i] = SampleOf(j, res)
			}
			got := samplesManifestBytes(t, c.spec, samples)
			if want := pooledManifestBytes(t, c.spec, true, 1); !bytes.Equal(got, want) {
				t.Fatalf("pass %d, %s campaign: one-arena manifest differs from FreshBuild", pass, c.name)
			}
		}
	}
}

// TestCampaignManifestsBitIdenticalAcrossPooling is the tentpole
// acceptance criterion: over schemes x workloads x runners, pooled and
// fresh campaign runs must produce byte-identical manifests at any
// worker count.
func TestCampaignManifestsBitIdenticalAcrossPooling(t *testing.T) {
	specs := []CampaignSpec{
		{
			Schemes: []SchemeKind{SR, SRShortcut, AR},
			Grids:   []GridSize{{8, 8}, {9, 9}}, // cycle and dual path
			Spares:  []int{4, 20},
			Holes:   []int{1, 3},
			Workloads: []WorkloadSpec{
				{Kind: WorkloadHoles},
				{Kind: WorkloadJam},
				{Kind: WorkloadChurn, Every: 3, Waves: 2},
				{Kind: WorkloadDepletion, Budget: 20},
			},
			Replicates: 2,
			BaseSeed:   404,
		},
		{
			// The async runner (SR only) alongside sync, plus a spare
			// drought so exhausted walks cross the pooling boundary too.
			Schemes:    []SchemeKind{SR},
			Grids:      []GridSize{{8, 8}},
			Spares:     []int{0, 10},
			Runners:    []RunnerKind{RunSync, RunAsync},
			Replicates: 3,
			BaseSeed:   505,
		},
	}
	for i, spec := range specs {
		ref := pooledManifestBytes(t, spec, true, 1)
		for _, workers := range []int{1, 4} {
			if got := pooledManifestBytes(t, spec, false, workers); !bytes.Equal(got, ref) {
				t.Errorf("spec %d: pooled manifest differs from fresh at workers=%d", i, workers)
			}
		}
		if got := pooledManifestBytes(t, spec, true, 4); !bytes.Equal(got, ref) {
			t.Errorf("spec %d: fresh manifest not worker-invariant", i)
		}
	}
}

// TestSteadyStateReplicateAllocBudget pins the arena's steady state
// under a small fixed allocation budget per trial — the replicate-level
// companion of the 0-allocs/round pin. What it excludes is everything
// proportional to the world size (node objects, cell registries,
// topology tables, permutation buffers), which the arena and the
// topology cache amortize across replicates and deployment no longer
// materializes, and the controllers' tables, which live in pooled dense
// scratch (core/ar Scratch). The trial's random streams are reseeded in
// the arena's randx.Streams, so they allocate nothing either; what
// remains is the trial's own bookkeeping: the Trial, its schedule and
// event cursor, and the workload closures.
func TestSteadyStateReplicateAllocBudget(t *testing.T) {
	const budget = 16 // allocs/trial (measured 8 for both SR and AR; fresh 16x16 builds cost ~200)
	for _, scheme := range []SchemeKind{SR, AR} {
		arena := NewTrialArena()
		cfg := TrialConfig{Cols: 16, Rows: 16, Scheme: scheme, Spares: 40, Holes: 2}
		run := func(seed int64) {
			cfg.Seed = seed
			if _, err := arena.RunTrial(cfg); err != nil {
				t.Fatal(err)
			}
		}
		for s := int64(0); s < 8; s++ { // warm the pool across varied layouts
			run(s)
		}
		seed := int64(0)
		allocs := testing.AllocsPerRun(16, func() {
			run(seed % 8)
			seed++
		})
		t.Logf("%v steady-state 16x16 replicate: %.0f allocs/trial", scheme, allocs)
		if allocs > budget {
			t.Errorf("%v steady-state replicate allocates %.0f times, budget %d", scheme, allocs, budget)
		}
	}
}

// TestConsecutiveCampaignsReuseArenas runs back-to-back campaigns that
// alternate grid size and energy model, so each campaign picks up an
// arena the previous one left in the process-lived free list built for
// a different world. Every manifest must still equal the fresh build.
func TestConsecutiveCampaignsReuseArenas(t *testing.T) {
	holes := CampaignSpec{
		Schemes:    []SchemeKind{SR, AR},
		Grids:      []GridSize{{16, 16}},
		Spares:     []int{10, 40},
		Holes:      []int{2},
		Replicates: 2,
		BaseSeed:   71,
	}
	depletion := CampaignSpec{
		Schemes:    []SchemeKind{SR},
		Grids:      []GridSize{{32, 32}},
		Spares:     []int{30},
		Workloads:  []WorkloadSpec{{Kind: WorkloadDepletion, Budget: 20}},
		Replicates: 2,
		BaseSeed:   72,
	}
	for i, spec := range []CampaignSpec{holes, depletion, holes, depletion} {
		for _, workers := range []int{1, 2} {
			if got, ref := pooledManifestBytes(t, spec, false, workers), pooledManifestBytes(t, spec, true, 1); !bytes.Equal(got, ref) {
				t.Fatalf("campaign %d (workers=%d): pooled manifest differs from fresh", i, workers)
			}
		}
	}
}

// TestConcurrentCampaignsShareFreeList runs campaigns on several
// goroutines at once, each taking arenas from and returning them to the
// shared free list; run under -race it checks the list's locking, and
// the manifests check that no arena is ever used by two trials at once.
func TestConcurrentCampaignsShareFreeList(t *testing.T) {
	specs := []CampaignSpec{
		{Schemes: []SchemeKind{SR}, Grids: []GridSize{{12, 12}}, Spares: []int{20}, Holes: []int{3}, Replicates: 4, BaseSeed: 81},
		{Schemes: []SchemeKind{AR}, Grids: []GridSize{{10, 10}}, Spares: []int{15}, Holes: []int{2}, Replicates: 4, BaseSeed: 82},
	}
	refs := make([][]byte, len(specs))
	for i, spec := range specs {
		refs[i] = pooledManifestBytes(t, spec, true, 1)
	}
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for i := range specs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if got := pooledManifestBytes(t, specs[i], false, 2); !bytes.Equal(got, refs[i]) {
					t.Errorf("spec %d: concurrent pooled manifest differs from fresh", i)
				}
			}(i)
		}
	}
	wg.Wait()
}

// TestWarmCampaignAllocBudget pins what a campaign allocates per trial
// once an earlier campaign has left a same-shape arena in the free
// list: the 256x256 world (node columns, cell registries, controller
// tables) and the trial's random streams are reused, so per-trial
// allocation is the trial's own bookkeeping plus a share of the
// campaign's fixed overhead. A campaign that builds its own arena
// instead measured 129 allocs and 4.4 MB per trial here.
func TestWarmCampaignAllocBudget(t *testing.T) {
	const (
		allocBudget = 40       // allocs/trial (measured 28)
		byteBudget  = 16 << 10 // bytes/trial (measured 7 KiB)
	)
	spec := CampaignSpec{
		Schemes:         []SchemeKind{SR},
		Grids:           []GridSize{{256, 256}},
		Spares:          []int{1200},
		Holes:           []int{64},
		AdjacentHolesOK: true,
		Replicates:      4,
		Workers:         1,
	}
	run := func() {
		if err := RunCampaignStream(context.Background(), spec, experiment.Options{},
			func(TrialJob, experiment.Sample) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: leaves a 256x256 arena in the free list
	trials := float64(spec.NumJobs())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / trials
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / trials
	t.Logf("warm 256x256 campaign: %.0f allocs/trial, %.0f B/trial", allocs, bytesPer)
	if allocs > allocBudget {
		t.Errorf("warm campaign allocates %.0f times per trial, budget %d", allocs, allocBudget)
	}
	if bytesPer > byteBudget {
		t.Errorf("warm campaign allocates %.0f B per trial, budget %d", bytesPer, byteBudget)
	}
}

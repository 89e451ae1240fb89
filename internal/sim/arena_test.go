package sim

import (
	"bytes"
	"context"
	"fmt"
	"os"
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
	samples, _ := runCampaign(t, spec, workers)
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

// arenaManifestBytes runs every job of the campaign, in job order,
// through the one given arena and serializes the manifest.
func arenaManifestBytes(t *testing.T, arena *TrialArena, spec CampaignSpec) []byte {
	t.Helper()
	js := jobSpace(t, spec)
	samples := make([]experiment.Sample, js.Len())
	for i := range samples {
		j := js.At(i)
		res, err := arena.RunTrial(j.config(spec.Normalized()))
		if err != nil {
			t.Fatal(err)
		}
		samples[i] = SampleOf(j, res)
	}
	return samplesManifestBytes(t, spec, samples)
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
			got := arenaManifestBytes(t, arena, c.spec)
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
// the arena's randx.Streams, and the arena reassembles its own Trial and
// event cursor in place, so a warm trial allocates nothing at all.
func TestSteadyStateReplicateAllocBudget(t *testing.T) {
	const budget = 0 // allocs/trial (2 before the arena held the Trial and its cursor; fresh 16x16 builds cost ~200)
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

// warmCampaignSpec is a 256x256 campaign in which no layout recurs: one
// scheme, one spare count.
func warmCampaignSpec() CampaignSpec {
	return CampaignSpec{
		Schemes:         []SchemeKind{SR},
		Grids:           []GridSize{{256, 256}},
		Spares:          []int{1200},
		Holes:           []int{64},
		AdjacentHolesOK: true,
		Replicates:      4,
		Workers:         1,
	}
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
		allocBudget = 24      // allocs/trial (measured 14-16; 20-22 before the arena held the Trial and the Sample was typed)
		byteBudget  = 8 << 10 // bytes/trial (measured 5.6-6.4 KiB; 6.4-6.6 KiB before)
	)
	spec := warmCampaignSpec()
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

// TestWarmServiceMixAllocBudget is TestWarmCampaignAllocBudget on the
// service-mix base campaign, where layouts recur: once a campaign has
// left an arena with the 16x16 world and its memo of deployment bases
// in the free list, a rerun allocates only the campaign's fixed
// overhead: nothing per trial, and nothing for the bases it replays.
func TestWarmServiceMixAllocBudget(t *testing.T) {
	const (
		allocBudget = 1   // allocs/trial (measured 0.3; 6.3 with a map Sample and a heap Trial per trial, 14 before the memo and the group-label table)
		byteBudget  = 256 // bytes/trial (measured 136 B; 1,199 B before)
	)
	spec := serviceMixSpec()
	run := func() {
		if err := RunCampaignStream(context.Background(), spec, experiment.Options{},
			func(TrialJob, experiment.Sample) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: leaves a 16x16 arena holding the campaign's bases
	trials := float64(spec.NumJobs())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / trials
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / trials
	t.Logf("warm service-mix campaign: %.1f allocs/trial, %.0f B/trial", allocs, bytesPer)
	if allocs > allocBudget {
		t.Errorf("warm campaign allocates %.1f times per trial, budget %d", allocs, allocBudget)
	}
	if bytesPer > byteBudget {
		t.Errorf("warm campaign allocates %.0f B per trial, budget %d", bytesPer, byteBudget)
	}
}

// serviceMixSpec is the base campaign of perfbench's service-mix
// workload: the paper's 16x16 field, SR against AR over 8 spare counts
// and 2 hole counts, 16 paired replicates.
func serviceMixSpec() CampaignSpec {
	return CampaignSpec{
		Schemes:    []SchemeKind{SR, AR},
		Grids:      []GridSize{{16, 16}},
		Spares:     []int{10, 25, 40, 55, 70, 100, 150, 200},
		Holes:      []int{1, 3},
		Workloads:  []WorkloadSpec{{Kind: WorkloadHoles}},
		Replicates: 16,
		BaseSeed:   1000,
		Workers:    1,
	}
}

// TestRecurringLayoutsMatchFresh is the differential test of the
// arena's deployment-base memo. Every campaign deploys each replicate's
// seed under several schemes and spare counts, so its layouts recur and
// the memo records and replays them; its pooled manifests must equal
// the FreshBuild ones byte for byte at 1 and 2 workers, and so must a
// run of all its jobs through one arena, whose memo must have replayed.
// The openings covered: holes with and without AdjacentHolesOK, jam,
// none (churn), the combinators of specs/adversarial.json, and the
// async runner's.
func TestRecurringLayoutsMatchFresh(t *testing.T) {
	base := CampaignSpec{
		Schemes:    []SchemeKind{SR, AR},
		Grids:      []GridSize{{10, 10}},
		Spares:     []int{4, 12, 30},
		Holes:      []int{1, 3},
		Replicates: 3,
		BaseSeed:   61,
	}
	adjacent, jam, churn, async := base, base, base, base
	adjacent.AdjacentHolesOK = true
	jam.Workloads = []WorkloadSpec{{Kind: WorkloadJam}}
	churn.Workloads = []WorkloadSpec{{Kind: WorkloadChurn, Every: 3, Waves: 2}}
	async.Schemes = []SchemeKind{SR} // the async runner hosts SR only
	async.Runners = []RunnerKind{RunSync, RunAsync}
	async.Workloads = []WorkloadSpec{{Kind: WorkloadHoles}, {Kind: WorkloadJam}, {Kind: WorkloadChurn, Every: 3, Waves: 2}}
	data, err := os.ReadFile("../../specs/adversarial.json")
	if err != nil {
		t.Fatal(err)
	}
	var adversarial CampaignSpec
	if err := UnmarshalSpecJSON(data, &adversarial); err != nil {
		t.Fatal(err)
	}
	adversarial.Spares = []int{12, 24}
	adversarial.Replicates = 2
	cases := []struct {
		name string
		spec CampaignSpec
	}{
		{"holes", base}, {"holes-adjacent", adjacent}, {"jam", jam}, {"churn", churn},
		{"async", async}, {"adversarial", adversarial},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref := pooledManifestBytes(t, c.spec, true, 1)
			for _, workers := range []int{1, 2} {
				if got := pooledManifestBytes(t, c.spec, false, workers); !bytes.Equal(got, ref) {
					t.Errorf("workers=%d: pooled manifest differs from FreshBuild", workers)
				}
			}
			arena := NewTrialArena()
			if got := arenaManifestBytes(t, arena, c.spec); !bytes.Equal(got, ref) {
				t.Error("one-arena manifest differs from FreshBuild")
			}
			if arena.memo.replays == 0 {
				t.Errorf("the memo replayed no base (%d recorded)", arena.memo.records)
			}
		})
	}
}

// TestArenaMemoNeverServesStaleBase runs one arena through blocks of
// trials that switch grid, communication range and seed, and opening
// within a geometry, each block long enough for the memo to record and
// replay bases; geometries recur with the seeds an earlier block
// recorded under another one. Then a memo too small for its keys
// evicts bases whose keys recur. Every trial must equal its fresh
// build.
func TestArenaMemoNeverServesStaleBase(t *testing.T) {
	type geometry struct {
		cols, rows int
		commRange  float64
	}
	geometries := []geometry{{10, 10, 0}, {12, 12, 0}, {10, 10, 3}, {10, 10, 0}, {12, 12, 0}}
	openings := []TrialConfig{
		// Dense enough that avoiding adjacency changes the pick.
		{Holes: 12},
		{Holes: 12, AdjacentHolesOK: true},
		{Holes: 3},
		{Workload: WorkloadSpec{Kind: WorkloadJam}},
		{Workload: WorkloadSpec{Kind: WorkloadChurn, Every: 2, Waves: 2}},
	}
	arena := NewTrialArena()
	for gi, g := range geometries {
		for round := 0; round < 3; round++ {
			for oi, open := range openings {
				for _, seed := range []int64{int64(gi%3) + 5, 9} {
					cfg := open
					cfg.Cols, cfg.Rows, cfg.CommRange = g.cols, g.rows, g.commRange
					cfg.Scheme = []SchemeKind{SR, AR}[round%2]
					cfg.Spares = 3 + 7*round
					cfg.Seed = seed
					pooled, err := arena.RunTrial(cfg)
					if err != nil {
						t.Fatal(err)
					}
					fresh, err := RunTrial(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if pooled != fresh {
						t.Fatalf("geometry %d round %d opening %d seed %d: pooled %+v, fresh %+v",
							gi, round, oi, seed, pooled, fresh)
					}
				}
			}
		}
	}
	if arena.memo.replays == 0 {
		t.Error("the memo replayed no base")
	}

	// A 64x64 memo holds 4 bases. Each of 8 seeds deploys 3 times in a
	// row (recorded, then replayed twice), twice over, so every
	// recording past the fourth evicts a base whose seed comes back
	// later, and comes back to be recorded again.
	arena = NewTrialArena()
	for pass := 0; pass < 2; pass++ {
		for seed := int64(0); seed < 8; seed++ {
			for spares := 10; spares <= 30; spares += 10 {
				cfg := TrialConfig{Cols: 64, Rows: 64, Scheme: SR, Spares: spares, Holes: 4, Seed: seed}
				pooled, err := arena.RunTrial(cfg)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := RunTrial(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if pooled != fresh {
					t.Fatalf("64x64 pass %d seed %d spares %d: pooled %+v, fresh %+v", pass, seed, spares, pooled, fresh)
				}
			}
		}
	}
	if n := len(arena.memo.bases); n != 4 || arena.memo.records != 16 || arena.memo.replays != 32 {
		t.Errorf("64x64 runs of 3: %d bases held, %d recorded, %d replayed; want 4, 16, 32",
			n, arena.memo.records, arena.memo.replays)
	}
}

// TestArenaMemoEngagement pins when the memo works: on the service-mix
// base campaign every replicate's layout recurs across 2 schemes and 8
// spare counts, so each (seed, holes) key is recorded the first time it
// is built and replayed on the other 15 trials; rounds of the base
// campaign and its widened sweep (12 spare counts up to 600) outgrow
// the memo's bytes, so each round records all 32 keys of each campaign
// again, but every trial is recorded or replayed and none is built
// plain; a rotation of more seeds than the memo holds records every
// trial and replays none; and on a 256x256 field (the warm-campaign
// alloc budget's spec) a base does not fit the memo's byte bound, so
// even a campaign run twice through one arena records nothing.
func TestArenaMemoEngagement(t *testing.T) {
	mix := serviceMixSpec()
	arena := NewTrialArena()
	arenaManifestBytes(t, arena, mix)
	keys := mix.Replicates * len(mix.Holes)
	if got, want := arena.memo.records, keys; got != want {
		t.Errorf("service-mix: %d bases recorded, want %d", got, want)
	}
	if got, want := arena.memo.replays, mix.NumJobs()-keys; got != want {
		t.Errorf("service-mix: %d bases replayed, want %d", got, want)
	}

	widened := mix
	widened.Spares = []int{10, 25, 40, 55, 70, 100, 150, 200, 300, 400, 500, 600}
	arena = NewTrialArena()
	for round := 0; round < 3; round++ {
		for _, spec := range []CampaignSpec{mix, widened} {
			records, replays := arena.memo.records, arena.memo.replays
			arenaManifestBytes(t, arena, spec)
			records, replays = arena.memo.records-records, arena.memo.replays-replays
			if records != keys || replays != spec.NumJobs()-keys {
				t.Errorf("round %d, %d spare counts: %d bases recorded, %d replayed; want %d, %d",
					round, len(spec.Spares), records, replays, keys, spec.NumJobs()-keys)
			}
		}
	}

	// Eight seeds in rotation do not fit the 4 bases a 64x64 memo holds,
	// so each trial records its seed's base over the oldest one and
	// nothing is replayed: such a run pays one recording per trial,
	// which costs what the plain build does.
	arena = NewTrialArena()
	for i := 0; i < 24; i++ {
		cfg := TrialConfig{Cols: 64, Rows: 64, Scheme: SR, Spares: 300, Holes: 16, AdjacentHolesOK: true, Seed: int64(i % 8)}
		if _, err := arena.RunTrial(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(arena.memo.bases); n != 4 || arena.memo.records != 24 || arena.memo.replays != 0 {
		t.Errorf("64x64 rotation of 8 seeds: %d bases held, %d recorded, %d replayed; want 4, 24, none",
			n, arena.memo.records, arena.memo.replays)
	}

	large := warmCampaignSpec()
	arena = NewTrialArena()
	for pass := 0; pass < 2; pass++ {
		arenaManifestBytes(t, arena, large)
	}
	if arena.memo.records != 0 || arena.memo.replays != 0 || len(arena.memo.index) != 0 {
		t.Errorf("256x256: memo recorded %d, replayed %d, holds %d keys; want none",
			arena.memo.records, arena.memo.replays, len(arena.memo.index))
	}
}

// checkMemoBytes fails the test unless the memo's byte count is what
// its bases hold, within memoBytes, and it indexes exactly its bases,
// each under its key.
func checkMemoBytes(t *testing.T, label string, m *baseMemo) {
	t.Helper()
	sum := 0
	for _, e := range m.bases {
		sum += e.base.Bytes(0)
		if m.index[e.key] != e {
			t.Fatalf("%s: base of %+v not indexed", label, e.key)
		}
	}
	if m.bytes != sum || m.bytes > memoBytes || len(m.index) != len(m.bases) {
		t.Fatalf("%s: memo counts %d bytes, its %d bases hold %d, %d keys indexed; bound %d bytes",
			label, m.bytes, len(m.bases), sum, len(m.index), memoBytes)
	}
}

// TestArenaSpareSequencesMatchRunTrial runs one arena through sequences
// of spare counts for recurring (seed, opening) keys, so the memo
// records a base with its spares, replays a prefix of them, replays all
// of them and extends them: ascending, descending and repeated counts,
// N=0, keys interleaved with another seed and with the other opening,
// the jam opening, and a rotation of more 600-spare bases than the
// memo's bytes admit, which evicts, followed by extending replays of
// the bases it left. Every TrialResult must equal RunTrial's, and the
// memo's bytes must stay within its bound.
func TestArenaSpareSequencesMatchRunTrial(t *testing.T) {
	type step struct {
		seed   int64
		jam    bool
		spares int
	}
	seq := func(seed int64, jam bool, spares ...int) []step {
		var out []step
		for _, n := range spares {
			out = append(out, step{seed, jam, n})
		}
		return out
	}
	var rotation []step
	for _, n := range []int{600, 600, 300} {
		for seed := int64(100); seed < 124; seed++ {
			rotation = append(rotation, step{seed, seed%5 == 0, n})
		}
	}
	// A rotation that outgrows the memo replays nothing: each key is
	// evicted before it comes back. The last seeds it recorded are still
	// held, so they replay, and extend past 300 spares, evicting others.
	for seed := int64(116); seed < 124; seed++ {
		rotation = append(rotation, step{seed, seed%5 == 0, 450})
	}
	sequences := []struct {
		name  string
		steps []step
	}{
		{"ascending", seq(1, false, 0, 10, 25, 60, 200, 201)},
		{"descending", seq(2, false, 200, 60, 25, 10, 1, 0)},
		{"repeated", seq(3, false, 25, 25, 25, 25)},
		{"zero", seq(4, false, 0, 0, 0, 5, 0)},
		{"interleaved", []step{
			{5, false, 30}, {6, false, 30}, {5, true, 30}, {5, false, 45}, {6, false, 5},
			{5, true, 0}, {5, false, 2}, {6, false, 90}, {5, true, 70}, {5, false, 45},
		}},
		{"jam", seq(7, true, 0, 50, 10, 100, 100, 3)},
		{"evicting", rotation},
	}
	arena := NewTrialArena()
	for _, sq := range sequences {
		t.Run(sq.name, func(t *testing.T) {
			records, replays := arena.memo.records, arena.memo.replays
			for i, st := range sq.steps {
				cfg := TrialConfig{Cols: 16, Rows: 16, Scheme: []SchemeKind{SR, AR}[i%2], Spares: st.spares, Holes: 2, Seed: st.seed}
				if st.jam {
					cfg.Holes = 0
					cfg.Workload = WorkloadSpec{Kind: WorkloadJam}
				}
				pooled, err := arena.RunTrial(cfg)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := RunTrial(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if pooled != fresh {
					t.Fatalf("step %d %+v: pooled %+v, fresh %+v", i, st, pooled, fresh)
				}
				checkMemoBytes(t, fmt.Sprintf("step %d", i), &arena.memo)
			}
			if arena.memo.records == records || arena.memo.replays == replays {
				t.Errorf("the memo recorded %d and replayed %d bases; want some of each",
					arena.memo.records-records, arena.memo.replays-replays)
			}
		})
	}
	if arena.memo.extensions == 0 || arena.memo.extensions == arena.memo.replays {
		t.Errorf("%d of %d replays extended a recording; want some and not all", arena.memo.extensions, arena.memo.replays)
	}
	// The rotation's 24 keys outgrow the memo's bytes at 600 spares, so
	// bases were recorded, evicted for bytes, and recorded again.
	if n := len(arena.memo.bases); n >= 24 {
		t.Errorf("the memo holds %d bases after the rotation; want fewer than 24", n)
	}
}

// TestArenaMemoBytesWithinBound drives the memo at geometries where its
// byte bound binds: 16x16 bases with thousands of spares, 64x64 bases
// that fill it four at a time, and a 128x128 base that fits it alone,
// whose extensions past the bound must be drawn unrecorded. After every
// trial its count must equal what its bases hold, within memoBytes, and
// every result must equal RunTrial's.
func TestArenaMemoBytesWithinBound(t *testing.T) {
	cases := []struct {
		size   int
		seeds  int64
		spares []int
	}{
		{16, 6, []int{3000, 9000, 100, 12000}},
		{64, 5, []int{300, 2000, 50, 4000}},
		{128, 1, []int{1000, 1000, 2500, 4000, 20, 3000}},
	}
	arena := NewTrialArena()
	extended := false
	for _, c := range cases {
		for _, n := range c.spares {
			for seed := int64(0); seed < c.seeds; seed++ {
				cfg := TrialConfig{Cols: c.size, Rows: c.size, Scheme: SR, Spares: n, Holes: 4, Seed: seed}
				pooled, err := arena.RunTrial(cfg)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := RunTrial(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if pooled != fresh {
					t.Fatalf("%dx%d seed %d spares %d: pooled %+v, fresh %+v", c.size, c.size, seed, n, pooled, fresh)
				}
				label := fmt.Sprintf("%dx%d seed %d spares %d", c.size, c.size, seed, n)
				checkMemoBytes(t, label, &arena.memo)
				if c.size == 128 && arena.memo.bytes > memoBytes-2000*nodeBytes {
					extended = true
				}
			}
		}
		if arena.memo.records == 0 {
			t.Errorf("%dx%d: nothing recorded", c.size, c.size)
		}
	}
	if !extended {
		t.Error("the 128x128 base never grew near the bound")
	}
}

// TestReplayLeavesStream2Unread pins the hazard a spare replay relies
// on. A replay that draws nothing leaves stream 2 where it was seeded,
// not where Controlled's spare draws leave it, so it is byte-identical
// only because nothing reads stream 2 after deployment: the jam centre
// draws from stream 1, and the scheme and the events split off the
// root. Every workload kind, alone and composed, runs here through one
// arena with spare counts that recur below a recording, and each
// manifest must equal the FreshBuild one.
func TestReplayLeavesStream2Unread(t *testing.T) {
	arena := NewTrialArena()
	for i, spec := range goldenWorkloadFormsSpecs() {
		spec.Spares = []int{5, 20}
		spec.Replicates = 1
		if got, want := arenaManifestBytes(t, arena, spec), pooledManifestBytes(t, spec, true, 1); !bytes.Equal(got, want) {
			t.Errorf("forms spec %d: one-arena manifest differs from FreshBuild", i)
		}
	}
	if prefix := arena.memo.replays - arena.memo.extensions; prefix == 0 {
		t.Error("no replay left stream 2 unread")
	}
}

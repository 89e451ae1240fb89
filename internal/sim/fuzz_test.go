package sim

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wsncover/internal/experiment"
	"wsncover/internal/telemetry"
)

// FuzzScenario drives the seeded scenario generator with fuzzed inputs
// and holds every generated composition to the CheckInvariants oracle
// plus rerun determinism. The generator (generateRandom) is the grammar's
// closure: whatever composition the fuzzer reaches, the trial must
// terminate inside its round budget, keep the claim/spares/coverage
// bookkeeping consistent, and reproduce byte-for-byte on a second run.
//
// The checked-in corpus (testdata/fuzz/FuzzScenario) pins one seed per
// interesting regime — lossy compositions, byzantine phantoms, resupply
// rallies, deep damage stacks — and runs in plain `go test` as a
// regression suite; CI additionally fuzzes fresh inputs for a smoke
// interval.
func FuzzScenario(f *testing.F) {
	f.Add(int64(1), int64(7), uint8(2), false)
	f.Add(int64(99), int64(53), uint8(3), true)
	f.Add(int64(7), int64(100), uint8(2), false)
	f.Add(int64(1234567), int64(-3), uint8(6), true)
	f.Add(int64(-1), int64(0), uint8(0), false)
	f.Add(int64(42), int64(42), uint8(255), true)
	f.Fuzz(func(t *testing.T, pick, seed int64, count uint8, adjacent bool) {
		cfg := TrialConfig{
			Cols: 8, Rows: 8, Scheme: SR, Spares: 16, Seed: seed,
			AdjacentHolesOK: adjacent,
			Workload: WorkloadSpec{
				Kind:  WorkloadRandom,
				Pick:  pick,
				Count: int(count)%MaxChildren + 1,
			},
		}
		tr, err := NewTrial(cfg)
		if err != nil {
			t.Fatalf("generated scenario failed to build: %v", err)
		}
		res, err := tr.Run()
		if err != nil {
			t.Fatalf("generated scenario failed to run: %v", err)
		}
		if bad := CheckInvariants(tr); len(bad) > 0 {
			t.Fatalf("invariants violated:\n  %s", strings.Join(bad, "\n  "))
		}
		// Determinism: the same inputs must reproduce the same trial.
		tr2, err := NewTrial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res2, err := tr2.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res != res2 {
			t.Fatalf("scenario not deterministic: %+v vs %+v", res, res2)
		}
	})
}

// FuzzCampaignSpec holds the spec contract: a spec JobSpace accepts
// runs. It decodes the bytes as a spec file is decoded; when JobSpace
// accepts the spec and it is small, every cell must run through
// RunCells without an error or a panic, and the normalized spec must
// come back from a JSON round trip with the same telemetry.SpecHash.
//
// The seeds are the checked-in specs/*.json campaigns and the two
// specs CI's Spec smoke expects to fail validation: a byzantine
// workload under scheme AR, and a spare count of -5.
func FuzzCampaignSpec(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no specs/*.json seeds: %v", err)
	}
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"schemes":["SR","AR"],"grids":[{"cols":8,"rows":8}],"spares":[10,20],` +
		`"workloads":[{"kind":"byzantine"}],"replicates":2}`))
	f.Add([]byte(`{"grids":[{"cols":8,"rows":8}],"spares":[10,-5],"replicates":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec CampaignSpec
		if err := UnmarshalSpecJSON(data, &spec); err != nil || !smallSpec(spec) {
			return
		}
		js, err := spec.JobSpace()
		if err != nil {
			return
		}
		var cells []int
		if err := js.Cells(func(c int, _ TrialJob) error {
			cells = append(cells, c)
			return nil
		}); err != nil {
			t.Fatalf("cells of a validated spec: %v\n%s", err, data)
		}
		discard := func(TrialJob, experiment.Sample) error { return nil }
		if err := js.RunCells(context.Background(), cells, discard); err != nil {
			t.Fatalf("a validated spec failed to run: %v\n%s", err, data)
		}

		norm := js.Spec()
		b, err := json.Marshal(norm)
		if err != nil {
			t.Fatal(err)
		}
		var back CampaignSpec
		if err := UnmarshalSpecJSON(b, &back); err != nil {
			t.Fatalf("the normalized spec does not decode: %v\n%s", err, b)
		}
		want, err := telemetry.SpecHash(norm)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := telemetry.SpecHash(back); err != nil || got != want {
			t.Fatalf("round trip moved the spec hash: %s, want %s (%v)\n%s", got, want, err, b)
		}
	})
}

// smallSpec bounds what FuzzCampaignSpec runs: at most 64 jobs, at most
// 1,024 cells per grid, and at most 4,096 nodes from a spare count or a
// resupply workload, so one input costs milliseconds and little memory.
func smallSpec(s CampaignSpec) bool {
	if s.NumJobs() > 64 {
		return false
	}
	for _, g := range s.Grids {
		if g.Cols < 0 || g.Rows < 0 || g.Cols > 1024 || g.Rows > 1024 || g.Cols*g.Rows > 1024 {
			return false
		}
	}
	for _, n := range s.Spares {
		if n > 4096 {
			return false
		}
	}
	var small func(ws []WorkloadSpec) bool
	small = func(ws []WorkloadSpec) bool {
		for _, w := range ws {
			if w.Batch < 0 || w.Count < 0 || w.Batch > 4096 || w.Count > 4096 ||
				w.Batch*w.Count > 4096 || !small(w.Children) {
				return false
			}
		}
		return true
	}
	return small(s.Workloads)
}

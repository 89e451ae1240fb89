package sim

import (
	"strings"
	"testing"
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

package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"wsncover/internal/experiment"
	"wsncover/internal/sim"
)

func manifestBytes(t *testing.T, m *experiment.Manifest) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLocalRunResumeMatchesUninterrupted cancels a checkpointed run
// from its trial observer after k trials, resumes from the checkpoint
// it left, and requires the final manifest to be byte-identical to an
// uninterrupted run — unsharded, and under a shard range, where the
// manifest's Jobs must be the executed trials plus the prior ones.
func TestLocalRunResumeMatchesUninterrupted(t *testing.T) {
	base := sim.CampaignSpec{
		Schemes:    []sim.SchemeKind{sim.SR, sim.AR},
		Grids:      []sim.GridSize{{Cols: 8, Rows: 8}},
		Spares:     []int{4, 8, 12},
		Replicates: 4,
		BaseSeed:   31,
		Workers:    1,
	}
	sharded := base
	sharded.ShardFirst, sharded.ShardCount = 1, 2
	for _, tc := range []struct {
		name string
		spec sim.CampaignSpec
		k    int // trials before the cancel: one or two whole cells plus a partial one
	}{
		{"unsharded", base, 6},
		{"sharded", sharded, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec.Normalized()
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
			full := PlanLocal(spec, "camp", nil, "")
			ref, ranRef, err := full.Run(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if ranRef != full.Executed {
				t.Fatalf("uninterrupted run executed %d trials, planned %d", ranRef, full.Executed)
			}
			want := manifestBytes(t, ref)

			ck := filepath.Join(t.TempDir(), "out", "camp.json")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, ran, err := PlanLocal(spec, "camp", nil, ck).Run(ctx, func(_ sim.TrialJob, ran int) error {
				if ran == tc.k {
					cancel()
				}
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
			}
			data, err := os.ReadFile(ck)
			if err != nil {
				t.Fatalf("cancelled run left no checkpoint: %v", err)
			}
			var prior experiment.Manifest
			if err := json.Unmarshal(data, &prior); err != nil {
				t.Fatal(err)
			}
			if prior.Jobs == 0 || prior.Jobs > ran || prior.Jobs >= full.Executed {
				t.Fatalf("checkpoint records %d jobs after %d trials of %d; want a strict, non-empty prefix",
					prior.Jobs, ran, full.Executed)
			}

			resumed := PlanLocal(spec, "camp", &prior, ck)
			if resumed.Resumed != len(prior.Points) || resumed.Orphans != 0 {
				t.Fatalf("resume kept %d cells (%d orphans), want all %d checkpointed cells",
					resumed.Resumed, resumed.Orphans, len(prior.Points))
			}
			if resumed.Executed+prior.Jobs != full.Executed {
				t.Fatalf("resume plans %d trials on top of %d checkpointed, want %d in total",
					resumed.Executed, prior.Jobs, full.Executed)
			}
			got, ran2, err := resumed.Run(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if ran2 != resumed.Executed {
				t.Fatalf("resumed run executed %d trials, planned %d", ran2, resumed.Executed)
			}
			if spec.ShardCount > 0 {
				if got.Jobs != ran2+prior.Jobs {
					t.Fatalf("sharded manifest Jobs = %d, want executed %d + prior %d", got.Jobs, ran2, prior.Jobs)
				}
			} else if got.Jobs != spec.NumJobs() {
				t.Fatalf("manifest Jobs = %d, want NumJobs %d", got.Jobs, spec.NumJobs())
			}
			if !bytes.Equal(manifestBytes(t, got), want) {
				t.Error("resumed manifest is not byte-identical to an uninterrupted run")
			}
			// The last checkpoint of a finished run is the manifest itself.
			if final, err := os.ReadFile(ck); err != nil || !bytes.Equal(final, want) {
				t.Errorf("final checkpoint differs from the manifest (err %v)", err)
			}
		})
	}
}

// TestPlanLocalDropsOrphans: prior cells outside the job space are
// dropped, not skipped or carried over.
func TestPlanLocalDropsOrphans(t *testing.T) {
	spec := sim.CampaignSpec{
		Schemes:    []sim.SchemeKind{sim.SR},
		Grids:      []sim.GridSize{{Cols: 8, Rows: 8}},
		Spares:     []int{4, 8},
		Replicates: 3,
		BaseSeed:   5,
	}.Normalized()
	full := PlanLocal(spec, "camp", nil, "")
	group := full.GroupOrder[0]
	prior := &experiment.Manifest{Points: []experiment.Point{
		{Group: group, X: 4},
		{Group: group, X: 99},
		{Group: "AR 8x8", X: 4},
	}}
	r := PlanLocal(spec, "camp", prior, "")
	if r.Resumed != 1 || r.Orphans != 2 {
		t.Fatalf("Resumed, Orphans = %d, %d; want 1, 2", r.Resumed, r.Orphans)
	}
	if r.Executed != 3 || r.GroupTotal[group] != 3 {
		t.Fatalf("Executed = %d, GroupTotal = %v; want the 3 trials of the N=8 cell", r.Executed, r.GroupTotal)
	}
}

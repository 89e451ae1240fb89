package dispatch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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
// uninterrupted run — unsharded, and under a cell range. The manifest's
// Jobs must be the executed trials plus the prior ones.
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
	sharded.CellFirst, sharded.CellCount = 1, 3
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

			ck := filepath.Join(t.TempDir(), "out", "camp.cells.ndjson")
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
			prior, err := experiment.ReadCellLog(ck)
			if err != nil {
				t.Fatalf("cancelled run left no checkpoint: %v", err)
			}
			if prior.Jobs == 0 || prior.Jobs > ran || prior.Jobs >= full.Executed {
				t.Fatalf("checkpoint records %d jobs after %d trials of %d; want a strict, non-empty prefix",
					prior.Jobs, ran, full.Executed)
			}

			resumed := PlanLocal(spec, "camp", prior, ck)
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
			if got.Jobs != ran2+prior.Jobs || got.Jobs != full.Executed {
				t.Fatalf("manifest Jobs = %d, want executed %d + prior %d = %d", got.Jobs, ran2, prior.Jobs, full.Executed)
			}
			if !bytes.Equal(manifestBytes(t, got), want) {
				t.Error("resumed manifest is not byte-identical to an uninterrupted run")
			}
			// The checkpoint log of a finished run reads back as the manifest itself.
			if final, err := experiment.ReadCellLog(ck); err != nil || !bytes.Equal(manifestBytes(t, final), want) {
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

// TestLocalRunResumesPastTornLog: a checkpoint log torn at any byte
// inside its last line, or followed by (or ending in) a garbage line,
// resumes from exactly its complete cells — the torn or garbled cell is
// rerun — and finishes byte-identical to an uninterrupted run, with a
// log that reads back as that manifest. Unsharded and under a cell
// range.
func TestLocalRunResumesPastTornLog(t *testing.T) {
	base := sim.CampaignSpec{
		Schemes:    []sim.SchemeKind{sim.SR, sim.AR},
		Grids:      []sim.GridSize{{Cols: 8, Rows: 8}},
		Spares:     []int{4, 8, 12},
		Replicates: 4,
		BaseSeed:   31,
		Workers:    1,
	}
	sharded := base
	sharded.CellFirst, sharded.CellCount = 1, 3
	for _, tc := range []struct {
		name string
		spec sim.CampaignSpec
		k    int // trials before the cancel: two whole cells plus a partial one
	}{
		{"unsharded", base, 10},
		{"sharded", sharded, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec.Normalized()
			full := PlanLocal(spec, "camp", nil, "")
			ref, _, err := full.Run(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			want := manifestBytes(t, ref)

			dir := t.TempDir()
			ck := filepath.Join(dir, "camp.cells.ndjson")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if _, _, err := PlanLocal(spec, "camp", nil, ck).Run(ctx, func(_ sim.TrialJob, ran int) error {
				if ran == tc.k {
					cancel()
				}
				return nil
			}); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
			}
			log, err := os.ReadFile(ck)
			if err != nil {
				t.Fatal(err)
			}
			whole, err := experiment.ParseCellLog(log)
			if err != nil {
				t.Fatal(err)
			}
			cells := len(whole.Points)
			if cells != 2 {
				t.Fatalf("cancelled run logged %d cells, want 2", cells)
			}
			lastStart := bytes.LastIndexByte(log[:len(log)-1], '\n') + 1

			// resume resumes from data as the checkpoint log. In place,
			// data is written over the run's own log first; otherwise it is
			// parsed straight from memory and the resume logs under a fresh
			// name, which keeps the per-offset loop off the slow path of
			// truncating or renaming over an existing file.
			resume := func(what string, data []byte, wantCells int, inPlace bool) {
				t.Helper()
				path := filepath.Join(dir, fmt.Sprintf("resume-%d.cells.ndjson", len(data)))
				var prior *experiment.Manifest
				var err error
				if inPlace {
					path = ck
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
					prior, err = experiment.ReadCellLog(path)
				} else {
					prior, err = experiment.ParseCellLog(data)
				}
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				r := PlanLocal(spec, "camp", prior, path)
				if r.Resumed != wantCells || r.Orphans != 0 || r.Executed+prior.Jobs != full.Executed {
					t.Fatalf("%s: resume keeps %d cells (%d orphans) and runs %d of %d trials; want %d cells kept",
						what, r.Resumed, r.Orphans, r.Executed, full.Executed, wantCells)
				}
				got, ran, err := r.Run(context.Background(), nil)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if ran != r.Executed {
					t.Fatalf("%s: resumed run executed %d trials, planned %d", what, ran, r.Executed)
				}
				if !bytes.Equal(manifestBytes(t, got), want) {
					t.Fatalf("%s: resumed manifest is not byte-identical to an uninterrupted run", what)
				}
				if final, err := experiment.ReadCellLog(path); err != nil || !bytes.Equal(manifestBytes(t, final), want) {
					t.Fatalf("%s: final log does not read back as the manifest (err %v)", what, err)
				}
			}
			for cut := lastStart; cut < len(log); cut++ {
				resume(fmt.Sprintf("cut at byte %d of %d", cut, len(log)), log[:cut], cells-1, false)
			}
			garbage := []byte("{\"point\": not json\n")
			resume("garbage line appended", append(append([]byte{}, log...), garbage...), cells, true)
			resume("last line garbled", append(append([]byte{}, log[:lastStart]...), garbage...), cells-1, true)
			resume("cut mid-line in place", log[:len(log)-2], cells-1, true)
		})
	}
}

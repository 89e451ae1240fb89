package dispatch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

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

// jobSpace is sim.CampaignSpec.JobSpace that fails the test on error.
func jobSpace(t testing.TB, spec sim.CampaignSpec) sim.JobSpace {
	t.Helper()
	js, err := spec.JobSpace()
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// plan validates spec and plans its run with PlanLocal, failing the
// test on error.
func plan(t testing.TB, spec sim.CampaignSpec, store *CellStore) *LocalRun {
	t.Helper()
	r, err := PlanLocal(jobSpace(t, spec), "camp", store)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPlanLocalRejectsZeroJobSpace: a JobSpace not built by validation
// plans nothing, with or without a store; PlanLocal returns an error
// and does not panic.
func TestPlanLocalRejectsZeroJobSpace(t *testing.T) {
	for _, store := range []*CellStore{nil, OpenCellStore(t.TempDir())} {
		if r, err := PlanLocal(sim.JobSpace{}, "camp", store); err == nil {
			t.Errorf("PlanLocal(zero JobSpace) = %+v, want an error", r)
		}
	}
}

// runBytes runs r to completion and returns its manifest's bytes and
// the trials it executed.
func runBytes(t testing.TB, r *LocalRun) ([]byte, int) {
	t.Helper()
	m, ran, err := r.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), ran
}

// segments returns the paths of the segment files under root.
func segments(t testing.TB, root string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(root, "cells", "*.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// resumeSpecs are the campaigns the kill-and-rerun tests interrupt:
// 6 cells of 4 replicates, unsharded and under a 3-cell range.
func resumeSpecs() map[string]sim.CampaignSpec {
	base := sim.CampaignSpec{
		Schemes:    []sim.SchemeKind{sim.SR, sim.AR},
		Grids:      []sim.GridSize{{Cols: 8, Rows: 8}},
		Spares:     []int{4, 8, 12},
		Replicates: 4,
		BaseSeed:   31,
		Workers:    1,
	}.Normalized()
	sharded := base
	sharded.CellFirst, sharded.CellCount = 1, 3
	return map[string]sim.CampaignSpec{"unsharded": base, "sharded": sharded}
}

// cancelAfter runs spec over store, cancelling it from its trial
// observer after k trials, and returns the trials it executed.
func cancelAfter(t *testing.T, spec sim.CampaignSpec, store *CellStore, k int) int {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, ran, err := plan(t, spec, store).Run(ctx, func(_ sim.TrialJob, ran int) error {
		if ran == k {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	return ran
}

// TestLocalRunResumeMatchesUninterrupted cancels a run over a cell
// store from its trial observer after k trials and reruns it over the
// same store directory: the rerun reuses exactly the cells the first
// run completed, computes the rest, and its manifest is byte-identical
// to an uninterrupted run's — unsharded, and under a cell range. The
// manifest's Jobs counts the reused cells' trials too. A third run
// computes nothing and writes the same bytes.
func TestLocalRunResumeMatchesUninterrupted(t *testing.T) {
	for name, k := range map[string]int{"unsharded": 6, "sharded": 5} {
		t.Run(name, func(t *testing.T) {
			spec := resumeSpecs()[name]
			full := plan(t, spec, nil)
			want, ranRef := runBytes(t, full)
			if ranRef != full.Executed {
				t.Fatalf("uninterrupted run executed %d trials, planned %d", ranRef, full.Executed)
			}

			root := t.TempDir()
			ran := cancelAfter(t, spec, OpenCellStore(root), k)
			rerun := plan(t, spec, OpenCellStore(root))
			stored := rerun.Reused * spec.Replicates
			if rerun.Reused == 0 || stored > ran || rerun.Executed+stored != full.Executed {
				t.Fatalf("rerun reuses %d cells after %d trials and plans %d of %d trials; want a strict, non-empty prefix",
					rerun.Reused, ran, rerun.Executed, full.Executed)
			}
			got, ran2 := runBytes(t, rerun)
			if ran2 != rerun.Executed {
				t.Fatalf("rerun executed %d trials, planned %d", ran2, rerun.Executed)
			}
			if !bytes.Equal(got, want) {
				t.Error("rerun manifest is not byte-identical to an uninterrupted run")
			}

			again := plan(t, spec, OpenCellStore(root))
			if again.Executed != 0 || again.Reused != again.Cells {
				t.Fatalf("third run plans %d trials and reuses %d of %d cells; want everything stored",
					again.Executed, again.Reused, again.Cells)
			}
			if got, _ := runBytes(t, again); !bytes.Equal(got, want) {
				t.Error("a run over a complete store differs from an uninterrupted run")
			}
			if n := len(segments(t, root)); n != 2 {
				t.Errorf("store holds %d segments, want one per run that computed a cell (2)", n)
			}
		})
	}
}

// TestPlanLocalDropsOrphans: cells a store holds outside the spec's job
// space are neither reused nor carried into the manifest, which equals
// a run without a store.
func TestPlanLocalDropsOrphans(t *testing.T) {
	spec := sim.CampaignSpec{
		Schemes:    []sim.SchemeKind{sim.SR},
		Grids:      []sim.GridSize{{Cols: 8, Rows: 8}},
		Spares:     []int{4, 8},
		Replicates: 3,
		BaseSeed:   5,
	}.Normalized()
	other := spec
	other.Schemes = []sim.SchemeKind{sim.SR, sim.AR}
	other.Spares = []int{4, 99}
	root := t.TempDir()
	runBytes(t, plan(t, other, OpenCellStore(root)))

	r := plan(t, spec, OpenCellStore(root))
	if r.Cells != 2 || r.Reused != 1 {
		t.Fatalf("Cells, Reused = %d, %d; want 2, 1 (only SR N=4 is shared)", r.Cells, r.Reused)
	}
	if r.Executed != 3 || len(r.groups) != 1 || r.groups[0].Total != 3 {
		t.Fatalf("Executed = %d, groups = %+v; want the 3 trials of the N=8 cell", r.Executed, r.groups)
	}
	got, _ := runBytes(t, r)
	if want, _ := runBytes(t, plan(t, spec, nil)); !bytes.Equal(got, want) {
		t.Error("manifest over a store of a wider campaign differs from a run without a store")
	}
}

// TestLocalRunResumesPastTornLog: a segment torn at any byte inside its
// last line, or followed by (or ending in) a garbage line, serves
// exactly its complete cells — the torn or garbled cell is recomputed —
// and the rerun is byte-identical to an uninterrupted run, after which
// every cell is stored. The damaged segment is another writer's: each
// rerun appends to its own. Every cut is looked up; the first, middle
// and last cut, and the garbage cases, are also rerun to the end.
// Unsharded and under a cell range.
func TestLocalRunResumesPastTornLog(t *testing.T) {
	for name := range resumeSpecs() {
		t.Run(name, func(t *testing.T) {
			spec := resumeSpecs()[name]
			want, _ := runBytes(t, plan(t, spec, nil))

			root := t.TempDir()
			cancelAfter(t, spec, OpenCellStore(root), 10) // two whole cells and a partial one
			segs := segments(t, root)
			if len(segs) != 1 {
				t.Fatalf("cancelled run left %d segments, want 1", len(segs))
			}
			seg, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			cells := bytes.Count(seg, []byte("\n"))
			if cells != 2 {
				t.Fatalf("cancelled run stored %d cells, want 2", cells)
			}
			lastStart := bytes.LastIndexByte(seg[:len(seg)-1], '\n') + 1

			// rerun plans spec over a fresh store directory holding data as
			// another writer's segment and, when full, runs it.
			rerun := func(what string, data []byte, wantCells int, full bool) {
				t.Helper()
				dir := t.TempDir()
				if err := os.MkdirAll(filepath.Join(dir, "cells"), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, "cells", "dead.ndjson"), data, 0o644); err != nil {
					t.Fatal(err)
				}
				r := plan(t, spec, OpenCellStore(dir))
				if r.Reused != wantCells || r.Executed+wantCells*spec.Replicates != r.Cells*spec.Replicates {
					t.Fatalf("%s: rerun reuses %d cells and runs %d trials; want %d cells reused",
						what, r.Reused, r.Executed, wantCells)
				}
				if !full {
					return
				}
				got, ran := runBytes(t, r)
				if ran != r.Executed {
					t.Fatalf("%s: rerun executed %d trials, planned %d", what, ran, r.Executed)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: rerun manifest is not byte-identical to an uninterrupted run", what)
				}
				if again := plan(t, spec, OpenCellStore(dir)); again.Reused != again.Cells {
					t.Fatalf("%s: after the rerun %d of %d cells are stored", what, again.Reused, again.Cells)
				}
			}
			for cut := lastStart; cut < len(seg); cut++ {
				full := cut == lastStart || cut == (lastStart+len(seg))/2 || cut == len(seg)-1
				rerun(fmt.Sprintf("cut at byte %d of %d", cut, len(seg)), seg[:cut], cells-1, full)
			}
			garbage := []byte("{\"point\": not json\n")
			rerun("garbage line appended", append(bytes.Clone(seg), garbage...), cells, true)
			rerun("last line garbled", append(bytes.Clone(seg[:lastStart]), garbage...), cells-1, true)
		})
	}
}

// TestLocalRunGroupSpans: Run's GroupSeconds spans each group exactly
// from its first executed trial to its last, on the run's clock. The
// fake clock advances k seconds after the k-th trial, so trial k lands
// at k(k-1)/2 s and a span off by one trial shows. A group whose cells
// the store serves executes nothing and gets no span; a run cancelled
// mid-group spans the trials that ran.
func TestLocalRunGroupSpans(t *testing.T) {
	spec := sim.CampaignSpec{
		Schemes:    []sim.SchemeKind{sim.SR, sim.AR},
		Grids:      []sim.GridSize{{Cols: 8, Rows: 8}},
		Spares:     []int{4, 8},
		Replicates: 3,
		BaseSeed:   17,
		Workers:    2,
	}.Normalized()
	// run runs r on the fake clock, cancelling it after cancelAt trials
	// (0: never), and returns the trials it executed.
	run := func(t *testing.T, r *LocalRun, cancelAt int) int {
		t.Helper()
		clock := newTestClock()
		r.now = clock.now
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		_, ran, err := r.Run(ctx, func(_ sim.TrialJob, ran int) error {
			clock.advance(time.Duration(ran) * time.Second)
			if ran == cancelAt {
				cancel()
			}
			return nil
		})
		if cancelAt == 0 && err != nil || cancelAt > 0 && !errors.Is(err, context.Canceled) {
			t.Fatalf("run cancelled at %d: err = %v", cancelAt, err)
		}
		return ran
	}
	// want is each group's span over the first n trials r executes.
	want := func(t *testing.T, r *LocalRun, n int) map[string]float64 {
		at := func(k int) float64 { return float64(k * (k - 1) / 2) }
		first, spans := map[string]int{}, map[string]float64{}
		k := 0
		executed := make(map[int]bool)
		for _, c := range r.cells {
			executed[c] = true
		}
		err := r.jobs.Cells(func(c int, j sim.TrialJob) error {
			if !executed[c] {
				return nil
			}
			for range spec.Replicates {
				if k++; k > n {
					return nil
				}
				g := j.Group()
				if _, ok := first[g]; !ok {
					first[g] = k
				}
				spans[g] = at(k) - at(first[g])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return spans
	}

	t.Run("two groups", func(t *testing.T) {
		r := plan(t, spec, nil)
		ran := run(t, r, 0)
		if w := want(t, r, ran); len(w) != 2 || !reflect.DeepEqual(r.GroupSeconds, w) {
			t.Errorf("spans = %v, want %v", r.GroupSeconds, w)
		}
	})
	t.Run("store serves a group", func(t *testing.T) {
		root := t.TempDir()
		sr := spec
		sr.Schemes = []sim.SchemeKind{sim.SR}
		runBytes(t, plan(t, sr, OpenCellStore(root)))
		r := plan(t, spec, OpenCellStore(root))
		if r.Reused != 2 {
			t.Fatalf("store serves %d cells, want SR's 2", r.Reused)
		}
		ran := run(t, r, 0)
		w := want(t, r, ran)
		if _, ok := r.GroupSeconds[jobSpace(t, sr).At(0).Group()]; ok || len(w) != 1 {
			t.Errorf("spans = %v: the served group must have none", r.GroupSeconds)
		}
		if !reflect.DeepEqual(r.GroupSeconds, w) {
			t.Errorf("spans = %v, want %v", r.GroupSeconds, w)
		}
	})
	t.Run("cancelled mid-group", func(t *testing.T) {
		// One worker stops at the trial that cancels: trial 8 is the
		// second of the second group's six.
		one := spec
		one.Workers = 1
		r := plan(t, one, nil)
		ran := run(t, r, 8)
		var groups []string
		spec.ExecutedJobs(nil, func(j sim.TrialJob) { groups = append(groups, j.Group()) })
		if ran >= len(groups) || groups[ran-1] != groups[ran] || groups[ran-1] == groups[0] {
			t.Fatalf("cancelled run stopped after trial %d of %v, want inside the second group", ran, groups)
		}
		if w := want(t, r, ran); !reflect.DeepEqual(r.GroupSeconds, w) {
			t.Errorf("spans = %v, want %v", r.GroupSeconds, w)
		}
	})
}

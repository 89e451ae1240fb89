package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wsncover/internal/experiment"
)

func TestShardRange(t *testing.T) {
	// 10 cells over 3 shards: blocks of 4, 3, 3.
	cases := []struct {
		i, n, cells  int
		first, count int
	}{
		{1, 3, 10, 0, 4},
		{2, 3, 10, 4, 3},
		{3, 3, 10, 7, 3},
		{1, 1, 10, 0, 10},
		{2, 5, 5, 1, 1},
	}
	for _, c := range cases {
		first, count, err := shardRange(c.i, c.n, c.cells)
		if err != nil || first != c.first || count != c.count {
			t.Errorf("shardRange(%d, %d, %d) = (%d, %d, %v), want (%d, %d)",
				c.i, c.n, c.cells, first, count, err, c.first, c.count)
		}
	}
	for _, bad := range [][3]int{{0, 3, 10}, {4, 3, 10}, {1, 0, 10}, {1, 20, 10}} {
		if _, _, err := shardRange(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("shardRange(%v) should fail", bad)
		}
	}
}

// shardsOf builds the n shards of spec the way cmd/sweep -shard i/n
// does: the campaign's job space, then JobSpace.Shard.
func shardsOf(t *testing.T, spec CampaignSpec, n int) []JobSpace {
	t.Helper()
	js := jobSpace(t, spec)
	shards := make([]JobSpace, n)
	for i := 1; i <= n; i++ {
		sh, err := js.Shard(i, n)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
		shards[i-1] = sh
	}
	return shards
}

// numCells returns the campaign's cell count.
func numCells(t *testing.T, spec CampaignSpec) int {
	t.Helper()
	js := jobSpace(t, spec)
	return js.Len() / js.Spec().Replicates
}

// shardJobs lists the jobs js executes, in job order.
func shardJobs(t *testing.T, js JobSpace) []TrialJob {
	t.Helper()
	var jobs []TrialJob
	err := js.Cells(func(c int, _ TrialJob) error {
		for r := 0; r < js.Spec().Replicates; r++ {
			jobs = append(jobs, js.At(c*js.Spec().Replicates+r))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// runShard runs every cell js executes, returning the sample stream
// and the aggregated points.
func runShard(t *testing.T, js JobSpace) ([]experiment.Sample, []experiment.Point) {
	t.Helper()
	var cells []int
	if err := js.Cells(func(c int, _ TrialJob) error { cells = append(cells, c); return nil }); err != nil {
		t.Fatal(err)
	}
	var samples []experiment.Sample
	acc := experiment.NewAccumulator()
	err := js.RunCells(t.Context(), cells, func(_ TrialJob, s experiment.Sample) error {
		samples = append(samples, s)
		acc.Add(s)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return samples, acc.Points()
}

// TestShardRangeTilesCells: for every shard count n from 1 to the
// cell count, the Shard blocks tile the campaign's cells exactly, each
// reports its block through CellRange, and each shard's aggregated
// points equal the unsharded run's points for the same cells. The jam
// workload collapses the holes dimension, so cells are not a plain
// product of the dimension lists.
func TestShardRangeTilesCells(t *testing.T) {
	spec := CampaignSpec{
		Schemes:    []SchemeKind{SR, AR},
		Grids:      []GridSize{{8, 8}},
		Spares:     []int{8, 24},
		Holes:      []int{1, 2},
		Workloads:  []WorkloadSpec{{Kind: WorkloadHoles}, {Kind: WorkloadJam}},
		Replicates: 3,
		BaseSeed:   7,
		Workers:    2,
	}
	// holes: 2 holes x 2 schemes x 2 spares; jam: 1 x 2 x 2.
	cells := numCells(t, spec)
	if cells != 12 {
		t.Fatalf("%d cells, want 12", cells)
	}
	if first, count := jobSpace(t, spec).CellRange(); first != 0 || count != 0 {
		t.Errorf("unsharded CellRange = (%d, %d), want (0, 0)", first, count)
	}
	_, full := runCampaign(t, spec, 2)
	want := make(map[string]experiment.Point, len(full))
	for _, p := range full {
		want[fmt.Sprintf("%s N=%g", p.Group, p.X)] = p
	}
	for n := 1; n <= cells; n++ {
		next := 0
		seen := 0
		for i, sh := range shardsOf(t, spec, n) {
			first, count := sh.CellRange()
			if first != next || count < 1 {
				t.Errorf("n=%d: shard %d covers [%d, +%d), want to start at %d", n, i+1, first, count, next)
			}
			next = first + count
			_, points := runShard(t, sh)
			if len(points) != count {
				t.Errorf("n=%d: shard %d has %d points for %d cells", n, i+1, len(points), count)
			}
			for _, p := range points {
				key := fmt.Sprintf("%s N=%g", p.Group, p.X)
				if !reflect.DeepEqual(p, want[key]) {
					t.Errorf("n=%d: shard %d point %s differs from the unsharded run's:\n%+v\nvs\n%+v", n, i+1, key, p, want[key])
				}
			}
			seen += len(points)
		}
		if next != cells || seen != len(full) {
			t.Errorf("n=%d: shards cover [0, %d) with %d points, want [0, %d) with %d", n, next, seen, cells, len(full))
		}
	}
}

// TestShardRangeJobsEqualUnshardedJobs: for every shard count, the
// union of the shards' executed jobs is exactly the unsharded job list,
// seeds included — the property that makes -shard manifests hold
// exactly the unsharded campaign's cells.
func TestShardRangeJobsEqualUnshardedJobs(t *testing.T) {
	spec := CampaignSpec{
		Schemes:    []SchemeKind{SR, AR},
		Grids:      []GridSize{{8, 8}},
		Spares:     []int{8, 24},
		Holes:      []int{1, 2},
		Workloads:  []WorkloadSpec{{Kind: WorkloadHoles}, {Kind: WorkloadJam}},
		Replicates: 5,
		BaseSeed:   3,
	}
	for n := 1; n <= numCells(t, spec); n++ {
		// TrialJob is not comparable (its workload spec holds child
		// slices), so key the coverage count by its printed form.
		sharded := make(map[string]int)
		for _, sh := range shardsOf(t, spec, n) {
			for _, j := range shardJobs(t, sh) {
				sharded[fmt.Sprintf("%+v", j)]++
			}
		}
		full := 0
		spec.ExecutedJobs(nil, func(j TrialJob) {
			full++
			if c := sharded[fmt.Sprintf("%+v", j)]; c != 1 {
				t.Errorf("n=%d: job %+v covered %d times, want exactly once", n, j, c)
			}
		})
		if full != len(sharded) {
			t.Errorf("n=%d: shards executed %d distinct jobs, unsharded campaign has %d", n, len(sharded), full)
		}
	}
}

// TestShardRangeErrors: a campaign cannot split into more shards than
// it has cells, a shard number must lie in 1..n, and the zero JobSpace
// has no shards.
func TestShardRangeErrors(t *testing.T) {
	js := jobSpace(t, CampaignSpec{Schemes: []SchemeKind{SR}, Spares: []int{8, 24}, Replicates: 4})
	if _, err := js.Shard(3, 3); err == nil {
		t.Error("splitting 2 cells into 3 shards should fail")
	}
	for _, in := range [][2]int{{0, 2}, {3, 2}, {1, 0}} {
		if _, err := js.Shard(in[0], in[1]); err == nil {
			t.Errorf("shard %d/%d of 2 cells should fail", in[0], in[1])
		}
	}
	if _, err := (JobSpace{}).Shard(1, 1); err == nil {
		t.Error("the zero JobSpace has no shards")
	}
}

// TestValidateRejectsRepeatedValues: a value listed twice in any
// dimension, or distinct values labelling one curve, would fold two
// cells into one point of twice the replicates; Validate names the list
// and the value instead.
func TestValidateRejectsRepeatedValues(t *testing.T) {
	base := func() CampaignSpec {
		return CampaignSpec{Schemes: []SchemeKind{SR}, Grids: []GridSize{{8, 8}}, Spares: []int{8}, Replicates: 2}
	}
	for _, tc := range []struct {
		name string
		edit func(*CampaignSpec)
		want string // "" means valid
	}{
		{"distinct", func(s *CampaignSpec) { s.Spares = []int{8, 24} }, ""},
		{"schemes", func(s *CampaignSpec) { s.Schemes = []SchemeKind{SR, AR, SR} }, "schemes lists SR twice"},
		{"grids", func(s *CampaignSpec) { s.Grids = []GridSize{{8, 8}, {8, 8}} }, "grids lists 8x8 twice"},
		{"spares", func(s *CampaignSpec) { s.Spares = []int{8, 8} }, "spares lists 8 twice"},
		{"holes", func(s *CampaignSpec) { s.Holes = []int{1, 3, 3} }, "holes lists 3 twice"},
		{"workloads", func(s *CampaignSpec) {
			s.Workloads = []WorkloadSpec{{Kind: WorkloadJam}, {Kind: WorkloadHoles}, {Kind: WorkloadJam}}
		}, "workloads lists jam twice"},
		{"runners", func(s *CampaignSpec) { s.Runners = []RunnerKind{RunAsync, RunAsync} }, "runners lists async twice"},
		{"claim_ttls", func(s *CampaignSpec) { s.ClaimTTLs = []int{0, 3, 0} }, "claim_ttls lists 0 twice"},
		{"one curve", func(s *CampaignSpec) {
			s.Holes = []int{1, 3}
			s.Workloads = []WorkloadSpec{{Kind: WorkloadHoles}, {Kind: WorkloadHoles, Holes: 3}}
		}, `share the group "SR 8x8 holes=3"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.edit(&s)
			err := s.Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("Validate = %v, want nil", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("Validate = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestCellSpecRunsAloneExactly: every cell's one-cell campaign, run on
// its own, yields exactly the bytes of that cell's point in the full
// campaign — the property that lets a cell computed by one campaign
// stand in for the same cell of any other. The campaigns cover SR and
// AR on holes and jam at hole counts 1 and 3 (jam collapses the holes
// dimension) beside a workload pinning its own hole count, an async SR
// group, and a claim-TTL sweep.
func TestCellSpecRunsAloneExactly(t *testing.T) {
	grid := []GridSize{{8, 8}}
	for _, spec := range []CampaignSpec{
		{
			Schemes: []SchemeKind{SR, AR}, Grids: grid, Spares: []int{6, 20}, Holes: []int{1, 3},
			Workloads: []WorkloadSpec{{Kind: WorkloadHoles}, {Kind: WorkloadJam}, {Kind: WorkloadHoles, Holes: 2}},
		},
		{Schemes: []SchemeKind{SR}, Grids: grid, Spares: []int{6, 20}, Runners: []RunnerKind{RunSync, RunAsync}},
		{Schemes: []SchemeKind{SR}, Grids: grid, Spares: []int{6, 20}, ClaimTTLs: []int{0, 3}},
	} {
		spec.Replicates, spec.BaseSeed = 3, 41
		_, full := runCampaign(t, spec, 2)
		byCell := make(map[string][]byte, len(full))
		for _, p := range full {
			byCell[fmt.Sprintf("%s N=%g", p.Group, p.X)] = mustMarshal(t, p)
		}
		cells := 0
		spec.Normalized().ExecutedJobs(nil, func(j TrialJob) {
			if j.Replicate != 0 {
				return
			}
			cells++
			one := spec.CellSpec(j)
			if n := numCells(t, one); n != 1 {
				t.Fatalf("%s N=%d: one-cell spec has %d cells", j.Group(), j.Spares, n)
			}
			_, alone := runCampaign(t, one, 1)
			key := fmt.Sprintf("%s N=%d", j.Group(), j.Spares)
			if len(alone) != 1 || !bytes.Equal(mustMarshal(t, alone[0]), byCell[key]) {
				t.Errorf("%s: the one-cell campaign's point differs from the full campaign's", key)
			}
		})
		if n := numCells(t, spec); cells != len(full) || cells != n {
			t.Errorf("walked %d cells, campaign has %d points and %d cells", cells, len(full), n)
		}
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCellRangeStreamJobs: for any ascending run of cells, the job
// RunCells hands the sink with each sample is the job that sample ran —
// replicate r of cell c is job c*Replicates+r — so its group and N label
// the sample's curve and X. RunSweep labels its points with the
// campaign's cells.
func TestCellRangeStreamJobs(t *testing.T) {
	spec := CampaignSpec{
		Schemes:    []SchemeKind{SR, AR},
		Grids:      []GridSize{{8, 8}},
		Spares:     []int{5, 10, 15},
		Replicates: 2,
		BaseSeed:   41,
		Workers:    2,
	}
	js := jobSpace(t, spec)
	for _, rng := range [][2]int{{1, 1}, {1, 4}, {3, 3}, {5, 1}} {
		t.Run(fmt.Sprintf("cells %d+%d", rng[0], rng[1]), func(t *testing.T) {
			var cells []int
			var want []TrialJob
			for c := rng[0]; c < rng[0]+rng[1]; c++ {
				cells = append(cells, c)
				for r := 0; r < spec.Replicates; r++ {
					want = append(want, js.At(c*spec.Replicates+r))
				}
			}
			i := 0
			err := js.RunCells(t.Context(), cells, func(j TrialJob, s experiment.Sample) error {
				if i >= len(want) {
					return fmt.Errorf("sink got job %d of %d", i+1, len(want))
				}
				if !reflect.DeepEqual(j, want[i]) {
					t.Errorf("sink job %d = %+v, want %+v", i, j, want[i])
				}
				if j.Group() != s.Group || float64(j.Spares) != s.X {
					t.Errorf("sink job %d is %s N=%d, its sample %s X=%g", i, j.Group(), j.Spares, s.Group, s.X)
				}
				i++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if i != len(want) {
				t.Fatalf("sink got %d jobs, want %d", i, len(want))
			}
		})
	}

	pts, err := RunSweep(t.Context(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var cells []SweepPoint
	err = js.Cells(func(_ int, j TrialJob) error {
		cells = append(cells, SweepPoint{Scheme: j.Scheme, Holes: j.Holes, N: j.Spares})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(cells) {
		t.Fatalf("RunSweep returned %d points for %d cells", len(pts), len(cells))
	}
	for k, p := range pts {
		if p.Scheme != cells[k].Scheme || p.Holes != cells[k].Holes || p.N != cells[k].N {
			t.Errorf("point %d is %v holes=%d N=%d, want cell %v holes=%d N=%d",
				k, p.Scheme, p.Holes, p.N, cells[k].Scheme, cells[k].Holes, cells[k].N)
		}
	}
}

// TestRunCellsRejectsBadCells: JobSpace.RunCells runs only cells the
// job space executes, in strictly ascending order, and fails before any
// trial otherwise.
func TestRunCellsRejectsBadCells(t *testing.T) {
	js := jobSpace(t, CampaignSpec{Schemes: []SchemeKind{SR}, Grids: []GridSize{{8, 8}}, Spares: []int{5, 10, 15}, Replicates: 2})
	// 3 cells over 2 shards: [0, 2) and [2, 3).
	shard, err := js.Shard(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		js    JobSpace
		cells []int
		want  string
	}{
		{js, []int{-1}, "outside"},
		{js, []int{3}, "outside"},
		{shard, []int{1}, "outside"},
		{shard, []int{2, 3}, "outside"},
		{js, []int{1, 1}, "ascend"},
		{js, []int{2, 0}, "ascend"},
	} {
		ran := 0
		err := tc.js.RunCells(t.Context(), tc.cells, func(TrialJob, experiment.Sample) error {
			ran++
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) || ran != 0 {
			first, count := tc.js.CellRange()
			t.Errorf("RunCells(cells %v of range (%d, %d)) = %v after %d trials, want an error naming %q before any",
				tc.cells, first, count, err, ran, tc.want)
		}
	}
}

// TestZeroJobSpaceFails: a JobSpace not built by CampaignSpec.JobSpace
// visits and runs nothing; it returns an error and does not panic.
func TestZeroJobSpaceFails(t *testing.T) {
	var js JobSpace
	visited := 0
	if err := js.Cells(func(int, TrialJob) error { visited++; return nil }); err == nil || visited != 0 {
		t.Errorf("zero JobSpace Cells = %v after %d visits, want an error before any", err, visited)
	}
	for _, cells := range [][]int{nil, {0}} {
		ran := 0
		err := js.RunCells(t.Context(), cells, func(TrialJob, experiment.Sample) error {
			ran++
			return nil
		})
		if err == nil || ran != 0 {
			t.Errorf("zero JobSpace RunCells(%v) = %v after %d trials, want an error before any", cells, err, ran)
		}
	}
}

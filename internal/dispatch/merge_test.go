package dispatch

import (
	"path/filepath"
	"strings"
	"testing"

	"wsncover/internal/experiment"
	"wsncover/internal/sim"
	"wsncover/internal/stats"
)

// fullSpec is the canonical small unsharded campaign: two cells of two
// replicates.
func fullSpec() sim.CampaignSpec {
	return sim.CampaignSpec{
		Schemes:    []sim.SchemeKind{sim.SR},
		Grids:      []sim.GridSize{{Cols: 8, Rows: 8}},
		Spares:     []int{8, 24},
		Replicates: 2,
		BaseSeed:   1,
	}.Normalized()
}

// shardSpec builds fullSpec restricted to the cell block
// [first, first+count).
func shardSpec(first, count int) sim.CampaignSpec {
	s := fullSpec()
	s.CellFirst, s.CellCount = first, count
	return s
}

// writeManifest persists a manifest for the given spec that records
// jobs trials and one point per cell of the spec's cell range, every
// cell with the given mean, and returns its path.
func writeManifest(t *testing.T, dir, name string, spec sim.CampaignSpec, jobs int, mean float64) string {
	t.Helper()
	var points []experiment.Point
	spec.ExecutedJobs(func(j sim.TrialJob) bool { return j.Replicate == 0 }, func(j sim.TrialJob) {
		points = append(points, experiment.Point{
			Group: j.Group(), X: float64(j.Spares),
			Metrics: map[string]stats.Description{
				"moves": {N: spec.Replicates, Mean: mean, Min: mean - 1, Max: mean + 1, Median: mean},
			},
		})
	})
	m, err := experiment.NewManifest(name, spec, jobs, 0, points)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Save(dir); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, name+".json")
}

func TestMergeShardManifests(t *testing.T) {
	dir := t.TempDir()
	a := writeManifest(t, dir, "a", shardSpec(0, 1), 2, 3)
	b := writeManifest(t, dir, "b", shardSpec(1, 1), 2, 5)
	bCopy := writeManifest(t, dir, "bcopy", shardSpec(1, 1), 2, 5)
	whole := writeManifest(t, dir, "whole", shardSpec(0, 2), 4, 4)
	full := writeManifest(t, dir, "full", fullSpec(), 4, 4)
	drift := writeManifest(t, dir, "drift", func() sim.CampaignSpec {
		s := shardSpec(1, 1)
		s.BaseSeed = 99
		return s
	}(), 2, 5)

	cases := []struct {
		name    string
		paths   []string
		wantErr string // empty = success
	}{
		{"two-shards", []string{a, b}, ""},
		{"order-independent", []string{b, a}, ""},
		{"single-shard-full-range", []string{whole}, ""},
		{"unsharded", []string{full}, ""},
		{"single-shard-partial", []string{a}, "missing"},
		{"same-path-twice", []string{a, a}, "passed twice"},
		{"same-range-two-files", []string{a, b, bCopy}, "same shard"},
		{"gap", []string{b}, "missing"},
		{"shard-and-whole", []string{a, full}, "overlaps"},
		{"spec-drift", []string{a, drift}, "different campaign specs"},
		{"empty", nil, "no shard manifests"},
	}
	for _, c := range cases {
		m, spec, err := MergeShardManifests(c.paths, "merged")
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if spec.CellCount != 0 || spec.CellFirst != 0 {
			t.Errorf("%s: merged spec keeps cell range [%d, +%d)", c.name, spec.CellFirst, spec.CellCount)
		}
		if m.Jobs != 4 || len(m.Points) != 2 {
			t.Errorf("%s: jobs=%d points=%d, want 4 jobs 2 points", c.name, m.Jobs, len(m.Points))
		}
		// A union passes every cell's statistics through untouched.
		for _, p := range m.Points {
			if d := p.Metrics["moves"]; d.N != 2 || d.MedianApprox {
				t.Errorf("%s: merged cell %s N=%g = %+v, want the shard's N=2, exact median", c.name, p.Group, p.X, d)
			}
		}
	}
}

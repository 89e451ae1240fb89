package dispatch

import (
	"path/filepath"
	"strings"
	"testing"

	"wsncover/internal/experiment"
	"wsncover/internal/sim"
	"wsncover/internal/stats"
)

func saveManifest(t *testing.T, dir, name string, spec sim.CampaignSpec, points []experiment.Point) string {
	t.Helper()
	m, err := experiment.NewManifest(name, spec, 4, 0, points)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Save(dir); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, name+".json")
}

func onePoint(mean, median float64, approx bool) []experiment.Point {
	return []experiment.Point{{
		Group: "SR 8x8", X: 8,
		Metrics: map[string]stats.Description{
			"moves": {N: 4, Mean: mean, Min: 1, Max: 9, Median: median, MedianApprox: approx},
		},
	}}
}

func TestDiffManifests(t *testing.T) {
	dir := t.TempDir()
	spec := sim.CampaignSpec{
		Schemes: []sim.SchemeKind{sim.SR}, Grids: []sim.GridSize{{Cols: 8, Rows: 8}},
		Spares: []int{8}, Replicates: 4, BaseSeed: 1,
	}.Normalized()
	execSpec := spec
	execSpec.Workers, execSpec.FreshBuild = 8, true

	a := saveManifest(t, dir, "a", spec, onePoint(5, 4, false))
	// Same statistics modulo: float wobble on the mean, an estimated
	// median, and execution metadata in the spec.
	b := saveManifest(t, dir, "a2", execSpec, onePoint(5+1e-13, 99, true))
	diffs, err := DiffManifests(a, b, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	// Only the name differs (a vs a2): everything else is equivalent
	// under the contract.
	if len(diffs) != 1 || !strings.Contains(diffs[0], "name") {
		t.Errorf("diffs = %v, want only the name difference", diffs)
	}

	// A genuinely different mean is flagged.
	c := saveManifest(t, dir, "a", spec, onePoint(6, 4, false))
	diffs, err = DiffManifests(c, b, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diffs {
		found = found || strings.Contains(d, "mean")
	}
	if !found {
		t.Errorf("diffs = %v, want a mean difference", diffs)
	}

	// Exact-vs-exact medians do compare.
	d1 := saveManifest(t, dir, "m1", spec, onePoint(5, 4, false))
	d2 := saveManifest(t, dir, "m2", spec, onePoint(5, 3, false))
	diffs, err = DiffManifests(d1, d2, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	foundMedian := false
	for _, d := range diffs {
		foundMedian = foundMedian || strings.Contains(d, "median")
	}
	if !foundMedian {
		t.Errorf("diffs = %v, want a median difference (both sides exact)", diffs)
	}

	if _, err := DiffManifests(filepath.Join(dir, "missing.json"), a, 1e-9); err == nil {
		t.Error("missing file should error")
	}
}

package dispatch

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"wsncover/internal/experiment"
	"wsncover/internal/sim"
)

// LoadManifest reads a manifest and its spec with execution metadata
// cleared — worker counts and fresh-build change wall clock, never
// results, so comparisons ignore them. The spec decodes through
// sim.UnmarshalSpecJSON, so a manifest that names its damage with the
// older "failures" list compares equal to one that spells the same
// workloads.
func LoadManifest(path string) (experiment.Manifest, sim.CampaignSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return experiment.Manifest{}, sim.CampaignSpec{}, err
	}
	m, spec, err := parseManifest(data)
	if err != nil {
		return m, spec, fmt.Errorf("%s: %w", path, err)
	}
	return m, spec, nil
}

// parseManifest is LoadManifest over bytes already read.
func parseManifest(data []byte) (experiment.Manifest, sim.CampaignSpec, error) {
	var m experiment.Manifest
	var spec sim.CampaignSpec
	if err := json.Unmarshal(data, &m); err != nil {
		return m, spec, err
	}
	if len(m.Spec) > 0 {
		if err := sim.UnmarshalSpecJSON(m.Spec, &spec); err != nil {
			return m, spec, fmt.Errorf("unreadable spec: %w", err)
		}
	}
	spec.Workers, spec.FreshBuild = 0, false
	return m, spec, nil
}

// DiffManifests compares two campaign manifests and returns a
// human-readable list of differences (empty means equivalent).
// Structural fields — name, job counts, point identities, metric names,
// and N, min, max — must match exactly. Mean, standard deviation, and
// CI95 must agree within the relative tolerance tol: equal specs
// reproduce them bit for bit (cells assembled from a store included),
// so tol only forgives floating-point noise between manifests computed
// differently, such as those of older builds. Medians are compared only
// when both sides are exact; median_approx marks the streaming
// P-squared estimate beyond five replicates, an estimate that is
// skipped.
//
// cmd/manifestdiff is the command-line face of this comparison;
// cmd/runlog diff applies it to the manifests of two ledger records.
func DiffManifests(pathA, pathB string, tol float64) ([]string, error) {
	a, specA, err := LoadManifest(pathA)
	if err != nil {
		return nil, err
	}
	b, specB, err := LoadManifest(pathB)
	if err != nil {
		return nil, err
	}
	return diffLoaded(a, specA, b, specB, tol), nil
}

// DiffManifestBytes is DiffManifests over two manifests already read.
func DiffManifestBytes(dataA, dataB []byte, tol float64) ([]string, error) {
	a, specA, err := parseManifest(dataA)
	if err != nil {
		return nil, fmt.Errorf("manifest a: %w", err)
	}
	b, specB, err := parseManifest(dataB)
	if err != nil {
		return nil, fmt.Errorf("manifest b: %w", err)
	}
	return diffLoaded(a, specA, b, specB, tol), nil
}

// diffLoaded compares two parsed manifests (see DiffManifests).
func diffLoaded(a experiment.Manifest, specA sim.CampaignSpec, b experiment.Manifest, specB sim.CampaignSpec, tol float64) []string {
	var diffs []string
	add := func(format string, args ...any) { diffs = append(diffs, fmt.Sprintf(format, args...)) }

	sa, _ := json.Marshal(specA)
	sb, _ := json.Marshal(specB)
	if string(sa) != string(sb) {
		add("spec: %s vs %s", sa, sb)
	}
	if a.Name != b.Name {
		add("name: %q vs %q", a.Name, b.Name)
	}
	if a.Jobs != b.Jobs {
		add("jobs: %d vs %d", a.Jobs, b.Jobs)
	}
	if len(a.Points) != len(b.Points) {
		add("points: %d vs %d", len(a.Points), len(b.Points))
		return diffs
	}
	close := func(x, y float64) bool { return math.Abs(x-y) <= tol*(1+math.Abs(y)) }
	for i, pb := range b.Points {
		pa := a.Points[i]
		cell := fmt.Sprintf("(%s, %g)", pb.Group, pb.X)
		if pa.Group != pb.Group || pa.X != pb.X {
			add("point %d: (%s, %g) vs %s", i, pa.Group, pa.X, cell)
			continue
		}
		if len(pa.Metrics) != len(pb.Metrics) {
			add("%s: %d metrics vs %d", cell, len(pa.Metrics), len(pb.Metrics))
			continue
		}
		for name, db := range pb.Metrics {
			da, ok := pa.Metrics[name]
			if !ok {
				add("%s: metric %q missing", cell, name)
				continue
			}
			if da.N != db.N {
				add("%s/%s: N %d vs %d", cell, name, da.N, db.N)
			}
			if da.Min != db.Min || da.Max != db.Max {
				add("%s/%s: min/max (%g, %g) vs (%g, %g)", cell, name, da.Min, da.Max, db.Min, db.Max)
			}
			if !close(da.Mean, db.Mean) {
				add("%s/%s: mean %g vs %g", cell, name, da.Mean, db.Mean)
			}
			if !close(da.StdDev, db.StdDev) {
				add("%s/%s: stddev %g vs %g", cell, name, da.StdDev, db.StdDev)
			}
			if !close(da.CI95, db.CI95) {
				add("%s/%s: ci95 %g vs %g", cell, name, da.CI95, db.CI95)
			}
			// Medians compare only exact-to-exact; an estimate carries
			// its own health warning instead.
			if !da.MedianApprox && !db.MedianApprox && !close(da.Median, db.Median) {
				add("%s/%s: median %g vs %g", cell, name, da.Median, db.Median)
			}
		}
	}
	return diffs
}

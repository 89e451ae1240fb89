package dispatch

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"wsncover/internal/experiment"
	"wsncover/internal/sim"
)

// MergeShardManifests stitches shard manifests (same spec, disjoint
// replicate ranges produced with -shard or a dispatched fleet) into one
// campaign manifest named name. Overlapping or gapped ranges, diverging
// specs, asymmetric point sets, and the same shard passed twice all fail
// loudly — a silent bad merge would corrupt the paired-seed methodology
// the campaign layer guarantees. The degenerate single-shard merge (one
// manifest covering the whole replicate range, e.g. -shard 1/1) is
// valid and simply strips the shard range; its statistics pass through
// untouched, so medians stay exact. Merges of two or more shards combine
// per-cell statistics with stats.Description.Merge — exact for
// count/mean/min/max, pooled variance, and an estimated median marked
// median_approx in the output manifest.
//
// The returned manifest is not written to disk; callers persist it with
// Manifest.Save. The merged spec is returned alongside for callers that
// label artifacts with campaign parameters (table titles, replicate
// counts).
func MergeShardManifests(paths []string, name string) (*experiment.Manifest, sim.CampaignSpec, error) {
	var none sim.CampaignSpec
	if len(paths) == 0 {
		return nil, none, fmt.Errorf("no shard manifests to merge")
	}
	// The same file listed twice is always a mistake: the range check
	// below would flag it as an overlap, but the operator pasting one
	// path twice deserves the direct diagnosis.
	seenPath := make(map[string]string, len(paths))
	for _, path := range paths {
		abs, err := filepath.Abs(filepath.Clean(path))
		if err != nil {
			abs = filepath.Clean(path)
		}
		if prev, dup := seenPath[abs]; dup {
			return nil, none, fmt.Errorf("shard manifest %s passed twice (as %s and %s); "+
				"each shard merges exactly once", abs, prev, path)
		}
		seenPath[abs] = path
	}

	type shard struct {
		path     string
		spec     sim.CampaignSpec
		manifest experiment.Manifest
	}
	shards := make([]shard, 0, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, none, err
		}
		var m experiment.Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, none, fmt.Errorf("shard manifest %s: %w", path, err)
		}
		var spec sim.CampaignSpec
		if err := sim.UnmarshalSpecJSON(m.Spec, &spec); err != nil {
			return nil, none, fmt.Errorf("shard manifest %s: unreadable spec: %w", path, err)
		}
		spec = spec.Normalized()
		if spec.ShardCount == 0 {
			return nil, none, fmt.Errorf("%s is not a shard manifest (no shard range in its spec)", path)
		}
		if err := spec.Validate(); err != nil {
			return nil, none, fmt.Errorf("shard manifest %s: %w", path, err)
		}
		shards = append(shards, shard{path: path, spec: spec, manifest: m})
	}

	// All shards must be the same campaign apart from the shard range
	// (and execution metadata).
	common := func(s sim.CampaignSpec) ([]byte, error) {
		s.ShardFirst, s.ShardCount, s.Workers, s.FreshBuild = 0, 0, 0, false
		return json.Marshal(s)
	}
	ref, err := common(shards[0].spec)
	if err != nil {
		return nil, none, err
	}
	for _, sh := range shards[1:] {
		got, err := common(sh.spec)
		if err != nil {
			return nil, none, err
		}
		if string(got) != string(ref) {
			return nil, none, fmt.Errorf("%s and %s were produced by different campaign specs; "+
				"shards must share everything but the shard range", shards[0].path, sh.path)
		}
	}

	// Two distinct files covering the same replicate range are the same
	// shard run twice (rerun under a different -name, a copied manifest):
	// merging both would double-count every trial of the range.
	byRange := make(map[int]string, len(shards))
	for _, sh := range shards {
		if prev, dup := byRange[sh.spec.ShardFirst]; dup {
			return nil, none, fmt.Errorf("%s and %s cover the same shard (replicates [%d, %d)); "+
				"the same shard manifest was passed twice", prev, sh.path,
				sh.spec.ShardFirst, sh.spec.ShardFirst+sh.spec.ShardCount)
		}
		byRange[sh.spec.ShardFirst] = sh.path
	}

	// The ranges must tile [0, Replicates) exactly: merge in replicate
	// order, rejecting overlap, gaps, and missing shards.
	sort.Slice(shards, func(i, j int) bool { return shards[i].spec.ShardFirst < shards[j].spec.ShardFirst })
	next := 0
	pointSets := make([][]experiment.Point, 0, len(shards))
	jobs := 0
	for _, sh := range shards {
		switch {
		case sh.spec.ShardFirst > next:
			return nil, none, fmt.Errorf("replicates [%d, %d) missing: no shard covers them", next, sh.spec.ShardFirst)
		case sh.spec.ShardFirst < next:
			return nil, none, fmt.Errorf("%s overlaps the preceding shard at replicate %d", sh.path, sh.spec.ShardFirst)
		}
		next += sh.spec.ShardCount
		pointSets = append(pointSets, sh.manifest.Points)
		jobs += sh.manifest.Jobs
	}
	if next != shards[0].spec.Replicates {
		return nil, none, fmt.Errorf("replicates [%d, %d) missing: no shard covers them", next, shards[0].spec.Replicates)
	}

	points, err := experiment.MergeShardPoints(pointSets...)
	if err != nil {
		return nil, none, err
	}
	mergedSpec := shards[0].spec
	mergedSpec.ShardFirst, mergedSpec.ShardCount, mergedSpec.Workers, mergedSpec.FreshBuild = 0, 0, 0, false
	manifest, err := experiment.NewManifest(name, mergedSpec, jobs, 0, points)
	if err != nil {
		return nil, none, err
	}
	return manifest, mergedSpec, nil
}

package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"

	"wsncover/internal/experiment"
	"wsncover/internal/sim"
)

// MergeShardManifests unions the shard manifests of one campaign
// (produced with -shard) into the campaign manifest named name. A
// shard computes whole cells, each byte for byte as the unsharded
// campaign computes it, so the merge recomputes no statistic. It
// checks that the inputs are one campaign apart from their cell
// ranges and execution fields, that no file is given twice, and that
// every cell of the campaign appears in exactly one input: a cell
// held twice names both files, a gap names the first missing cell.
// The manifest is then assembled the way an in-process run assembles
// it — LocalRun with the union as its prior and nothing left to run —
// so it is byte-identical to the unsharded run's manifest (at the
// default worker count, which the merged spec records).
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
	// The same file listed twice is always a mistake: the cell check
	// below would flag it too, but the operator pasting one path twice
	// deserves the direct diagnosis.
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

	var spec sim.CampaignSpec
	var ref []byte
	union := &experiment.Manifest{}
	from := make(map[cell]string)
	for i, path := range paths {
		m, s, err := LoadManifest(path)
		if err != nil {
			return nil, none, fmt.Errorf("shard manifest %w", err)
		}
		s = s.Normalized()
		if err := s.Validate(); err != nil {
			return nil, none, fmt.Errorf("shard manifest %s: %w", path, err)
		}
		key, err := json.Marshal(s)
		if err != nil {
			return nil, none, err
		}
		if i == 0 {
			spec, ref = s, key
		} else if !bytes.Equal(key, ref) {
			return nil, none, fmt.Errorf("%s and %s were produced by different campaign specs; "+
				"shards must share everything but the cell range", paths[0], path)
		}
		for _, p := range m.Points {
			k := cell{p.Group, p.X}
			if prev, dup := from[k]; dup {
				return nil, none, fmt.Errorf("%s overlaps %s at cell (%s, N=%g): the same shard twice, "+
					"or overlapping cell ranges; each cell merges exactly once", path, prev, p.Group, p.X)
			}
			from[k] = path
		}
		union.Points = append(union.Points, m.Points...)
	}

	r := PlanLocal(spec, name, union, "")
	if r.Orphans > 0 {
		return nil, none, fmt.Errorf("%d cell(s) of the shard manifests lie outside the campaign", r.Orphans)
	}
	for _, k := range r.cells {
		if !r.done[k] {
			return nil, none, fmt.Errorf("cell (%s, N=%g) missing: no shard manifest covers it", k.group, k.x)
		}
	}
	m, _, err := r.Run(context.Background(), nil)
	if err != nil {
		return nil, none, err
	}
	return m, spec, nil
}

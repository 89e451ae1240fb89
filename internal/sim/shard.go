package sim

import "fmt"

// ShardRange returns the contiguous cell block [first, first+count) of
// shard i of n (1-based) when cells are split as evenly as possible
// across n shards: the first cells%n shards get one extra cell. This is
// the single definition of the even split — cmd/sweep -shard i/n and
// the dispatch driver both use it, so a hand-launched shard and a
// dispatched one always cover identical ranges.
func ShardRange(i, n, cells int) (first, count int, err error) {
	if n < 1 || i < 1 || i > n {
		return 0, 0, fmt.Errorf("sim: shard %d/%d outside 1..n", i, n)
	}
	if n > cells {
		return 0, 0, fmt.Errorf("sim: cannot split %d cells into %d shards", cells, n)
	}
	base, rem := cells/n, cells%n
	first = (i-1)*base + min(i-1, rem)
	count = base
	if i <= rem {
		count++
	}
	return first, count, nil
}

// SplitShards splits the campaign into n shard specs covering the even
// cell blocks of ShardRange, in shard order. Each returned spec is the
// normalized campaign with only CellFirst/CellCount set; every cell is
// computed whole by exactly one shard, byte for byte as the unsharded
// campaign computes it, so the shard manifests union back into the
// unsharded manifest through dispatch.MergeShardManifests (or cmd/sweep
// -merge). A spec that already pins a cell range cannot be split again.
func (s CampaignSpec) SplitShards(n int) ([]CampaignSpec, error) {
	s.normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.CellCount != 0 {
		return nil, fmt.Errorf("sim: spec already pins cell range [%d, +%d); split the unsharded campaign",
			s.CellFirst, s.CellCount)
	}
	cells := s.NumCells()
	shards := make([]CampaignSpec, n)
	for i := 1; i <= n; i++ {
		first, count, err := ShardRange(i, n, cells)
		if err != nil {
			return nil, err
		}
		shard := s
		shard.CellFirst, shard.CellCount = first, count
		shards[i-1] = shard
	}
	return shards, nil
}

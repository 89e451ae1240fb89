package sim

import "fmt"

// Shard returns the job space limited to shard i of n (1-based): the
// i-th of n contiguous blocks of the campaign's cells, split as evenly
// as possible, the first cells%n blocks one cell larger. This is the
// single definition of the even split behind cmd/sweep -shard i/n, so
// the n shard runs of a campaign tile its cells exactly, whichever box
// runs each of them. A cell's trials depend only on its own dimension
// values, the seed and the replicate count, so a shard computes its
// cells byte for byte as the whole campaign does, and the cells of
// disjoint shards stored in one dispatch.CellStore assemble into the
// unsharded manifest. The blocks always split the whole campaign, also
// when js is itself a shard.
func (js JobSpace) Shard(i, n int) (JobSpace, error) {
	if err := js.built(); err != nil {
		return JobSpace{}, err
	}
	first, count, err := shardRange(i, n, js.total/js.spec.Replicates)
	if err != nil {
		return JobSpace{}, err
	}
	js.lo, js.hi, js.sharded = first, first+count, true
	return js, nil
}

// CellRange reports the cell block [first, first+count) a shard
// executes, and (0, 0) for a job space that executes every cell.
func (js JobSpace) CellRange() (first, count int) {
	if !js.sharded {
		return 0, 0
	}
	return js.lo, js.hi - js.lo
}

// shardRange returns the cell block [first, first+count) of shard i of
// n (1-based) over cells cells.
func shardRange(i, n, cells int) (first, count int, err error) {
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

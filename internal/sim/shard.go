package sim

import "fmt"

// ShardRange returns the contiguous cell block [first, first+count) of
// shard i of n (1-based) when cells are split as evenly as possible
// across n shards: the first cells%n shards get one extra cell. This is
// the single definition of the even split behind cmd/sweep -shard i/n,
// so the n shard runs of a campaign tile its cells exactly, whichever
// box runs each of them.
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

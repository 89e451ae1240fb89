package experiment

import "wsncover/internal/randx"

// Seeds derives n trial seeds from one base seed using the simulator's
// stream-splitting discipline (randx.Rand.Split). The derivation walks
// the indices in order on a single root stream, so the slice depends
// only on (base, n) — never on worker count or scheduling — and each
// seed heads an uncorrelated child stream. Callers assign seeds[i] to
// job i before dispatching the batch to RunStream.
func Seeds(base int64, n int) []int64 {
	// Each child is drawn from once and released, so the set reseeds one
	// stream in place instead of allocating n.
	var set randx.Streams
	root := set.New(base)
	out := make([]int64, n)
	for i := range out {
		child := root.Split(int64(i + 1))
		out[i] = child.Int63()
		child.Release()
	}
	return out
}

// Package randx supplies the deterministic pseudo-random infrastructure for
// the simulator. Every stochastic component receives an explicit *Rand so
// that trials are reproducible from a single seed and sub-streams can be
// split without correlation (each trial, deployment, and scheme draws from
// its own derived stream).
package randx

import (
	"math/rand"

	"wsncover/internal/geom"
)

// Rand is a seeded pseudo-random stream. It wraps math/rand.Rand and adds
// the geometry-aware helpers the simulator needs.
type Rand struct {
	src *rand.Rand
}

// New returns a stream seeded with seed.
func New(seed int64) *Rand {
	return &Rand{src: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child stream. The child's seed mixes the
// parent stream state with the supplied label so that distinct labels give
// distinct streams even when requested in a different order across runs of
// the same code path.
func (r *Rand) Split(label int64) *Rand {
	const golden = int64(0x9E3779B97F4A7C15 & 0x7FFFFFFFFFFFFFFF)
	mix := r.src.Int63() ^ (label * golden)
	return New(mix)
}

// Int63 returns a non-negative 63-bit integer.
func (r *Rand) Int63() int64 { return r.src.Int63() }

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *Rand) Intn(n int) int { return r.src.Intn(n) }

// Float64 returns a uniform float in [0, 1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// NormFloat64 returns a standard normal variate.
func (r *Rand) NormFloat64() float64 { return r.src.NormFloat64() }

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.src.Float64() < p }

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.src.Perm(n) }

// PermInto writes a random permutation of [0, n) into dst, reusing its
// capacity, and returns it. It draws exactly the variates math/rand's
// Perm draws, in the same order, so Perm and PermInto advance the stream
// identically and produce identical permutations from equal states —
// PermInto is the allocation-free form hot deployment paths use.
func (r *Rand) PermInto(dst []int, n int) []int {
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	// The i=0 iteration is a self-swap but still consumes one Intn(1)
	// draw, mirroring math/rand.Perm's Go 1 stream compatibility.
	for i := 0; i < n; i++ {
		j := r.src.Intn(i + 1)
		dst[i] = dst[j]
		dst[j] = i
	}
	return dst
}

// PermPrefixInto writes the first min(k, n) entries of the permutation
// PermInto(dst, n) would produce into dst, reusing its capacity, and
// returns them. It draws the same n variates as PermInto, so the stream
// ends in the same state, but holds only the prefix: the inside-out
// shuffle never moves a value from position i >= k back below k, so past
// the prefix the only update that matters is the new value i landing at
// a prefix position j. Memory is O(k) instead of O(n), and the n-entry
// random-access buffer of a large field never exists.
func (r *Rand) PermPrefixInto(dst []int, n, k int) []int {
	k = max(0, min(k, n))
	if cap(dst) < k {
		dst = make([]int, k)
	}
	dst = dst[:k]
	for i := 0; i < k; i++ {
		j := r.src.Intn(i + 1)
		dst[i] = dst[j]
		dst[j] = i
	}
	for i := k; i < n; i++ {
		if j := r.src.Intn(i + 1); j < k {
			dst[j] = i
		}
	}
	return dst
}

// Shuffle randomly permutes n elements using the provided swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// InRect returns a point uniformly distributed in rect.
func (r *Rand) InRect(rect geom.Rect) geom.Point {
	return geom.Point{
		X: rect.Min.X + r.src.Float64()*rect.Width(),
		Y: rect.Min.Y + r.src.Float64()*rect.Height(),
	}
}

// Pick returns a uniformly chosen index of a slice of length n, or -1 when
// n == 0.
func (r *Rand) Pick(n int) int {
	if n == 0 {
		return -1
	}
	return r.src.Intn(n)
}

// Sample picks k distinct integers from [0, n) uniformly at random. When
// k >= n it returns a permutation of all n integers.
func (r *Rand) Sample(n, k int) []int {
	if k >= n {
		return r.Perm(n)
	}
	perm := r.Perm(n)
	out := make([]int, k)
	copy(out, perm[:k])
	return out
}

// Package randx supplies the deterministic pseudo-random infrastructure for
// the simulator. Every stochastic component receives an explicit *Rand so
// that trials are reproducible from a single seed and sub-streams can be
// split without correlation (each trial, deployment, and scheme draws from
// its own derived stream).
//
// The contract: for every seed, a stream is bit-identical to
// rand.New(rand.NewSource(seed)), method for method. Go 1 compatibility
// freezes math/rand's generator and its Intn, Float64 and Perm algorithms,
// so every stream, and every result the simulator derives from one, is
// fixed across Go releases. randx owns the source
// (see source.go): it computes math/rand's outputs in blocks and seeds
// its state words lazily, so a stream costs what it draws, and it lands
// on the same words. Every draw restates the Go-1-frozen algorithm
// over that source, so its draw inlines into the hot ones.
package randx

import "wsncover/internal/geom"

// Rand is a seeded pseudo-random stream: math/rand's draws plus the
// geometry-aware helpers the simulator needs.
type Rand struct {
	// set is the Streams this stream came from, and the one its Split
	// children come from; idx is its position there. A stream from New
	// has no set.
	set *Streams
	idx int
	rng source
}

// New returns a stream seeded with seed.
func New(seed int64) *Rand {
	r := new(Rand)
	r.rng.Seed(seed)
	return r
}

// Split derives an independent child stream. The child's seed mixes the
// parent stream state with the supplied label so that distinct labels give
// distinct streams even when requested in a different order across runs of
// the same code path. A stream from a Streams set splits its children off
// the same set; any other stream allocates them.
func (r *Rand) Split(label int64) *Rand {
	const golden = int64(0x9E3779B97F4A7C15 & 0x7FFFFFFFFFFFFFFF)
	mix := r.Int63() ^ (label * golden)
	if r.set != nil {
		return r.set.New(mix)
	}
	return New(mix)
}

// Streams is a reusable set of streams. New hands out a stream that draws
// exactly what the package-level New's would, reseeding a free stream of
// the set in place when there is one, so a warm set allocates nothing.
// Split children of its streams come from the same set.
//
// The lifetime rule: Reset invalidates every stream the set has handed
// out, since each is then reseeded under whoever still holds it. An
// owner that resets its set once per unit of work hands out streams that
// die with that unit. sim.TrialArena resets its set at the start of each
// trial, so a stream from an arena is invalid after that arena's next
// trial, and nothing a trial builds may keep one beyond it.
//
// The zero value is an empty set. A Streams is not safe for concurrent
// use.
type Streams struct {
	list []*Rand
	used int // list[:used] are handed out
}

// Reset returns every stream of the set to it, invalidating them all.
func (s *Streams) Reset() { s.used = 0 }

// New returns a stream of the set seeded with seed.
func (s *Streams) New(seed int64) *Rand {
	if s.used < len(s.list) {
		r := s.list[s.used]
		s.used++
		r.rng.Seed(seed)
		return r
	}
	r := New(seed)
	r.set, r.idx = s, len(s.list)
	s.list = append(s.list, r)
	s.used++
	return r
}

// Release returns r, and every stream its set handed out after r, to the
// set; none of them may be used afterwards. It scopes a short-lived
// stream (one event firing's) so a long trial reuses one slot instead of
// growing the set. On a stream from New it does nothing.
func (r *Rand) Release() {
	if r.set != nil && r.idx < r.set.used {
		r.set.used = r.idx
	}
}

// Int63 returns a non-negative 63-bit integer.
func (r *Rand) Int63() int64 { return int64(r.rng.Uint64() & (1<<63 - 1)) }

// Intn returns a uniform integer in [0, n). It panics when n is not
// positive.
//
// Up to 2^31-1 it is math/rand's Int31n: a power of two masks one Int31,
// any other n redraws an Int31 above the largest multiple of n and takes
// the rest. No v <= 2^31-1-n lies above that multiple, so the division
// that finds it runs only for the rare v beyond. Past 2^31-1 it is
// math/rand's Int63n, the same algorithm over Int63.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n > 1<<31-1 {
		m := int64(n)
		if m&(m-1) == 0 {
			return int(r.Int63() & (m - 1))
		}
		max := int64(1<<63 - 1 - (1<<63)%uint64(m))
		v := r.Int63()
		for v > max {
			v = r.Int63()
		}
		return int(v % m)
	}
	m := int32(n)
	v := int32(r.rng.Uint64() >> 32 & (1<<31 - 1))
	if m&(m-1) == 0 {
		return int(v & (m - 1))
	}
	if v > 1<<31-1-m {
		max := int32(1<<31 - 1 - (1<<31)%uint32(m))
		for v > max {
			v = int32(r.rng.Uint64() >> 32 & (1<<31 - 1))
		}
	}
	return int(v % m)
}

// Float64 returns a uniform float in [0, 1). Like math/rand's, it draws
// again on the rare Int63 that rounds to 1.
func (r *Rand) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Perm returns a random permutation of [0, n) in a new slice.
func (r *Rand) Perm(n int) []int { return r.PermInto(make([]int, n), n) }

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
		j := r.Intn(i + 1)
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
		j := r.Intn(i + 1)
		dst[i] = dst[j]
		dst[j] = i
	}
	for i := k; i < n; i++ {
		if j := r.Intn(i + 1); j < k {
			dst[j] = i
		}
	}
	return dst
}

// InRect returns a point uniformly distributed in rect.
func (r *Rand) InRect(rect geom.Rect) geom.Point {
	return geom.Point{
		X: rect.Min.X + r.Float64()*rect.Width(),
		Y: rect.Min.Y + r.Float64()*rect.Height(),
	}
}

// Sample picks k distinct integers from [0, n) uniformly at random. When
// k >= n it returns a permutation of all n integers; when k < 0 it
// returns an empty slice and draws nothing.
func (r *Rand) Sample(n, k int) []int {
	if k < 0 {
		return []int{}
	}
	if k >= n {
		return r.Perm(n)
	}
	perm := r.Perm(n)
	out := make([]int, k)
	copy(out, perm[:k])
	return out
}

// State is a saved stream position: the source's whole state, its
// pending lazy seeding included, so a stream restored from it draws
// word for word what the saved stream went on to draw. Saving and
// restoring are struct copies of about 4.9 KB; a State holds no
// reference to the stream it came from.
type State struct{ src source }

// Save copies r's current position into st.
func (r *Rand) Save(st *State) { st.src = r.rng }

// Restore moves r to the position saved in st, whatever r drew or was
// seeded with before. It leaves r's set membership alone, so a stream
// of a Streams set stays in its set.
func (r *Rand) Restore(st *State) { r.rng = st.src }

package randx

import "math/rand"

// source is math/rand's additive lagged-Fibonacci generator (the
// unexported rngSource, Mitchell and Reeds): 607 words of state, tap
// 273, x[n] = x[n-607] + x[n-273] mod 2^64. Its output for a given seed
// is the same as rand.NewSource(seed)'s, word for word. Only the order
// in which the work is done differs, in cost and not in result.
//
// math/rand writes each output over the state word at its feed
// position, the feed stepping down from 333 through 0 and then wrapping
// to 606. The word it adds sits 273 above the feed below 334 and 334
// below it from 334 up: in both cases the output of 273 draws before
// (in the first 273 draws, a seeded word). So outputs less than 273
// draws apart never depend on each other, and source computes them
// rngBlock at a time: refill writes the next block of outputs in place,
// vec[lo:next], and Uint64 hands them out from the top down. A draw is a
// compare, a decrement and a load, small enough to inline into every
// caller.
//
// Seeding is lazy. math/rand seeds by running the Lehmer generator
// x -> 48271x mod 2^31-1 1,841 steps from the normalised seed, one
// serial chain of Schrage steps, and XORing the values into a table of
// 607 constants. Here the n-th value of that chain is read off in closed
// form, as 48271^n (from the lehmerPow table) times the start value mod
// 2^31-1, so each state word can be seeded on its own. Seed only stores
// the start value; during the first lap (the 334 draws down to feed 0)
// refill seeds each block's feed words and the partners they add from
// 334 up just before it first reads them. By the end of that lap every
// word is seeded, and a stream that draws little seeds little.
type source struct {
	next int    // vec[lo:next] are the computed outputs not yet drawn
	lo   int    // the start of the current block
	x0   uint64 // the normalised seed while the first lap seeds words; 0 after it
	vec  [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngFeed  = rngLen - rngTap // the feed position right after seeding
	rngBlock = 16              // outputs one refill computes

	lehmerA   = 48271
	lehmerM   = 1<<31 - 1
	seedWarm  = 20       // chain steps math/rand discards before the first word
	seedZero  = 89482311 // start value math/rand substitutes for a zero seed
	seedSteps = seedWarm + 3*rngLen
)

var (
	// lehmerPow[i][j] is 48271^n mod 2^31-1 for n = seedWarm+3i+j+1,
	// the chain steps state word i reads.
	lehmerPow [rngLen][3]uint64
	// rngCooked is math/rand's constant table, XORed into every seeded
	// state word. It is recovered from public output at init.
	rngCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for n := 1; n <= seedSteps; n++ {
		p = p * lehmerA % lehmerM
		if m := n - seedWarm - 1; m >= 0 {
			lehmerPow[m/3][m%3] = p
		}
	}
	rngCooked = recoverCooked()
}

// recoverCooked derives math/rand's rngCooked table from the first 607
// outputs o_1..o_607 of rand.NewSource(1). Seeding leaves tap = 0 and
// feed = 334, and output k writes vec[feed] += vec[tap] with both
// indices stepping down by one. So o_k is the seeded word at feed_k plus
// either a seeded word at 607-k (for k <= 273) or the output o_{k-273}
// that overwrote it. Solving for the seeded state V:
//
//	V[941-k] = o_k - o_{k-273}  for 335 <= k <= 607
//	V[334-k] = o_k - o_{k-273}  for 274 <= k <= 334
//	V[334-k] = o_k - V[607-k]   for   1 <= k <= 273
//
// V XOR seed 1's chain words is the table.
func recoverCooked() [rngLen]int64 {
	src := rand.NewSource(1).(rand.Source64)
	var o [rngLen + 1]int64 // o[k] for k = 1..607
	for k := 1; k <= rngLen; k++ {
		o[k] = int64(src.Uint64())
	}
	var v [rngLen]int64
	for k := 335; k <= rngLen; k++ {
		v[941-k] = o[k] - o[k-rngTap]
	}
	for k := rngTap + 1; k <= 334; k++ {
		v[334-k] = o[k] - o[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[334-k] = o[k] - v[607-k]
	}
	// rngCooked is still zero here, so seeding leaves seed 1's bare
	// chain words.
	var w [rngLen]int64
	seedWords(w[:], 0, normSeed(1))
	for i := range v {
		v[i] ^= w[i]
	}
	return v
}

// normSeed maps a seed to the Lehmer start value math/rand uses:
// seed mod 2^31-1, negatives shifted up, and zero replaced.
func normSeed(seed int64) uint64 {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = seedZero
	}
	return uint64(seed)
}

// mulmod returns p*x mod 2^31-1 for p, x in [1, 2^31-1). Since
// 2^31 = 1 mod M, the product (below 2^62) folds to hi + lo, a value s
// below 2M; s is never M itself, because M is prime and neither factor
// is 0 mod M. Folding s once more subtracts M exactly when s >= 2^31,
// without a branch.
func mulmod(p, x uint64) int64 {
	v := p * x
	s := v&lehmerM + v>>31
	return int64(s&lehmerM + s>>31)
}

// seedWords sets dst to the seeded state words lo, lo+1, ... for the
// normalised seed x0: three chain values and the constant per word.
func seedWords(dst []int64, lo int, x0 uint64) {
	pow := lehmerPow[lo : lo+len(dst)]
	cooked := rngCooked[lo : lo+len(dst)]
	for i := range dst {
		pw := &pow[i]
		dst[i] = mulmod(pw[0], x0)<<40 ^ mulmod(pw[1], x0)<<20 ^ mulmod(pw[2], x0) ^ cooked[i]
	}
}

// Seed sets the state math/rand's rngSource.Seed sets for seed. It
// computes no state word; the first lap's refills do.
func (s *source) Seed(seed int64) {
	s.next, s.lo = rngFeed, rngFeed
	s.x0 = normSeed(seed)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Uint64 returns a pseudo-random 64-bit value. It must stay within the
// compiler's inlining budget: the hot draws of Rand inline it.
func (s *source) Uint64() uint64 {
	if s.next == s.lo {
		s.refill()
	}
	s.next--
	return uint64(s.vec[s.next])
}

// refill computes the next block of outputs, the up to rngBlock feed
// positions below next (wrapping from 0 to the top at the end of a
// lap), in place, and points the cursors at it.
func (s *source) refill() {
	hi := s.next
	if hi == 0 {
		hi = rngLen
		s.x0 = 0 // the first lap, and with it seeding, is over
	}
	lo := max(hi-rngBlock, 0)
	s.next, s.lo = hi, lo
	if s.x0 != 0 {
		// First lap: hi <= rngFeed. The feed words are unseeded, and so
		// are their partners from rngFeed up; the partners below, of
		// feed words under rngFeed-rngTap, are this lap's outputs.
		seedWords(s.vec[lo:hi], lo, s.x0)
		if plo := max(lo, rngFeed-rngTap) + rngTap; plo < hi+rngTap {
			seedWords(s.vec[plo:hi+rngTap], plo, s.x0)
		}
	}
	// Feed positions from rngFeed up add the word rngFeed below, ...
	if m := max(lo, rngFeed); m < hi {
		dst := s.vec[m:hi]
		src := s.vec[m-rngFeed : hi-rngFeed]
		for i := range dst {
			dst[i] += src[i]
		}
	}
	// ... and the rest the word rngTap above.
	if m := min(hi, rngFeed); lo < m {
		dst := s.vec[lo:m]
		src := s.vec[lo+rngTap : m+rngTap]
		for i := range dst {
			dst[i] += src[i]
		}
	}
}

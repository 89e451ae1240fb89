package randx

import "math/rand"

// source is math/rand's additive lagged-Fibonacci generator (the
// unexported rngSource, Mitchell and Reeds): 607 words of state, tap
// 273, x[n] = x[n-607] + x[n-273] mod 2^64. Its output for a given seed
// is the same as rand.NewSource(seed)'s, word for word. Only seeding
// differs, in cost and not in result.
//
// math/rand seeds by running the Lehmer generator x -> 48271x mod 2^31-1
// 1,841 steps from the normalised seed, one serial chain of Schrage
// steps, and XORing the values into a table of 607 constants. Here the
// n-th value of that chain is read off in closed form, as 48271^n (from
// the lehmerPow table) times the start value mod 2^31-1. The three values each state word
// needs are independent multiply-and-fold operations, with no chain.
type source struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

const (
	rngLen = 607
	rngTap = 273

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
	var w source
	w.Seed(1)
	for i := range v {
		v[i] ^= w.vec[i]
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

// Seed sets the state math/rand's rngSource.Seed sets for seed.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	x0 := normSeed(seed)
	for i := range s.vec {
		pw := &lehmerPow[i]
		s.vec[i] = mulmod(pw[0], x0)<<40 ^ mulmod(pw[1], x0)<<20 ^ mulmod(pw[2], x0) ^ rngCooked[i]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Uint64 returns a pseudo-random 64-bit value.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

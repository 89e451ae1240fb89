// Package analytic implements the paper's analytical cost model for a
// single snake-like replacement process (Theorem 2) and the
// moving-distance estimate of Section 4.
//
// Model: a hole turns the directed Hamilton cycle into a directed Hamilton
// path of length L hops; N spare nodes are distributed uniformly and
// independently over the L grids of that path. The replacement cascades
// backward from the hole and converges at the first grid holding a spare.
// P(i) is the probability that this happens at hop i, so the expected
// number of node movements is M = sum_i i*P(i): i-1 cascading head moves
// plus the final spare move.
package analytic

import (
	"fmt"
	"math"
)

// MeanHopDistanceFactor is the paper's estimate of the average distance of
// one movement between neighboring grids, as a multiple of the grid size
// r: each mover travels from its current position to a random point in the
// central area of the target grid, averaging 1.08*r.
const MeanHopDistanceFactor = 1.08

// P returns the probability that a replacement process converges at hop i
// of a directed Hamilton path of length L when N spare nodes are placed
// uniformly at random over the path's L grids (Theorem 2, equation 1).
//
// The formula telescopes: P(i) = ((L-i+1)/L)^N - ((L-i)/L)^N for i < L and
// P(L) = (1/L)^N, so sum_{i=1..L} P(i) = 1 for every N >= 1.
//
// P panics on out-of-range arguments; use Moves for validated evaluation.
func P(i, l, n int) float64 {
	if l <= 1 || i < 1 || i > l || n < 0 {
		panic(fmt.Sprintf("analytic: P(%d, %d, %d) out of domain", i, l, n))
	}
	lf, nf := float64(l), float64(n)
	switch i {
	case 1:
		return 1 - math.Pow((lf-1)/lf, nf)
	case l:
		// prod_{k=1..L-1} ((L-k)/(L-k+1))^N telescopes to (1/L)^N.
		return math.Pow(1/lf, nf)
	default:
		head := 1 - math.Pow((lf-float64(i))/(lf-float64(i)+1), nf)
		// prod_{k=1..i-1} ((L-k)/(L-k+1))^N telescopes to ((L-i+1)/L)^N.
		tail := math.Pow((lf-float64(i)+1)/lf, nf)
		return head * tail
	}
}

// Moves returns M = sum_{i=1..L} i*P(i), the expected number of node
// movements for one converged replacement process along a Hamilton path of
// length L with N spares (Theorem 2). It returns an error when L <= 1 or
// N < 0, the domain excluded by the theorem.
func Moves(n, l int) (float64, error) {
	if l <= 1 {
		return 0, fmt.Errorf("analytic: path length L=%d must exceed 1", l)
	}
	if n < 0 {
		return 0, fmt.Errorf("analytic: spare count N=%d must be non-negative", n)
	}
	if n == 0 {
		// No spares: the process cannot converge; the theorem's sum
		// degenerates (every grid fails), so report the full path length
		// as the exhaustive walk cost.
		return float64(l), nil
	}
	m := 0.0
	for i := 1; i <= l; i++ {
		m += float64(i) * P(i, l, n)
	}
	return m, nil
}

// Distance returns the estimated total moving distance of one converged
// replacement: the expected movement count times the mean per-hop distance
// 1.08*r (Section 4, Figure 5).
func Distance(n, l int, r float64) (float64, error) {
	m, err := Moves(n, l)
	if err != nil {
		return 0, err
	}
	return m * MeanHopDistanceFactor * r, nil
}

// Series evaluates Moves over a sweep of spare counts, returning one value
// per element of ns. It is the generator behind Figure 3.
func Series(ns []int, l int) ([]float64, error) {
	out := make([]float64, len(ns))
	for i, n := range ns {
		m, err := Moves(n, l)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// DistanceSeries evaluates Distance over a sweep of spare counts. It is
// the generator behind Figure 5.
func DistanceSeries(ns []int, l int, r float64) ([]float64, error) {
	out := make([]float64, len(ns))
	for i, n := range ns {
		d, err := Distance(n, l, r)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// Package stats supplies the small descriptive-statistics toolkit used to
// aggregate simulation trials: mean, standard deviation, confidence
// intervals, and order statistics.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator), or 0
// when fewer than two samples exist.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// CI95 returns the half-width of the 95% normal-approximation confidence
// interval of the mean: 1.96 * s / sqrt(n).
func CI95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return 1.96 * StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs (average of the two central order
// statistics for even lengths), or 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// Description bundles the descriptive statistics of one sample.
type Description struct {
	N      int
	Mean   float64
	StdDev float64
	CI95   float64
	Min    float64
	Max    float64
	Median float64
	// MedianApprox marks Median as an estimate rather than the exact
	// order statistic of the described sample: true only for the
	// streaming P-squared median beyond five observations. Exact
	// descriptions — Describe over retained samples, streaming cells of
	// at most five observations — leave it false, so a manifest reader
	// can tell an honest median from an estimate.
	MedianApprox bool `json:"median_approx,omitempty"`
}

// Describe computes all descriptive statistics of xs at once.
func Describe(xs []float64) Description {
	return Description{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		CI95:   CI95(xs),
		Min:    Min(xs),
		Max:    Max(xs),
		Median: Median(xs),
	}
}

// String implements fmt.Stringer. An approximate median renders as
// "med~=" instead of "med=".
func (d Description) String() string {
	med := "med="
	if d.MedianApprox {
		med = "med~="
	}
	return fmt.Sprintf("n=%d mean=%.4g±%.2g sd=%.4g min=%.4g %s%.4g max=%.4g",
		d.N, d.Mean, d.CI95, d.StdDev, d.Min, med, d.Median, d.Max)
}

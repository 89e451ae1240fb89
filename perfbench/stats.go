package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a percentile with fewer samples beyond it is one or two
// outliers, not a measurement.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether it is reportable: at least minBeyond samples rank above it.
// xs is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= minBeyond
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tally counts attempted and failed operations. An operation fails when
// it returns an error, gets a non-2xx response, or produces output that
// differs from its reference.
type tally struct {
	attempted, failed int
}

// record counts one operation, failed unless ok.
func (t *tally) record(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// failedFrac returns failed / attempted (0 when nothing was attempted).
func (t tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

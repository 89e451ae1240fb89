package experiment

import (
	"math"
	"sort"

	"wsncover/internal/stats"
)

// Accumulator folds a stream of Samples into per-(Group, X) online
// statistics without retaining the samples. Memory is one fixed array
// of metric streams per (Group, X) cell at any replicate count, which is
// what makes million-trial campaigns feasible; the batch Aggregate needs
// the whole sample slice.
//
// Mean and variance use Welford's online algorithm, min/max are exact,
// and the median is the P-squared streaming estimate (exact through five
// observations). Feeding samples in a fixed order — RunStream delivers
// results in job-index order — makes the fold bit-identical at any
// worker count. Relative to Aggregate, means match to within floating-
// point reassociation and medians beyond n=5 are estimates (flagged by
// stats.Description.MedianApprox); every other field agrees.
//
// The zero value is not usable; call NewAccumulator. An Accumulator is
// not safe for concurrent use — RunStream serializes sink calls, which
// is the intended feeding discipline.
type Accumulator struct {
	cells map[accKey]*[numMetrics]onlineStat // each cell's metric streams
}

type accKey struct {
	group string
	x     float64
}

// NewAccumulator returns an empty streaming aggregator.
func NewAccumulator() *Accumulator {
	return &Accumulator{cells: make(map[accKey]*[numMetrics]onlineStat)}
}

// Add folds one sample into its (Group, X) cell. Only a cell's first
// sample allocates.
func (a *Accumulator) Add(s Sample) {
	k := accKey{s.Group, s.X}
	c := a.cells[k]
	if c == nil {
		c = new([numMetrics]onlineStat)
		a.cells[k] = c
	}
	for m, v := range s.Values {
		c[m].add(v)
	}
}

// Points materializes the aggregate as the same sorted Point set
// Aggregate produces, ready for Table and Manifest.
func (a *Accumulator) Points() []Point {
	keys := make([]accKey, 0, len(a.cells))
	for k := range a.cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].group != keys[j].group {
			return keys[i].group < keys[j].group
		}
		return keys[i].x < keys[j].x
	})
	out := make([]Point, 0, len(keys))
	for _, k := range keys {
		out = append(out, a.Point(k.group, k.x))
	}
	return out
}

// Point materializes the aggregate of one (group, x) cell, exactly as
// Points reports it; a cell with no samples has no metrics.
func (a *Accumulator) Point(group string, x float64) Point {
	c, ok := a.cells[accKey{group, x}]
	if !ok {
		return Point{Group: group, X: x, Metrics: map[string]stats.Description{}}
	}
	metrics := make(map[string]stats.Description, numMetrics)
	for m := range c {
		metrics[Metric(m).String()] = c[m].describe()
	}
	return Point{Group: group, X: x, Metrics: metrics}
}

// onlineStat maintains the descriptive statistics of one metric stream in
// O(1) space: count, Welford mean/M2, min, max, and a P-squared median.
type onlineStat struct {
	n        int
	mean, m2 float64
	min, max float64
	med      p2Median
}

func (o *onlineStat) add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
	o.med.add(x)
}

func (o *onlineStat) describe() stats.Description {
	d := stats.Description{
		N:      o.n,
		Mean:   o.mean,
		Min:    o.min,
		Max:    o.max,
		Median: o.med.value(),
		// The P-squared median retains the first five observations
		// exactly; beyond that the center marker is an estimate, and the
		// description says so.
		MedianApprox: o.n > 5,
	}
	if o.n == 0 {
		// Mirror stats.Describe on an empty sample.
		d.Min, d.Max = math.Inf(1), math.Inf(-1)
	}
	if o.n >= 2 {
		d.StdDev = math.Sqrt(o.m2 / float64(o.n-1))
		d.CI95 = 1.96 * d.StdDev / math.Sqrt(float64(o.n))
	}
	return d
}

// p2Median is the P-squared quantile estimator of Jain and Chlamtac
// (CACM 1985) specialized to the median: five markers track the min, the
// quartile neighborhoods, and the max, adjusting heights by a piecewise-
// parabolic rule. It is exact for the first five observations and an
// O(1)-space estimate beyond.
type p2Median struct {
	n   int
	q   [5]float64 // marker heights
	pos [5]int     // marker positions, 1-based
}

func (m *p2Median) add(x float64) {
	if m.n < 5 {
		m.q[m.n] = x
		m.n++
		if m.n == 5 {
			sortFive(&m.q)
			m.pos = [5]int{1, 2, 3, 4, 5}
		}
		return
	}
	var k int
	switch {
	case x < m.q[0]:
		m.q[0] = x
		k = 0
	case x >= m.q[4]:
		m.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < m.q[k+1] {
				break
			}
		}
	}
	m.n++
	for i := k + 1; i < 5; i++ {
		m.pos[i]++
	}
	nf := float64(m.n)
	desired := [5]float64{1, (nf-1)/4 + 1, (nf-1)/2 + 1, 3*(nf-1)/4 + 1, nf}
	for i := 1; i <= 3; i++ {
		d := desired[i] - float64(m.pos[i])
		if (d >= 1 && m.pos[i+1]-m.pos[i] > 1) || (d <= -1 && m.pos[i-1]-m.pos[i] < -1) {
			s := 1
			if d < 0 {
				s = -1
			}
			if qn := m.parabolic(i, s); m.q[i-1] < qn && qn < m.q[i+1] {
				m.q[i] = qn
			} else {
				m.q[i] = m.linear(i, s)
			}
			m.pos[i] += s
		}
	}
}

// parabolic is the P-squared piecewise-parabolic height adjustment for
// marker i moving by s.
func (m *p2Median) parabolic(i, s int) float64 {
	qi, qp, qn := m.q[i], m.q[i-1], m.q[i+1]
	ni := float64(m.pos[i])
	np := float64(m.pos[i-1])
	nn := float64(m.pos[i+1])
	sf := float64(s)
	return qi + sf/(nn-np)*((ni-np+sf)*(qn-qi)/(nn-ni)+(nn-ni-sf)*(qi-qp)/(ni-np))
}

// linear is the fallback height adjustment when the parabola leaves the
// bracketing markers.
func (m *p2Median) linear(i, s int) float64 {
	return m.q[i] + float64(s)*(m.q[i+s]-m.q[i])/float64(m.pos[i+s]-m.pos[i])
}

// value returns the current median estimate: exact below five
// observations (matching stats.Median), the center marker after.
func (m *p2Median) value() float64 {
	if m.n == 0 {
		return 0
	}
	if m.n < 5 {
		var buf [5]float64
		copy(buf[:], m.q[:m.n])
		s := buf[:m.n]
		sort.Float64s(s)
		mid := len(s) / 2
		if len(s)%2 == 1 {
			return s[mid]
		}
		return (s[mid-1] + s[mid]) / 2
	}
	return m.q[2]
}

// sortFive sorts the five marker heights in place (insertion sort; no
// allocation).
func sortFive(q *[5]float64) {
	for i := 1; i < 5; i++ {
		for j := i; j > 0 && q[j] < q[j-1]; j-- {
			q[j], q[j-1] = q[j-1], q[j]
		}
	}
}

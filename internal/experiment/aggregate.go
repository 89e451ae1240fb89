package experiment

import (
	"fmt"
	"math"
	"sort"

	"wsncover/internal/plotdata"
	"wsncover/internal/stats"
)

// Metric indexes a Sample's values: one of the per-trial measurements
// the paper's figures are built from. Its String is the measurement's
// name in manifest points, cell lines and cmd/sweep's -metrics list.
type Metric int

const (
	Initiated   Metric = iota // replacement processes started
	Moves                     // node movements
	Distance                  // total moving distance
	Messages                  // control messages sent
	SuccessRate               // converged processes, percent of those initiated
	Recovered                 // 1 when the trial ended with complete coverage, else 0
	Rounds                    // rounds the trial ran
	HolesBefore               // holes the initial damage left
	HolesAfter                // holes at the trial's end
	numMetrics
)

var metricNames = [numMetrics]string{
	"initiated", "moves", "distance", "messages", "success_rate",
	"recovered", "rounds", "holes_before", "holes_after",
}

func (m Metric) String() string { return metricNames[m] }

// Sample is one replicate's measurements at one sweep point. Group names
// the curve the point belongs to (typically scheme + configuration), X
// is the abscissa (typically the spare count N), and Values holds every
// metric observed in this replicate, indexed by Metric. Converged and
// Failed are the replicate's exact process counts, which no aggregated
// point holds; sweeps that need exact sums (sim.RunSweep) read them. A
// Sample holds no pointer but its group name, so producing and folding
// one allocates nothing.
type Sample struct {
	Group             string
	X                 float64
	Values            [numMetrics]float64
	Converged, Failed int
}

// Point is the aggregate of every replicate that shares one (Group, X)
// cell: each metric summarized by stats.Describe (mean, CI95, order
// statistics).
type Point struct {
	Group   string                       `json:"group"`
	X       float64                      `json:"x"`
	Metrics map[string]stats.Description `json:"metrics"`
}

// SortPoints sorts points into the canonical manifest order: by group,
// then by X.
func SortPoints(pts []Point) {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Group != pts[j].Group {
			return pts[i].Group < pts[j].Group
		}
		return pts[i].X < pts[j].X
	})
}

// Aggregate groups samples by (Group, X) and computes the descriptive
// statistics of every metric across the group's replicates. Points come
// back sorted by group then X, and metric values are accumulated in
// sample order, so equal inputs aggregate to bit-identical outputs.
func Aggregate(samples []Sample) []Point {
	type cell struct {
		group  string
		x      float64
		values [numMetrics][]float64
	}
	type key struct {
		group string
		x     float64
	}
	cells := make(map[key]*cell)
	order := make([]key, 0)
	for _, s := range samples {
		k := key{s.Group, s.X}
		c, ok := cells[k]
		if !ok {
			c = &cell{group: s.Group, x: s.X}
			cells[k] = c
			order = append(order, k)
		}
		for m, v := range s.Values {
			c.values[m] = append(c.values[m], v)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].group != order[j].group {
			return order[i].group < order[j].group
		}
		return order[i].x < order[j].x
	})
	out := make([]Point, 0, len(order))
	for _, k := range order {
		c := cells[k]
		metrics := make(map[string]stats.Description, numMetrics)
		for m, xs := range c.values {
			metrics[Metric(m).String()] = stats.Describe(xs)
		}
		out = append(out, Point{Group: c.group, X: c.x, Metrics: metrics})
	}
	return out
}

// Table assembles one metric of an aggregated point set into a plotdata
// table: the shared X axis is the sorted union of every point's X, and
// each group becomes one series of metric means. Cells a group never
// visited are NaN so sparse sweeps still export.
func Table(points []Point, metric, title, xlabel, ylabel string) (*plotdata.Table, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("experiment: no points to tabulate")
	}
	xSet := make(map[float64]bool)
	groupOrder := make([]string, 0)
	seenGroup := make(map[string]bool)
	for _, p := range points {
		xSet[p.X] = true
		if !seenGroup[p.Group] {
			seenGroup[p.Group] = true
			groupOrder = append(groupOrder, p.Group)
		}
	}
	xs := make([]float64, 0, len(xSet))
	for x := range xSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	xIndex := make(map[float64]int, len(xs))
	for i, x := range xs {
		xIndex[x] = i
	}
	series := make([]plotdata.Series, 0, len(groupOrder))
	byGroup := make(map[string][]float64, len(groupOrder))
	for _, g := range groupOrder {
		ys := make([]float64, len(xs))
		for i := range ys {
			ys[i] = math.NaN()
		}
		byGroup[g] = ys
	}
	found := false
	for _, p := range points {
		d, ok := p.Metrics[metric]
		if !ok {
			continue
		}
		found = true
		byGroup[p.Group][xIndex[p.X]] = d.Mean
	}
	if !found {
		return nil, fmt.Errorf("experiment: metric %q absent from all points", metric)
	}
	for _, g := range groupOrder {
		series = append(series, plotdata.Series{Label: g, Y: byGroup[g]})
	}
	return plotdata.NewTable(title, xlabel, ylabel, xs, series...)
}

// MetricNames returns the sorted union of metric names across points.
func MetricNames(points []Point) []string {
	seen := make(map[string]bool)
	for _, p := range points {
		for name := range p.Metrics {
			seen[name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

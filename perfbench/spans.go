package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one trial (or one
// service request) share a trial id; Parent is the index of the
// enclosing span in the recorder, -1 for a root.
type span struct {
	Name   string        `json:"name"`
	Trial  int           `json:"trial"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out only when the
// run ends. A nil recorder records nothing, so one code path serves the
// traced and the untraced run.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int // indices of the spans not yet ended, innermost last
	trial int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// beginTrial opens a root span under a fresh trial id.
func (r *recorder) beginTrial(name string) int {
	if r == nil {
		return -1
	}
	r.trial++
	return r.begin(name)
}

// begin opens a span as a child of the innermost open span and returns
// its index.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Trial: r.trial, Parent: parent, Start: time.Since(r.epoch)})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = time.Since(r.epoch)
	r.open = r.open[:len(r.open)-1]
}

// do runs fn inside a span.
func (r *recorder) do(name string, fn func() error) error {
	id := r.begin(name)
	err := fn()
	r.end(id)
	return err
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval covered by its direct children. Overlapping children
// count once, and a child is clipped to its parent's interval.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start - covered(spans, kids[i], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of the kids' intervals
// clipped to [lo, hi].
func covered(spans []span, kids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	for i := 0; i < len(ivs); {
		a, b := ivs[i].a, ivs[i].b
		for i++; i < len(ivs) && ivs[i].a <= b; i++ {
			b = max(b, ivs[i].b)
		}
		total += b - a
	}
	return total
}

// layerStat is one span name's totals over a range of trials.
type layerStat struct {
	self   time.Duration
	trials int // distinct trials with at least one such span
}

// perTrialUS is the layer's self time per trial that called it, in µs.
func (l layerStat) perTrialUS() float64 {
	if l.trials == 0 {
		return 0
	}
	return float64(l.self) / float64(time.Microsecond) / float64(l.trials)
}

// layers sums self time by span name over the spans of trials in
// [first, last].
func layers(spans []span, self []time.Duration, first, last int) map[string]layerStat {
	out := make(map[string]layerStat)
	seen := make(map[string]int) // name -> last trial counted
	for i, s := range spans {
		if s.Trial < first || s.Trial > last {
			continue
		}
		l := out[s.Name]
		l.self += self[i]
		if seen[s.Name] != s.Trial {
			seen[s.Name] = s.Trial
			l.trials++
		}
		out[s.Name] = l
	}
	return out
}

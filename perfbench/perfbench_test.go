package main

import (
	"testing"
	"time"
)

func TestPercentileSampleCountRule(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // unsorted input: 40, 39, ..., 1
	}
	for _, c := range []struct {
		p    float64
		want float64
		ok   bool
	}{
		{0.50, 20, true},  // rank 20, 20 samples beyond
		{0.75, 30, true},  // rank 30, exactly 10 beyond
		{0.76, 31, false}, // rank 31, only 9 beyond
		{0.95, 38, false},
	} {
		got, ok := percentile(xs, c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..40, %g) = %g, %v; want %g, %v", c.p, got, ok, c.want, c.ok)
		}
	}
	if xs[0] != 40 {
		t.Errorf("percentile reordered its input")
	}
	// p95 needs 200 samples: rank 190 leaves exactly 10 beyond.
	big := make([]float64, 200)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got, ok := percentile(big, 0.95); got != 190 || !ok {
		t.Errorf("percentile(1..200, 0.95) = %g, %v; want 190, true", got, ok)
	}
	if got, ok := percentile(big[:199], 0.95); got != 190 || ok {
		t.Errorf("percentile(1..199, 0.95) = %g, %v; want 190, false", got, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Errorf("percentile of no samples is reportable")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median() = %g", got)
	}
}

// ns builds a span from nanosecond offsets.
func ns(name string, trial, parent int, start, end int) span {
	return span{Name: name, Trial: trial, Parent: parent, Start: time.Duration(start), End: time.Duration(end)}
}

func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		ns("trial", 1, -1, 0, 100),   // 0: children cover [10,60] and [90,100]
		ns("step", 1, 0, 10, 40),     // 1: child covers [20,30]
		ns("apply", 1, 1, 20, 30),    // 2: leaf
		ns("step", 1, 0, 30, 60),     // 3: overlaps span 1, counted once
		ns("summary", 1, 0, 90, 120), // 4: runs past its parent; clipped there
	}
	want := []time.Duration{100 - 50 - 10, 30 - 10, 10, 30, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestLayersPerTrial(t *testing.T) {
	spans := []span{
		ns("trial", 1, -1, 0, 100),
		ns("step", 1, 0, 0, 10),
		ns("step", 1, 0, 10, 30),
		ns("trial", 2, -1, 100, 200),
		ns("step", 2, 3, 100, 160),
		ns("trial", 3, -1, 200, 300), // outside the range below
		ns("step", 3, 5, 200, 300),
	}
	l := layers(spans, selfTimes(spans), 1, 2)
	step := l["step"]
	if step.self != 90 || step.trials != 2 {
		t.Fatalf("step = %+v, want self 90 in 2 trials", step)
	}
	if got := step.perTrialUS(); got != 0.045 {
		t.Errorf("step per trial = %g µs, want 0.045", got)
	}
	if tr := l["trial"]; tr.self != 200-90 || tr.trials != 2 {
		t.Errorf("trial = %+v, want self 110 in 2 trials", tr)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	root := r.beginTrial("trial")
	inner := r.begin("step")
	r.do("apply", func() error { return nil })
	r.end(inner)
	r.end(root)
	r.beginTrial("trial")
	if got := []int{r.spans[1].Parent, r.spans[2].Parent, r.spans[3].Parent}; got[0] != 0 || got[1] != 1 || got[2] != -1 {
		t.Errorf("parents = %v, want [0 1 -1]", got)
	}
	if r.spans[2].Trial != 1 || r.spans[3].Trial != 2 {
		t.Errorf("trial ids = %d, %d; want 1, 2", r.spans[2].Trial, r.spans[3].Trial)
	}
	var nilRec *recorder
	called := false
	nilRec.end(nilRec.beginTrial("trial"))
	nilRec.do("apply", func() error { called = true; return nil })
	if !called {
		t.Errorf("a nil recorder must still run the call")
	}
}

func TestTallyFailedFrac(t *testing.T) {
	var tl tally
	if tl.failedFrac() != 0 {
		t.Errorf("empty tally failed_frac = %g", tl.failedFrac())
	}
	for _, ok := range []bool{true, false, true, true} {
		tl.record(ok)
	}
	if tl.attempted != 4 || tl.failed != 1 || tl.failedFrac() != 0.25 {
		t.Errorf("tally = %+v (failed_frac %g), want 1 of 4", tl, tl.failedFrac())
	}
}

func TestProbeAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(5, func() { hostSpeed() }); n > 1 {
		t.Errorf("hostSpeed allocates %g times per reading, want at most 1 (its sample slice)", n)
	}
}

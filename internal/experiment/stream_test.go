package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wsncover/internal/stats"
)

func TestRunStreamDeliversInOrder(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		var got []int
		err := RunStream(context.Background(), 200, Options{Workers: workers},
			func(_ context.Context, _, i int) (int, error) { return i * 3, nil },
			func(i, res int) error {
				if res != i*3 {
					t.Fatalf("sink(%d) = %d, want %d", i, res, i*3)
				}
				got = append(got, i)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 200 {
			t.Fatalf("workers=%d: sink saw %d results", workers, len(got))
		}
		if !sort.IntsAreSorted(got) {
			t.Fatalf("workers=%d: sink order not increasing: %v", workers, got)
		}
	}
}

func TestRunStreamJobErrorStopsPrefix(t *testing.T) {
	boom := errors.New("boom")
	var delivered []int
	err := RunStream(context.Background(), 64, Options{Workers: 8},
		func(_ context.Context, _, i int) (int, error) {
			if i == 10 {
				return 0, boom
			}
			return i, nil
		},
		func(i, _ int) error {
			delivered = append(delivered, i)
			return nil
		})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "job 10") {
		t.Fatalf("err = %v", err)
	}
	for _, i := range delivered {
		if i >= 10 {
			t.Fatalf("sink received job %d past the failure", i)
		}
	}
}

func TestRunStreamSinkErrorStopsRun(t *testing.T) {
	sinkErr := errors.New("sink full")
	err := RunStream(context.Background(), 64, Options{Workers: 8},
		func(_ context.Context, _, i int) (int, error) { return i, nil },
		func(i, _ int) error {
			if i == 5 {
				return sinkErr
			}
			return nil
		})
	if !errors.Is(err, sinkErr) || !strings.Contains(err.Error(), "sink at job 5") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunStreamEdgeCases(t *testing.T) {
	noop := func(int, int) error { return nil }
	job := func(_ context.Context, _, i int) (int, error) { return i, nil }
	if err := RunStream(context.Background(), 0, Options{}, job, noop); err != nil {
		t.Errorf("empty stream: %v", err)
	}
	if err := RunStream(context.Background(), -1, Options{}, job, noop); err == nil {
		t.Error("negative total should fail")
	}
	if err := RunStream[int](context.Background(), 3, Options{}, nil, noop); err == nil {
		t.Error("nil fn should fail")
	}
	if err := RunStream(context.Background(), 3, Options{}, job, nil); err == nil {
		t.Error("nil sink should fail")
	}
}

// TestRunStreamBackpressureBoundsSpread pins the O(workers) memory
// contract: while job 0 is stuck, no worker may start a job outside the
// flush window, no matter how many fast jobs the pool could otherwise
// race through.
func TestRunStreamBackpressureBoundsSpread(t *testing.T) {
	const workers = 4
	const window = 32 * workers // mirrors RunStream's window sizing
	release := make(chan struct{})
	var released atomic.Bool
	var maxEarly atomic.Int64
	go func() {
		time.Sleep(100 * time.Millisecond)
		released.Store(true)
		close(release)
	}()
	err := RunStream(context.Background(), 5000, Options{Workers: workers},
		func(_ context.Context, _, i int) (int, error) {
			if i == 0 {
				<-release
				return 0, nil
			}
			if !released.Load() {
				for {
					cur := maxEarly.Load()
					if int64(i) <= cur || maxEarly.CompareAndSwap(cur, int64(i)) {
						break
					}
				}
			}
			return i, nil
		},
		func(int, int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if got := maxEarly.Load(); got >= window {
		t.Errorf("job %d started while job 0 held the flush point (window %d)", got, window)
	}
}

// TestRunStreamAccumulatorRace feeds a streaming Accumulator from a
// heavily parallel run; under -race this proves the serialized-sink
// contract makes unlocked accumulation safe, and the fold must be
// bit-identical to a single-worker run.
func TestRunStreamAccumulatorRace(t *testing.T) {
	build := func(workers int) []Point {
		acc := NewAccumulator()
		err := RunStream(context.Background(), 400, Options{Workers: workers},
			func(_ context.Context, _, i int) (Sample, error) {
				return sample([]string{"a", "b", "c"}[i%3], float64(i%5), map[Metric]float64{
					Moves:    math.Sqrt(float64(i + 1)),
					Distance: float64(i) / 7,
				}), nil
			},
			func(_ int, s Sample) error { acc.Add(s); return nil })
		if err != nil {
			t.Fatal(err)
		}
		return acc.Points()
	}
	ref := build(1)
	for _, workers := range []int{4, 16} {
		if got := build(workers); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: streaming fold diverged", workers)
		}
	}
}

// TestAccumulatorMatchesAggregate checks the streaming fold against the
// batch reference on the shared fixture: exact agreement on N, min, max,
// and order; float agreement on mean/stddev/CI; exact medians at n <= 5.
func TestAccumulatorMatchesAggregate(t *testing.T) {
	samples := sampleFixture() // 4 replicates per cell: medians exact
	batch := Aggregate(samples)
	acc := NewAccumulator()
	for _, s := range samples {
		acc.Add(s)
	}
	stream := acc.Points()
	if len(stream) != len(batch) {
		t.Fatalf("points = %d, want %d", len(stream), len(batch))
	}
	for i := range batch {
		b, s := batch[i], stream[i]
		if b.Group != s.Group || b.X != s.X {
			t.Fatalf("point %d: (%s, %g) vs (%s, %g)", i, b.Group, b.X, s.Group, s.X)
		}
		for name, bd := range b.Metrics {
			sd, ok := s.Metrics[name]
			if !ok {
				t.Fatalf("point %d missing metric %s", i, name)
			}
			if bd.N != sd.N || bd.Min != sd.Min || bd.Max != sd.Max {
				t.Errorf("%s/%g %s: exact fields differ: %+v vs %+v", b.Group, b.X, name, bd, sd)
			}
			if math.Abs(bd.Mean-sd.Mean) > 1e-12*math.Max(1, math.Abs(bd.Mean)) {
				t.Errorf("%s/%g %s: mean %v vs %v", b.Group, b.X, name, bd.Mean, sd.Mean)
			}
			if math.Abs(bd.StdDev-sd.StdDev) > 1e-9 {
				t.Errorf("%s/%g %s: stddev %v vs %v", b.Group, b.X, name, bd.StdDev, sd.StdDev)
			}
			if bd.Median != sd.Median { // n=4: P-squared is still exact
				t.Errorf("%s/%g %s: median %v vs %v", b.Group, b.X, name, bd.Median, sd.Median)
			}
		}
	}
}

// TestP2MedianConverges checks the estimator against the exact median on
// larger streams from several distributions.
func TestP2MedianConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dists := map[string]func() float64{
		"uniform": rng.Float64,
		"normal":  rng.NormFloat64,
		"exp":     rng.ExpFloat64,
	}
	for name, draw := range dists {
		var m p2Median
		xs := make([]float64, 0, 5000)
		for i := 0; i < 5000; i++ {
			x := draw()
			m.add(x)
			xs = append(xs, x)
		}
		exact := stats.Median(xs)
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		spread := sorted[len(sorted)*3/4-1] - sorted[len(sorted)/4-1]
		if math.Abs(m.value()-exact) > 0.05*spread {
			t.Errorf("%s: P2 median %v vs exact %v (IQR %v)", name, m.value(), exact, spread)
		}
	}
	// Exactness through five observations, both parities.
	for n := 1; n <= 5; n++ {
		var m p2Median
		xs := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			x := float64((i * 7) % 5)
			m.add(x)
			xs = append(xs, x)
		}
		if got, want := m.value(), stats.Median(xs); got != want {
			t.Errorf("n=%d: median %v, want %v", n, got, want)
		}
	}
	var empty p2Median
	if empty.value() != 0 {
		t.Error("empty median should be 0")
	}
}

// TestAccumulatorMarksEstimatedMedians: the streaming fold is exact (and
// says so) through five observations, an estimate (and says so) beyond.
func TestAccumulatorMarksEstimatedMedians(t *testing.T) {
	feed := func(n int) stats.Description {
		acc := NewAccumulator()
		for i := 0; i < n; i++ {
			acc.Add(sample("g", 1, map[Metric]float64{Moves: float64(i)}))
		}
		return acc.Points()[0].Metrics["moves"]
	}
	if d := feed(5); d.MedianApprox || d.Median != 2 {
		t.Errorf("n=5: %+v, want exact median 2", d)
	}
	if d := feed(6); !d.MedianApprox {
		t.Errorf("n=6: %+v, want MedianApprox", d)
	}
}

// TestAccumulatorEmptyAndSingle covers degenerate cells.
func TestAccumulatorEmptyAndSingle(t *testing.T) {
	acc := NewAccumulator()
	if pts := acc.Points(); len(pts) != 0 {
		t.Fatalf("empty accumulator points = %v", pts)
	}
	acc.Add(sample("g", 1, map[Metric]float64{Moves: 3}))
	pts := acc.Points()
	if len(pts) != 1 {
		t.Fatalf("points = %d", len(pts))
	}
	d := pts[0].Metrics["moves"]
	want := stats.Describe([]float64{3})
	if d != want {
		t.Errorf("single-sample description %+v, want %+v", d, want)
	}
}

func TestRunStreamManyGroupsStress(t *testing.T) {
	// A larger randomized cross-check: 2000 jobs, 12 groups, compared
	// against batch aggregation built from the same stream.
	var collected []Sample
	acc := NewAccumulator()
	err := RunStream(context.Background(), 2000, Options{Workers: 8},
		func(_ context.Context, _, i int) (Sample, error) {
			return sample(fmt.Sprintf("g%02d", i%12), float64(i%4), map[Metric]float64{
				Distance: float64((i*2654435761)%1000) / 10,
			}), nil
		},
		func(_ int, s Sample) error {
			collected = append(collected, s)
			acc.Add(s)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	batch := Aggregate(collected)
	stream := acc.Points()
	if len(batch) != len(stream) {
		t.Fatalf("points %d vs %d", len(batch), len(stream))
	}
	for i := range batch {
		b, s := batch[i], stream[i]
		bd, sd := b.Metrics["distance"], s.Metrics["distance"]
		if b.Group != s.Group || b.X != s.X || bd.N != sd.N || bd.Min != sd.Min || bd.Max != sd.Max {
			t.Fatalf("cell %s/%g mismatch: %+v vs %+v", b.Group, b.X, bd, sd)
		}
		if math.Abs(bd.Mean-sd.Mean) > 1e-9 || math.Abs(bd.StdDev-sd.StdDev) > 1e-9 {
			t.Fatalf("cell %s/%g stats drifted: %+v vs %+v", b.Group, b.X, bd, sd)
		}
	}
}

// TestRunStreamWorkersIdentity checks the worker-id contract: ids lie in
// [0, WorkerCount), each id is owned by exactly one goroutine for the
// whole run, and results are delivered in job order regardless.
func TestRunStreamWorkersIdentity(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		opts := Options{Workers: workers}
		total := 400
		n := opts.WorkerCount(total)
		// jobsPerWorker[w] is written only by worker w — the race detector
		// verifies single-goroutine ownership of each id.
		jobsPerWorker := make([]int, n)
		next := 0
		err := RunStream(context.Background(), total, opts,
			func(_ context.Context, w, i int) (int, error) {
				if w < 0 || w >= n {
					t.Errorf("worker id %d outside [0, %d)", w, n)
				}
				jobsPerWorker[w]++
				return i, nil
			},
			func(i, res int) error {
				if i != next || res != i {
					t.Fatalf("out-of-order delivery: got (%d,%d), want index %d", i, res, next)
				}
				next++
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if next != total {
			t.Fatalf("delivered %d of %d", next, total)
		}
		sum := 0
		for _, c := range jobsPerWorker {
			sum += c
		}
		if sum != total {
			t.Fatalf("worker job counts sum to %d, want %d", sum, total)
		}
	}
}

package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"wsncover/internal/randx"
)

// simulatedJob does seed-dependent pseudo-work, standing in for a trial.
func simulatedJob(seed int64) float64 {
	rng := randx.New(seed)
	s := 0.0
	for i := 0; i < 100; i++ {
		s += rng.Float64()
	}
	return s
}

// collect runs the jobs on RunStream and gathers their results in job
// order.
func collect[T any](ctx context.Context, total int, opts Options, fn func(ctx context.Context, worker, index int) (T, error)) ([]T, error) {
	var out []T
	err := RunStream(ctx, total, opts, fn, func(_ int, res T) error {
		out = append(out, res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func runBatch(t *testing.T, workers int) []float64 {
	t.Helper()
	seeds := Seeds(42, 64)
	out, err := collect(context.Background(), len(seeds), Options{Workers: workers},
		func(_ context.Context, _, i int) (float64, error) {
			return simulatedJob(seeds[i]), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	ref := runBatch(t, 1)
	for _, workers := range []int{2, 4, 8} {
		got := runBatch(t, workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: job %d = %v, want %v (bit-identical)",
					workers, i, got[i], ref[i])
			}
		}
	}
}

func TestRunResultsInJobOrder(t *testing.T) {
	out, err := collect(context.Background(), 100, Options{Workers: 8},
		func(_ context.Context, _, i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestRunFirstErrorCancelsInFlight(t *testing.T) {
	boom := errors.New("boom")
	var cancelled atomic.Int32
	inFlight := make(chan struct{}, 1)
	_, err := collect(context.Background(), 32, Options{Workers: 4},
		func(ctx context.Context, _, i int) (int, error) {
			if i == 3 {
				// Fail only once another job is provably in flight.
				<-inFlight
				return 0, boom
			}
			// Other jobs park until the engine cancels them, proving
			// in-flight work observes the cancellation; their ctx.Err()
			// echoes must not displace the root cause.
			select {
			case inFlight <- struct{}{}:
			default:
			}
			<-ctx.Done()
			cancelled.Add(1)
			return 0, ctx.Err()
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if !strings.Contains(err.Error(), "job 3") {
		t.Errorf("err %q should name the failing job", err)
	}
	if cancelled.Load() == 0 {
		t.Error("no in-flight job observed cancellation")
	}
}

func TestRunLowestIndexErrorWins(t *testing.T) {
	// Every job fails; the reported error must be job 0's regardless of
	// which worker lost the race.
	for trial := 0; trial < 10; trial++ {
		_, err := collect(context.Background(), 16, Options{Workers: 8},
			func(_ context.Context, _, i int) (int, error) {
				return 0, fmt.Errorf("fail-%d", i)
			})
		if err == nil || !strings.Contains(err.Error(), "job 0") {
			t.Fatalf("err = %v, want job 0's error", err)
		}
	}
}

func TestRunParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, err := collect(ctx, 8, Options{Workers: 2},
			func(ctx context.Context, _, i int) (int, error) {
				if once.CompareAndSwap(false, true) {
					close(started)
				}
				<-ctx.Done()
				return 0, nil
			})
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunEdgeCases(t *testing.T) {
	out, err := collect(context.Background(), 0, Options{},
		func(_ context.Context, _, i int) (int, error) { return i, nil })
	if err != nil || len(out) != 0 {
		t.Errorf("empty batch: out=%v err=%v", out, err)
	}
	if _, err := collect(context.Background(), -1, Options{},
		func(_ context.Context, _, i int) (int, error) { return i, nil }); err == nil {
		t.Error("negative total should fail")
	}
	if _, err := collect[int](context.Background(), 3, Options{}, nil); err == nil {
		t.Error("nil fn should fail")
	}
	// More workers than jobs must still complete every job exactly once.
	out, err = collect(context.Background(), 3, Options{Workers: 64},
		func(_ context.Context, _, i int) (int, error) { return i + 1, nil })
	if err != nil || len(out) != 3 || out[0] != 1 || out[2] != 3 {
		t.Errorf("overprovisioned pool: out=%v err=%v", out, err)
	}
}

func TestSeedsDeterministicAndDistinct(t *testing.T) {
	a := Seeds(7, 100)
	b := Seeds(7, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed %d differs across derivations", i)
		}
	}
	seen := make(map[int64]int)
	for i, s := range a {
		if j, dup := seen[s]; dup {
			t.Fatalf("seeds %d and %d collide (%d)", i, j, s)
		}
		seen[s] = i
	}
	c := Seeds(8, 100)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d seeds shared between different bases", same)
	}
}

// sample is a Sample of the given metric values; the rest are zero.
func sample(group string, x float64, values map[Metric]float64) Sample {
	s := Sample{Group: group, X: x}
	for m, v := range values {
		s.Values[m] = v
	}
	return s
}

func sampleFixture() []Sample {
	var out []Sample
	for _, g := range []string{"SR", "AR"} {
		for _, x := range []float64{10, 55} {
			for rep := 0; rep < 4; rep++ {
				out = append(out, sample(g, x, map[Metric]float64{
					Moves:    x + float64(rep),
					Distance: 2*x + float64(rep),
				}))
			}
		}
	}
	return out
}

func TestAggregate(t *testing.T) {
	pts := Aggregate(sampleFixture())
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4", len(pts))
	}
	// Sorted by group then X: AR/10, AR/55, SR/10, SR/55.
	if pts[0].Group != "AR" || pts[0].X != 10 || pts[3].Group != "SR" || pts[3].X != 55 {
		t.Fatalf("point order: %+v", pts)
	}
	d := pts[0].Metrics["moves"]
	if d.N != 4 || d.Mean != 11.5 || d.Min != 10 || d.Max != 13 {
		t.Errorf("AR/10 moves = %+v", d)
	}
	if d.CI95 == 0 {
		t.Error("CI95 should be positive for 4 distinct replicates")
	}
	if got := pts[0].Metrics["distance"].Mean; got != 21.5 {
		t.Errorf("AR/10 distance mean = %v", got)
	}
	// Every point describes every metric, those a sample left zero too.
	want := []string{"distance", "holes_after", "holes_before", "initiated", "messages", "moves", "recovered", "rounds", "success_rate"}
	if got := MetricNames(pts); !slices.Equal(got, want) {
		t.Errorf("metric names = %v, want %v", got, want)
	}
	if d := pts[0].Metrics["rounds"]; d.N != 4 || d.Mean != 0 || d.Max != 0 {
		t.Errorf("AR/10 rounds = %+v, want four zeros", d)
	}
}

func TestTable(t *testing.T) {
	pts := Aggregate(sampleFixture())
	tb, err := Table(pts, "moves", "title", "N", "moves")
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.X) != 2 || tb.X[0] != 10 || tb.X[1] != 55 {
		t.Fatalf("x axis = %v", tb.X)
	}
	if len(tb.Series) != 2 || tb.Series[0].Label != "AR" || tb.Series[1].Label != "SR" {
		t.Fatalf("series = %+v", tb.Series)
	}
	if tb.Series[0].Y[0] != 11.5 || tb.Series[1].Y[1] != 56.5 {
		t.Errorf("series values = %+v", tb.Series)
	}
	if _, err := Table(pts, "nope", "t", "x", "y"); err == nil {
		t.Error("unknown metric should fail")
	}
	if _, err := Table(nil, "moves", "t", "x", "y"); err == nil {
		t.Error("empty points should fail")
	}
	// A group missing one X cell yields NaN, not a length error.
	sparse := append(sampleFixture(), sample("SRS", 55, map[Metric]float64{Moves: 1}))
	tb, err = Table(Aggregate(sparse), "moves", "t", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	var srs *[]float64
	for i := range tb.Series {
		if tb.Series[i].Label == "SRS" {
			srs = &tb.Series[i].Y
		}
	}
	if srs == nil || !math.IsNaN((*srs)[0]) || (*srs)[1] != 1 {
		t.Errorf("sparse series = %v", srs)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	pts := Aggregate(sampleFixture())
	spec := map[string]any{"schemes": []string{"SR", "AR"}, "replicates": 4}
	m, err := NewManifest("unit", spec, 16, 4, pts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "unit" || back.Jobs != 16 || back.Workers != 4 || len(back.Points) != 4 {
		t.Errorf("round trip = %+v", back)
	}
	if back.Points[0].Metrics["moves"].Mean != 11.5 {
		t.Errorf("metrics lost: %+v", back.Points[0])
	}

	dir := t.TempDir()
	path, err := m.Save(dir)
	if err != nil {
		t.Fatal(err)
	}
	if path != filepath.Join(dir, "unit.json") {
		t.Errorf("path = %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, buf.Bytes()) {
		t.Error("saved manifest differs from written manifest")
	}
}

// TestWriteFileAtomic: Manifest.WriteAtomic replaces the file with the
// manifest's bytes in mode 0644, and a failed rename (the target is a
// directory) reports the error and leaves no temp file behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.json")
	for _, name := range []string{"first", "second"} {
		m := &Manifest{Name: name, Jobs: 1}
		if err := m.WriteAtomic(path); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := m.Write(&want); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("read back %q, %v; want %q", got, err, want.Bytes())
		}
	}
	if info, err := os.Stat(path); err != nil || info.Mode().Perm() != 0o644 {
		t.Fatalf("mode = %v, %v; want 0644", info.Mode().Perm(), err)
	}
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := (&Manifest{Name: "x"}).WriteAtomic(blocked); err == nil {
		t.Fatal("renaming over a non-empty directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("failed write left temp file %s", e.Name())
		}
	}
}

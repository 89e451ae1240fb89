package randx

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"wsncover/internal/geom"
)

// edgeSeeds covers math/rand's seed normalisation: zero and its
// replacement value, the modulus 2^31-1 and its multiples (which
// normalise to zero), values just around it, and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, 89482311, -89482311,
	lehmerM, -lehmerM, lehmerM - 1, lehmerM + 1, -(lehmerM - 1), -(lehmerM + 1),
	2 * lehmerM, -2 * lehmerM, lehmerM * lehmerM, -lehmerM * 1000003,
	1 << 31, -(1 << 31), 1 << 62,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
}

// refSplit is Rand.Split restated over a bare math/rand stream.
func refSplit(r *rand.Rand, label int64) *rand.Rand {
	const golden = int64(0x9E3779B97F4A7C15 & 0x7FFFFFFFFFFFFFFF)
	return rand.New(rand.NewSource(r.Int63() ^ (label * golden)))
}

// diffMathRand drives got and want through every Rand method, each
// checked against the math/rand calls it is defined by, and returns the
// first divergence, or nil. Both streams must start in the same state.
func diffMathRand(got *Rand, want *rand.Rand) error {
	// Two passes over the 607-word register, so the lag wraps twice.
	for i := 0; i < 2*rngLen+5; i++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			return fmt.Errorf("Int63 #%d: %d, want %d", i, g, w)
		}
	}
	// Past 2^31-1, Intn takes math/rand's Int63n path.
	for _, n := range []int{1, 2, 7, 1000, 1<<31 - 1, 1 << 31, 1<<40 + 3, math.MaxInt64} {
		if g, w := got.Intn(n), want.Intn(n); g != w {
			return fmt.Errorf("Intn(%d): %d, want %d", n, g, w)
		}
	}
	for i := 0; i < 8; i++ {
		if g, w := got.Float64(), want.Float64(); g != w {
			return fmt.Errorf("Float64 #%d: %v, want %v", i, g, w)
		}
		if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
			return fmt.Errorf("NormFloat64 #%d: %v, want %v", i, g, w)
		}
		if g, w := got.Bool(0.3), want.Float64() < 0.3; g != w {
			return fmt.Errorf("Bool #%d: %v, want %v", i, g, w)
		}
	}
	if g, w := got.Perm(20), want.Perm(20); !slices.Equal(g, w) {
		return fmt.Errorf("Perm: %v, want %v", g, w)
	}
	if g, w := got.PermInto(make([]int, 3), 25), want.Perm(25); !slices.Equal(g, w) {
		return fmt.Errorf("PermInto: %v, want %v", g, w)
	}
	if g, w := got.PermPrefixInto(nil, 50, 7), want.Perm(50)[:7]; !slices.Equal(g, w) {
		return fmt.Errorf("PermPrefixInto: %v, want %v", g, w)
	}
	gs, ws := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	got.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
	want.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	if !slices.Equal(gs, ws) {
		return fmt.Errorf("Shuffle: %v, want %v", gs, ws)
	}
	rect := geom.RectFromSize(geom.Pt(-3, 2), 40, 7)
	wp := geom.Point{X: rect.Min.X + want.Float64()*rect.Width()}
	wp.Y = rect.Min.Y + want.Float64()*rect.Height()
	if g := got.InRect(rect); g != wp {
		return fmt.Errorf("InRect: %v, want %v", g, wp)
	}
	if g, w := got.Sample(30, 5), want.Perm(30)[:5]; !slices.Equal(g, w) {
		return fmt.Errorf("Sample(30, 5): %v, want %v", g, w)
	}
	if g, w := got.Sample(3, 10), want.Perm(3); !slices.Equal(g, w) {
		return fmt.Errorf("Sample(3, 10): %v, want %v", g, w)
	}
	if g := got.Pick(0); g != -1 {
		return fmt.Errorf("Pick(0): %d, want -1", g)
	}
	if g, w := got.Pick(9), want.Intn(9); g != w {
		return fmt.Errorf("Pick(9): %d, want %d", g, w)
	}
	// Chained splits, then the parents carry on where the splits left them.
	gc, wc := got.Split(3).Split(-7), refSplit(refSplit(want, 3), -7)
	for i := 0; i < 4; i++ {
		if g, w := gc.Int63(), wc.Int63(); g != w {
			return fmt.Errorf("Split(3).Split(-7) Int63 #%d: %d, want %d", i, g, w)
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			return fmt.Errorf("Int63 #%d after Split: %d, want %d", i, g, w)
		}
	}
	return nil
}

// checkSeed compares a fresh stream, and a stream reused from a Streams
// set that has already served other seeds, against math/rand.
func checkSeed(t *testing.T, seed int64) {
	t.Helper()
	if err := diffMathRand(New(seed), rand.New(rand.NewSource(seed))); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	var set Streams
	if err := diffMathRand(set.New(seed^1), rand.New(rand.NewSource(seed^1))); err != nil {
		t.Fatalf("seed %d, first use of a set: %v", seed^1, err)
	}
	set.Reset()
	if err := diffMathRand(set.New(seed), rand.New(rand.NewSource(seed))); err != nil {
		t.Fatalf("seed %d, stream reused after Reset: %v", seed, err)
	}
}

func TestSourceMatchesMathRandEdgeSeeds(t *testing.T) {
	for _, seed := range edgeSeeds {
		checkSeed(t, seed)
	}
}

func TestSourceMatchesMathRandRandomSeeds(t *testing.T) {
	seeds := rand.New(rand.NewSource(20081015))
	n := 1000
	if testing.Short() {
		n = 100
	}
	for i := 0; i < n; i++ {
		seed := int64(seeds.Uint64())
		checkSeed(t, seed)
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkSeed(t, seed) })
}

// TestStreamsReuseMatchesFresh runs a set through several rounds of
// Reset, with Split trees and Released children of varying shape, and
// requires every handed-out stream to draw what a fresh stream of the
// same seed draws.
func TestStreamsReuseMatchesFresh(t *testing.T) {
	var set Streams
	for round := int64(0); round < 5; round++ {
		set.Reset()
		seed := 1000*round - 3
		root, ref := set.New(seed), New(seed)
		children := make([]*Rand, 0, 8)
		for label := int64(1); label <= 2+round; label++ {
			c, rc := root.Split(label), ref.Split(label)
			if c.set != &set {
				t.Fatalf("round %d: Split of a set stream left the set", round)
			}
			children = append(children, c)
			if err := sameDraws(c, rc, 50); err != nil {
				t.Fatalf("round %d, child %d: %v", round, label, err)
			}
		}
		// Released per-event children reuse one slot and still match.
		used := set.used
		for label := int64(0); label < 10; label++ {
			c, rc := root.Split(label), ref.Split(label)
			if err := sameDraws(c, rc, 20); err != nil {
				t.Fatalf("round %d, released child %d: %v", round, label, err)
			}
			c.Release()
			if set.used != used {
				t.Fatalf("round %d: Release left %d streams out, want %d", round, set.used, used)
			}
		}
		for i, c := range children {
			if c.set != &set || c.idx >= set.used {
				t.Fatalf("round %d: child %d released by a later stream's Release", round, i)
			}
		}
		if err := sameDraws(root, ref, 50); err != nil {
			t.Fatalf("round %d, root: %v", round, err)
		}
	}
	if len(set.list) != 8 {
		t.Errorf("set grew to %d streams, want 8 (the largest round: root, 6 children, one event slot)", len(set.list))
	}
}

func sameDraws(got, want *Rand, n int) error {
	for i := 0; i < n; i++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			return fmt.Errorf("Int63 #%d: %d, want %d", i, g, w)
		}
	}
	return nil
}

func TestStreamsReseedAllocatesNothing(t *testing.T) {
	var set Streams
	run := func() {
		set.Reset()
		root := set.New(42)
		for label := int64(1); label <= 5; label++ {
			root.Split(label)
		}
		root.Split(6).Release()
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("warm Streams reseed allocates %.1f times", allocs)
	}
}

func TestReleaseOnFreshStreamIsNoOp(t *testing.T) {
	a, b := New(5), New(5)
	a.Split(1).Release()
	b.Split(1)
	a.Release()
	if err := sameDraws(a, b, 10); err != nil {
		t.Error(err)
	}
}

func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(int64(i))
	}
}

func BenchmarkSplit(b *testing.B) {
	b.ReportAllocs()
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Split(int64(i))
	}
}

// BenchmarkStreamsReseed is a trial's stream set-up on a warm set: a
// root and the five Split children a lossy trial takes.
func BenchmarkStreamsReseed(b *testing.B) {
	b.ReportAllocs()
	var set Streams
	for i := 0; i < b.N; i++ {
		set.Reset()
		root := set.New(int64(i))
		for label := int64(1); label <= 5; label++ {
			root.Split(label)
		}
	}
}

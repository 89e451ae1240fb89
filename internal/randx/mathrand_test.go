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

// rejectionNs are Intn bounds where Int31n's rejection loop runs often
// (2^30+1 rejects almost half its draws) or its masks and thresholds
// sit at an edge: around powers of two and around 2^31-1, the largest n
// on the Int31n path.
var rejectionNs = []int64{
	1, 2, 3, 1<<16 - 1, 1 << 16, 1<<16 + 1, 1<<30 - 1, 1 << 30, 1<<30 + 1,
	3 << 29, 1<<31 - 3, 1<<31 - 2, 1<<31 - 1, 1 << 31,
}

// checkDraws reseeds a stream after it has drawn k values of another
// seed, so the reseed lands at any cursor, then compares k more draws
// and rounds of Intn(n), Float64 and Int63 with math/rand.
func checkDraws(t *testing.T, seed int64, k int, n int) {
	t.Helper()
	var set Streams
	got := set.New(^seed)
	for i := 0; i < k; i++ {
		got.Int63()
	}
	set.Reset()
	got = set.New(seed)
	want := rand.New(rand.NewSource(seed))
	for i := 0; i < k; i++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d, k %d: Int63 #%d: %d, want %d", seed, k, i, g, w)
		}
	}
	for i := 0; i < 4; i++ {
		if g, w := got.Intn(n), want.Intn(n); g != w {
			t.Fatalf("seed %d, k %d: Intn(%d) #%d: %d, want %d", seed, k, n, i, g, w)
		}
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("seed %d, k %d: Float64 #%d: %v, want %v", seed, k, i, g, w)
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d, k %d: Int63 #%d after Intn: %d, want %d", seed, k, i, g, w)
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for i, seed := range edgeSeeds {
		f.Add(seed, uint16(i*53), rejectionNs[i%len(rejectionNs)])
	}
	for i, n := range rejectionNs {
		f.Add(int64(i), uint16(rngFeed+i), n)
	}
	f.Fuzz(func(t *testing.T, seed int64, k uint16, n int64) {
		if n <= 0 || int64(int(n)) != n {
			t.Skip("Intn needs a positive int")
		}
		checkSeed(t, seed)
		checkDraws(t, seed, int(k)%(3*rngLen), int(n))
	})
}

// TestReseedAtEveryCursor reseeds a stream after every draw count from
// 0 through two laps and then some, so the reseed lands inside and at
// the end of every block, at both lap wraps, and on each side of the
// first lap's seeding frontier, and then compares 700 draws (past the
// frontier) with math/rand on every edge seed.
func TestReseedAtEveryCursor(t *testing.T) {
	const draws = 700
	for _, seed := range edgeSeeds {
		ref := rand.New(rand.NewSource(seed))
		want := make([]int64, draws)
		for i := range want {
			want[i] = ref.Int63()
		}
		var set Streams
		for k := 0; k <= 2*rngLen+40; k++ {
			set.Reset()
			r := set.New(^seed)
			for i := 0; i < k; i++ {
				r.Int63()
			}
			set.Reset()
			r = set.New(seed)
			for i, w := range want {
				if g := r.Int63(); g != w {
					t.Fatalf("seed %d, reseeded after %d draws: Int63 #%d: %d, want %d", seed, k, i, g, w)
				}
			}
		}
	}
}

// TestIntnMatchesMathRandNearRejection runs Intn where Int31n's
// rejection loop runs, and around its masks and thresholds.
func TestIntnMatchesMathRandNearRejection(t *testing.T) {
	for _, n := range rejectionNs {
		got, want := New(int64(n)), rand.New(rand.NewSource(int64(n)))
		for i := 0; i < 2000; i++ {
			if g, w := got.Intn(int(n)), want.Intn(int(n)); g != w {
				t.Fatalf("Intn(%d) #%d: %d, want %d", n, i, g, w)
			}
		}
	}
}

// TestFloat64RedrawsOne plants the one Int63 that rounds to 1.0 as the
// next output and requires Float64 to skip it, as math/rand's does.
func TestFloat64RedrawsOne(t *testing.T) {
	r := New(3)
	r.Int63() // computes a block
	r.rng.vec[r.rng.next-1] = math.MaxInt64
	ref := r.rng
	if ref.Int63() != math.MaxInt64 {
		t.Fatal("the planted output is not next")
	}
	want := float64(ref.Int63()) / (1 << 63)
	if g := r.Float64(); g != want {
		t.Fatalf("Float64 = %v, want %v (the draw after the one that rounds to 1)", g, want)
	}
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

// TestStreamsReseedMidBlock reseeds a set's stream that stopped a few
// draws into a block, and one that stopped during its first lap's
// seeding, and requires each to draw what a fresh stream draws.
func TestStreamsReseedMidBlock(t *testing.T) {
	var set Streams
	for _, k := range []int{3, rngBlock + 5, rngFeed - 2, rngFeed + 7} {
		set.Reset()
		r := set.New(int64(k))
		for i := 0; i < k; i++ {
			r.Int63()
		}
		if r.rng.next == r.rng.lo {
			t.Fatalf("%d draws ended a block; the case wants a stream inside one", k)
		}
		set.Reset()
		if err := sameDraws(set.New(77), New(77), 2*rngLen); err != nil {
			t.Fatalf("reseeded after %d draws: %v", k, err)
		}
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

// BenchmarkStreamDraws seeds a source and draws k values from it, the
// cost of a stream that reads k words before its next reseed.
func BenchmarkStreamDraws(b *testing.B) {
	for _, k := range []int{0, 4, 256, 1000} {
		b.Run(fmt.Sprint(k), func(b *testing.B) {
			var s source
			var sink uint64
			for i := 0; i < b.N; i++ {
				s.Seed(int64(i))
				for j := 0; j < k; j++ {
					sink ^= s.Uint64()
				}
			}
			benchSink = sink
		})
	}
}

var benchSink uint64

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

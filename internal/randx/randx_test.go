package randx

import (
	"math"
	"testing"

	"wsncover/internal/geom"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := New(43)
	same := true
	a2 := New(42)
	for i := 0; i < 10; i++ {
		if a2.Int63() != c.Int63() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should diverge")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	equal := 0
	for i := 0; i < 50; i++ {
		if c1.Int63() == c2.Int63() {
			equal++
		}
	}
	if equal > 2 {
		t.Errorf("%d/50 collisions between split streams", equal)
	}
}

func TestSplitReproducible(t *testing.T) {
	a := New(7).Split(3)
	b := New(7).Split(3)
	for i := 0; i < 20; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same parent+label must give same child stream")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(2)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("only %d/7 values seen", len(seen))
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(3)
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.03 {
		t.Errorf("Bool(0.3) frequency = %v", p)
	}
	if r.Bool(0) {
		t.Error("Bool(0) should never hit")
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(4)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("bad permutation %v", p)
		}
		seen[v] = true
	}
}

func TestInRect(t *testing.T) {
	r := New(5)
	rect := geom.RectFromSize(geom.Pt(2, 3), 4, 5)
	for i := 0; i < 500; i++ {
		p := r.InRect(rect)
		if p.X < rect.Min.X || p.X >= rect.Max.X || p.Y < rect.Min.Y || p.Y >= rect.Max.Y {
			t.Fatalf("InRect point %v outside %v", p, rect)
		}
	}
}

func TestInRectCoversArea(t *testing.T) {
	// Quadrant counts should be roughly balanced.
	r := New(6)
	rect := geom.RectFromSize(geom.Pt(0, 0), 2, 2)
	var q [4]int
	const n = 4000
	for i := 0; i < n; i++ {
		p := r.InRect(rect)
		idx := 0
		if p.X >= 1 {
			idx++
		}
		if p.Y >= 1 {
			idx += 2
		}
		q[idx]++
	}
	for i, c := range q {
		if c < n/4-300 || c > n/4+300 {
			t.Errorf("quadrant %d count = %d, expected ~%d", i, c, n/4)
		}
	}
}

func TestSample(t *testing.T) {
	r := New(8)
	s := r.Sample(10, 4)
	if len(s) != 4 {
		t.Fatalf("Sample = %v", s)
	}
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad sample %v", s)
		}
		seen[v] = true
	}
	// k >= n returns all n.
	all := r.Sample(3, 10)
	if len(all) != 3 {
		t.Errorf("Sample(3, 10) = %v", all)
	}
	// k < 0 returns an empty slice and draws nothing; k == 0 still
	// draws the n-entry permutation it always drew.
	a, b := New(9), New(9)
	if got := a.Sample(5, -1); got == nil || len(got) != 0 {
		t.Errorf("Sample(5, -1) = %#v, want an empty slice", got)
	}
	if a.Int63() != b.Int63() {
		t.Error("Sample(5, -1) drew from the stream")
	}
	a.Sample(5, 0)
	b.Perm(5)
	if a.Int63() != b.Int63() {
		t.Error("Sample(5, 0) does not draw what Perm(5) draws")
	}
}

func TestPermIntoMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		a := New(42)
		b := New(42)
		var buf []int
		got := b.PermInto(buf, n)
		want := a.Perm(n)
		if len(got) != len(want) {
			t.Fatalf("n=%d: len %d vs %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: PermInto diverges from Perm at %d: %v vs %v", n, i, got, want)
			}
		}
		// The streams must have advanced identically.
		if a.Int63() != b.Int63() {
			t.Fatalf("n=%d: stream state diverged after permutation", n)
		}
	}
}

func TestPermIntoReusesCapacity(t *testing.T) {
	r := New(7)
	buf := make([]int, 0, 128)
	allocs := testing.AllocsPerRun(10, func() {
		buf = r.PermInto(buf[:0], 100)
	})
	if allocs > 0 {
		t.Errorf("PermInto with sufficient capacity allocates %.1f times", allocs)
	}
}

// TestPermPrefixIntoMatchesPermPrefix pins stream identity: the prefix
// form returns exactly Perm(n)[:k] and leaves the stream where Perm
// leaves it, for k below, at and above n.
func TestPermPrefixIntoMatchesPermPrefix(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000, 5000} {
		for _, k := range []int{0, 1, n / 3, n - 1, n, n + 1, 5*n + 3} {
			for seed := int64(1); seed <= 3; seed++ {
				a, b := New(seed), New(seed)
				want := a.Perm(n)[:max(0, min(k, n))]
				got := b.PermPrefixInto(nil, n, k)
				if len(got) != len(want) {
					t.Fatalf("n=%d k=%d: len %d, want %d", n, k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d k=%d seed=%d: diverges at %d: %d vs %d", n, k, seed, i, got[i], want[i])
					}
				}
				if a.Int63() != b.Int63() {
					t.Fatalf("n=%d k=%d seed=%d: stream state diverged", n, k, seed)
				}
			}
		}
	}
}

func TestPermPrefixIntoReusesCapacity(t *testing.T) {
	r := New(7)
	buf := make([]int, 0, 16)
	allocs := testing.AllocsPerRun(10, func() {
		buf = r.PermPrefixInto(buf[:0], 10000, 16)
	})
	if allocs > 0 {
		t.Errorf("PermPrefixInto with sufficient capacity allocates %.1f times", allocs)
	}
}

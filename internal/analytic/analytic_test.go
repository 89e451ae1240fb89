package analytic

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPSumsToOne(t *testing.T) {
	for _, l := range []int{2, 5, 19, 255} {
		for _, n := range []int{1, 2, 10, 100, 1000} {
			sum := 0.0
			for i := 1; i <= l; i++ {
				p := P(i, l, n)
				if p < 0 || p > 1 {
					t.Fatalf("P(%d, %d, %d) = %v out of [0,1]", i, l, n, p)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("sum P(i, %d, %d) = %v, want 1", l, n, sum)
			}
		}
	}
}

func TestPTelescopesProperty(t *testing.T) {
	// P(i) must equal ((L-i+1)/L)^N - ((L-i)/L)^N, the closed form the
	// paper's product expression telescopes to.
	f := func(li, ni, ii uint8) bool {
		l := int(li%60) + 2
		n := int(ni%80) + 1
		i := int(ii)%l + 1
		want := math.Pow(float64(l-i+1)/float64(l), float64(n)) -
			math.Pow(float64(l-i)/float64(l), float64(n))
		return math.Abs(P(i, l, n)-want) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPPanicsOutOfDomain(t *testing.T) {
	for _, args := range [][3]int{{0, 5, 1}, {6, 5, 1}, {1, 1, 1}, {1, 5, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("P(%v) should panic", args)
				}
			}()
			P(args[0], args[1], args[2])
		}()
	}
}

func TestMovesPaperAnchor(t *testing.T) {
	// The paper: 12 spares in the 4x5 grid system (L=19) give 2.0139
	// movements on average.
	m, err := Moves(12, 19)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-2.0139) > 5e-4 {
		t.Errorf("Moves(12, 19) = %v, want 2.0139", m)
	}
}

func TestMovesPaperDensityObservation(t *testing.T) {
	// The paper: with enabled-node density >= 1.68 per grid in the 16x16
	// system (256 heads + N spares, so N >= (1.68-1)*256 ~ 174), the
	// movement count stays around 2.
	n := 174 // (1.68 - 1) * 256 rounded
	m, err := Moves(n, 255)
	if err != nil {
		t.Fatal(err)
	}
	if m > 2.05 {
		t.Errorf("Moves(%d, 255) = %v, want <= ~2", n, m)
	}
}

func TestMovesMonotoneInN(t *testing.T) {
	for _, l := range []int{19, 255} {
		prev := math.Inf(1)
		for n := 1; n <= 1400; n += 7 {
			m, err := Moves(n, l)
			if err != nil {
				t.Fatal(err)
			}
			if m > prev+1e-9 {
				t.Fatalf("Moves not non-increasing at N=%d, L=%d: %v > %v", n, l, m, prev)
			}
			prev = m
		}
	}
}

func TestMovesBounds(t *testing.T) {
	f := func(ni, li uint16) bool {
		n := int(ni%2000) + 1
		l := int(li%300) + 2
		m, err := Moves(n, l)
		if err != nil {
			return false
		}
		return m >= 1-1e-9 && m <= float64(l)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMovesLimits(t *testing.T) {
	// N -> infinity: the first grid almost surely has a spare, M -> 1.
	m, err := Moves(1_000_000, 19)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-1) > 1e-3 {
		t.Errorf("Moves(1e6, 19) = %v, want ~1", m)
	}
	// N = 1: single spare uniform over L grids, M = (L+1)/2.
	m, err = Moves(1, 19)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-10) > 1e-9 {
		t.Errorf("Moves(1, 19) = %v, want 10", m)
	}
}

func TestMovesZeroSpares(t *testing.T) {
	m, err := Moves(0, 19)
	if err != nil {
		t.Fatal(err)
	}
	if m != 19 {
		t.Errorf("Moves(0, 19) = %v, want full path length 19", m)
	}
}

func TestMovesErrors(t *testing.T) {
	if _, err := Moves(5, 1); err == nil {
		t.Error("L=1 should fail")
	}
	if _, err := Moves(-1, 19); err == nil {
		t.Error("negative N should fail")
	}
}

func TestDistance(t *testing.T) {
	// Figure 5 setting: r = 10, so distance = 10.8 * M.
	m, err := Moves(12, 19)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Distance(12, 19, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-m*10.8) > 1e-9 {
		t.Errorf("Distance = %v, want %v", d, m*10.8)
	}
	if _, err := Distance(1, 1, 10); err == nil {
		t.Error("Distance with L=1 should fail")
	}
}

func TestSeries(t *testing.T) {
	ns := []int{1, 10, 100}
	s, err := Series(ns, 19)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 3 {
		t.Fatalf("len = %d", len(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i] > s[i-1] {
			t.Errorf("series not decreasing: %v", s)
		}
	}
	if _, err := Series(ns, 0); err == nil {
		t.Error("invalid L should fail")
	}

	d, err := DistanceSeries(ns, 19, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d {
		if math.Abs(d[i]-s[i]*10.8) > 1e-9 {
			t.Errorf("distance series mismatch at %d: %v vs %v", i, d[i], s[i]*10.8)
		}
	}
	if _, err := DistanceSeries(ns, 0, 10); err == nil {
		t.Error("invalid L should fail")
	}
}

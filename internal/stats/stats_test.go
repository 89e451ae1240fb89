package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanSum(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Error("Mean")
	}
}

func TestStdDev(t *testing.T) {
	if StdDev(nil) != 0 || StdDev([]float64{5}) != 0 {
		t.Error("StdDev degenerate cases")
	}
	// Sample sd of {2,4,4,4,5,5,7,9} is ~2.138 (n-1 denominator).
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2.13809) > 1e-4 {
		t.Errorf("StdDev = %v", got)
	}
	if StdDev([]float64{3, 3, 3}) != 0 {
		t.Error("constant sample should have sd 0")
	}
}

func TestCI95(t *testing.T) {
	if CI95([]float64{1}) != 0 {
		t.Error("single sample CI should be 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	want := 1.96 * StdDev(xs) / math.Sqrt(8)
	if !almost(CI95(xs), want) {
		t.Errorf("CI95 = %v, want %v", CI95(xs), want)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Error("Min/Max")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be infinities")
	}
}

func TestMedian(t *testing.T) {
	if Median(nil) != 0 {
		t.Error("Median(nil)")
	}
	if !almost(Median([]float64{5, 1, 3}), 3) {
		t.Error("odd median")
	}
	if !almost(Median([]float64{4, 1, 3, 2}), 2.5) {
		t.Error("even median")
	}
	// Median must not mutate the input.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Median mutated input")
	}
}

func TestDescribe(t *testing.T) {
	xs := []float64{1, 2, 3}
	d := Describe(xs)
	if d.N != 3 || !almost(d.Mean, 2) || !almost(d.Median, 2) || d.Min != 1 || d.Max != 3 {
		t.Errorf("Describe = %+v", d)
	}
	if d.String() == "" {
		t.Error("String empty")
	}
}

func TestMeanBetweenMinMaxProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-9 && m <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMedianBetweenMinMaxProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		med := Median(xs)
		return med >= Min(xs)-1e-9 && med <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDescriptionStringMarksApproxMedian: the human rendering
// distinguishes exact from estimated medians.
func TestDescriptionStringMarksApproxMedian(t *testing.T) {
	d := Describe([]float64{1, 2, 3})
	if s := d.String(); !strings.Contains(s, "med=2") || strings.Contains(s, "med~=") {
		t.Errorf("exact String() = %q", s)
	}
	d.MedianApprox = true
	if s := d.String(); !strings.Contains(s, "med~=2") {
		t.Errorf("approx String() = %q", s)
	}
}

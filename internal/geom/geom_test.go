package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Pt(1, 1), Pt(1, 1), 0},
		{"axis aligned", Pt(0, 0), Pt(3, 0), 3},
		{"pythagorean", Pt(0, 0), Pt(3, 4), 5},
		{"negative coords", Pt(-1, -1), Pt(2, 3), 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist = %v, want %v", got, tt.want)
			}
			if got := tt.p.Dist2(tt.q); math.Abs(got-tt.want*tt.want) > 1e-12 {
				t.Errorf("Dist2 = %v, want %v", got, tt.want*tt.want)
			}
		})
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(ax, ay), Pt(bx, by)
		// math.Hypot is exactly symmetric (also for Inf results).
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Pt(float64(ax), float64(ay))
		b := Pt(float64(bx), float64(by))
		c := Pt(float64(cx), float64(cy))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectBasics(t *testing.T) {
	r := RectFromSize(Pt(1, 2), 4, 6)
	if got := r.Width(); got != 4 {
		t.Errorf("Width = %v, want 4", got)
	}
	if got := r.Height(); got != 6 {
		t.Errorf("Height = %v, want 6", got)
	}
	if got := r.Center(); got != Pt(3, 5) {
		t.Errorf("Center = %v, want (3, 5)", got)
	}
}

func TestRectContainsClosed(t *testing.T) {
	r := RectFromSize(Pt(0, 0), 1, 1)
	if !r.ContainsClosed(Pt(0, 0)) || !r.ContainsClosed(Pt(0.5, 0.5)) {
		t.Error("ContainsClosed should include the south-west corner and the interior")
	}
	if r.ContainsClosed(Pt(-0.1, 0.5)) {
		t.Error("ContainsClosed should exclude an outside point")
	}
	if !r.ContainsClosed(Pt(1, 1)) {
		t.Error("ContainsClosed should include the north-east corner")
	}
}

func TestRectClamp(t *testing.T) {
	r := RectFromSize(Pt(0, 0), 2, 2)
	tests := []struct {
		p, want Point
	}{
		{Pt(1, 1), Pt(1, 1)},
		{Pt(-1, 1), Pt(0, 1)},
		{Pt(3, 3), Pt(2, 2)},
		{Pt(1, -5), Pt(1, 0)},
	}
	for _, tt := range tests {
		if got := r.Clamp(tt.p); got != tt.want {
			t.Errorf("Clamp(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestRectInset(t *testing.T) {
	r := RectFromSize(Pt(0, 0), 4, 4)
	in := r.Inset(1)
	if in.Min != Pt(1, 1) || in.Max != Pt(3, 3) {
		t.Errorf("Inset(1) = %v", in)
	}
	// Over-large insets collapse to the center rather than inverting.
	collapsed := r.Inset(10)
	if collapsed.Width() != 0 || collapsed.Height() != 0 {
		t.Errorf("Inset(10) should collapse, got %v", collapsed)
	}
	if collapsed.Min != r.Center() {
		t.Errorf("collapsed rect should sit at center, got %v", collapsed.Min)
	}
}

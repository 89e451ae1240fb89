// Package geom provides the 2-D geometry primitives used throughout the
// sensor-network simulator: points and axis-aligned rectangles.
//
// The surveillance field is modelled as a subset of the Euclidean plane
// with the X axis growing east and the Y axis growing north, matching the
// grid-coordinate convention of the paper (grid (x, y) with 0 <= x <= n-1,
// 0 <= y <= m-1).
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X float64
	Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root and is the preferred comparison key in hot paths.
func (p Point) Dist2(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.4g, %.4g)", p.X, p.Y) }

// Rect is an axis-aligned rectangle. Min is the south-west corner and Max
// the north-east corner; a valid Rect has Min.X <= Max.X and Min.Y <= Max.Y.
type Rect struct {
	Min Point
	Max Point
}

// RectFromSize builds the rectangle with south-west corner at min spanning
// w horizontally and h vertically.
func RectFromSize(min Point, w, h float64) Rect {
	return Rect{Min: min, Max: Point{X: min.X + w, Y: min.Y + h}}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{X: (r.Min.X + r.Max.X) / 2, Y: (r.Min.Y + r.Max.Y) / 2}
}

// ContainsClosed reports whether p lies inside r with all edges inclusive.
func (r Rect) ContainsClosed(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Clamp returns the point of r closest to p.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// Inset shrinks r by d on every side. An inset larger than half the extent
// collapses the rectangle onto its center.
func (r Rect) Inset(d float64) Rect {
	out := Rect{
		Min: Point{X: r.Min.X + d, Y: r.Min.Y + d},
		Max: Point{X: r.Max.X - d, Y: r.Max.Y - d},
	}
	if out.Min.X > out.Max.X {
		c := (r.Min.X + r.Max.X) / 2
		out.Min.X, out.Max.X = c, c
	}
	if out.Min.Y > out.Max.Y {
		c := (r.Min.Y + r.Max.Y) / 2
		out.Min.Y, out.Max.Y = c, c
	}
	return out
}

// String implements fmt.Stringer.
func (r Rect) String() string { return fmt.Sprintf("[%v - %v]", r.Min, r.Max) }

// Package lib holds the fixture's exports, used and unused.
package lib

import "fmt"

// Shape is a module interface; Square implements it.
type Shape interface{ Area() float64 }

// Square is a shape the root package builds.
type Square struct{ Side float64 }

// New is called by the root package.
func New(side float64) Square { return Square{Side: side} }

// Area implements Shape: called only through the interface.
func (s Square) Area() float64 { return s.Side * s.Side }

// String implements fmt.Stringer.
func (s Square) String() string { return fmt.Sprintf("square %g", s.Side) }

// Scale is an exported method nothing calls.
func (s Square) Scale(k float64) Square { return Square{Side: s.Side * k} }

// Unused is an exported function nothing calls.
func Unused() int { return 1 }

// Orphan is an exported type named only in its own method receivers.
type Orphan struct{}

// Close implements io.Closer.
func (Orphan) Close() error { return nil }

// Limit is an exported constant nothing reads.
const Limit = 3

// TestOnly is called only from a test.
func TestOnly() int { return 2 }

// Kept is unused and allowlisted.
func Kept() int { return 3 }

// BenchOnly is called only from the bench module.
func BenchOnly() int { return 4 }

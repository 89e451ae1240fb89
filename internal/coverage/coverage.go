// Package coverage evaluates the paper's coverage criterion over the
// virtual grid: the holes are the grids with no enabled node, and
// coverage is complete when every grid has its own head.
package coverage

import (
	"wsncover/internal/grid"
	"wsncover/internal/network"
)

// Holes returns the vacant cells of the network: the grids with no enabled
// node, which under the virtual grid model are exactly the surveillance
// holes.
func Holes(w *network.Network) []grid.Coord { return w.VacantCells(nil) }

// HoleCount returns the number of vacant cells in O(1).
func HoleCount(w *network.Network) int { return w.VacantCount() }

// Complete reports the paper's complete-coverage condition: every grid has
// its own head.
func Complete(w *network.Network) bool { return w.AllHeadsPresent() }

// Package node models the individual mobile sensor devices: identity,
// location, enabled/disabled status, role within a grid (head or spare),
// and a simple movement energy account.
//
// Storage is a struct of three dense columns indexed by ID: locations,
// one packed record per node holding everything a movement reads or
// writes besides the location (status, role, energy spent), and a
// bitset of enabled ids. Locations stay a column of their own because
// head election and spare selection scan them across a cell's members;
// the other attributes are always touched together, one node at a time,
// so packing them puts a move's bookkeeping on one cache line instead
// of three. A Ref is a value handle (store pointer + id) exposing
// the per-node API; it is what the rest of the system passes around
// instead of a heap object, and trial resets are slice truncations
// rather than object-graph rebuilds.
package node

import (
	"fmt"
	"math/bits"
	"slices"

	"wsncover/internal/geom"
)

// ID identifies a node within a network. IDs are dense, starting at 0, and
// assigned by the network in creation order.
type ID int

// Invalid is the ID of no node.
const Invalid ID = -1

// Status is the life-cycle state of a node.
type Status int

// Node statuses. Enums start at 1 so the zero value is invalid.
const (
	// Enabled nodes participate in the WSN collaboration.
	Enabled Status = iota + 1
	// Disabled nodes have failed or misbehaved and are excluded from the
	// collaboration; they neither sense nor communicate nor move.
	Disabled
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Enabled:
		return "enabled"
	case Disabled:
		return "disabled"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Role is the function an enabled node performs within its grid.
type Role int

// Node roles. Enums start at 1 so the zero value is invalid.
const (
	// Spare nodes idle within a grid that already has a head; they are
	// the mobile resource the replacement process recruits.
	Spare Role = iota + 1
	// Head nodes monitor their grid's neighborhood and carry the
	// surveillance duty; one head per grid guarantees coverage.
	Head
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case Spare:
		return "spare"
	case Head:
		return "head"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// EnergyModel converts movement into energy cost. The paper evaluates cost
// by total moving distance; the linear model mirrors that with an optional
// per-move fixed overhead (motor spin-up), enabling energy ablations.
type EnergyModel struct {
	// PerMeter is the energy drawn per meter moved.
	PerMeter float64
	// PerMove is the fixed energy drawn by each movement regardless of
	// distance.
	PerMove float64
}

// Cost returns the energy cost of a single movement of the given distance.
func (m EnergyModel) Cost(distance float64) float64 {
	return m.PerMeter*distance + m.PerMove
}

// record is the packed per-node state: every attribute except the
// location. Fields are ordered widest first so the record is 10 bytes of
// data padded to 16.
type record struct {
	energy float64
	status uint8 // Status
	role   uint8 // Role
}

// fresh is the record of a newly added node: an enabled spare that has
// spent no energy.
var fresh = record{status: uint8(Enabled), role: uint8(Spare)}

// Store is the columnar backing of a node population: locations, packed
// records and the enabled bitset, all indexed by ID. The enabled set is
// mirrored as bitset words so enabled counts and enabled scans are
// word-parallel. Stores are mutated only through Ref and the owning
// network, never concurrently.
type Store struct {
	loc     []geom.Point
	recs    []record
	enabled []uint64 // bitset: bit id set iff recs[id].status == Enabled
}

// Len returns the number of nodes in the store.
func (s *Store) Len() int { return len(s.loc) }

// Reset empties the store in place, keeping capacity for reuse. Stale
// contents need no clearing: Add and Extend overwrite every attribute,
// and the word holding a new id's bit is rewritten whole when the id
// opens it.
func (s *Store) Reset() {
	s.loc = s.loc[:0]
	s.recs = s.recs[:0]
	s.enabled = s.enabled[:0]
}

// Grow ensures capacity for n more nodes, so the next n Adds append
// without reallocating any column.
func (s *Store) Grow(n int) {
	if n <= 0 {
		return
	}
	s.loc = slices.Grow(s.loc, n)
	s.recs = slices.Grow(s.recs, n)
	s.enabled = slices.Grow(s.enabled, (len(s.loc)+n+63)/64-len(s.enabled))
}

// Add appends an enabled spare node at loc and returns its id (always
// the current Len, keeping ids dense and creation-ordered).
func (s *Store) Add(loc geom.Point) ID {
	id := ID(len(s.loc))
	s.loc = append(s.loc, loc)
	s.recs = append(s.recs, fresh)
	if int(id)&63 == 0 {
		// First id of a word: append writes the word whole, discarding
		// whatever a previous trial left in the reused capacity.
		s.enabled = append(s.enabled, 1)
	} else {
		s.enabled[int(id)>>6] |= 1 << (uint(id) & 63)
	}
	return id
}

// Extend appends n enabled nodes of the given role in one step — each
// column grows once and the records and enabled bits are filled in bulk
// — and returns their location slots, ids Len()-n through Len()-1 in
// order. The slots hold stale data until the caller writes them; every
// one must be written (or cut off by Truncate) before the nodes are
// used.
func (s *Store) Extend(n int, role Role) []geom.Point {
	lo := len(s.loc)
	hi := lo + n
	s.loc = slices.Grow(s.loc, n)[:hi]
	s.recs = slices.Grow(s.recs, n)[:hi]
	rec := fresh
	rec.role = uint8(role)
	for i := range s.recs[lo:] {
		s.recs[lo+i] = rec
	}
	words := (hi + 63) / 64
	s.enabled = slices.Grow(s.enabled, words-len(s.enabled))
	if lo&63 != 0 {
		// The first new ids share the last existing word, whose bits
		// from lo up are clear; set the run that falls in it.
		top := min(hi, (lo|63)+1)
		s.enabled[lo>>6] |= (1<<(uint(top-lo)) - 1) << (uint(lo) & 63)
		lo = top
	}
	for ; lo < hi; lo += 64 {
		s.enabled = append(s.enabled, ^uint64(0)>>(64-uint(min(hi-lo, 64))))
	}
	return s.loc[hi-n : hi]
}

// Truncate cuts the store back to its first n nodes, as if the later
// ones had never been added. n must not exceed Len.
func (s *Store) Truncate(n int) {
	s.loc = s.loc[:n]
	s.recs = s.recs[:n]
	s.enabled = s.enabled[:(n+63)/64]
	if tail := uint(n) & 63; tail != 0 {
		s.enabled[len(s.enabled)-1] &= 1<<tail - 1
	}
}

// Ref returns the handle for id. The handle of an out-of-range id is not
// Valid; its accessors must not be called.
func (s *Store) Ref(id ID) Ref { return Ref{s: s, id: id} }

// EnabledCount returns the number of enabled nodes, popcounted from the
// bitset words.
func (s *Store) EnabledCount() int {
	n := 0
	for _, w := range s.enabled {
		n += bits.OnesCount64(w)
	}
	return n
}

// EnabledWords exposes the enabled bitset (bit id set iff node id is
// enabled; trailing bits of the last word are zero) for word-parallel
// scans. Callers must not modify the words.
func (s *Store) EnabledWords() []uint64 { return s.enabled }

// Ref is a value handle to one node in a Store: the unit the network and
// the controllers pass around. The zero Ref (and any out-of-range id) is
// not Valid.
type Ref struct {
	s  *Store
	id ID
}

// Valid reports whether the handle designates a node in its store.
func (r Ref) Valid() bool { return r.s != nil && r.id >= 0 && int(r.id) < len(r.s.loc) }

// Location returns the node's current position.
func (r Ref) Location() geom.Point { return r.s.loc[r.id] }

// Status returns the node's life-cycle state.
func (r Ref) Status() Status { return Status(r.s.recs[r.id].status) }

// Enabled reports whether the node participates in the collaboration.
// It reads the enabled bitset rather than the record: the bitset is a
// few pages that stay cached, so a liveness check does not pay for
// loading the node's record.
func (r Ref) Enabled() bool { return r.s.enabled[int(r.id)>>6]&(1<<(uint(r.id)&63)) != 0 }

// Role returns the node's current role. The role of a disabled node is
// meaningless.
func (r Ref) Role() Role { return Role(r.s.recs[r.id].role) }

// IsHead reports whether the node is an enabled grid head.
func (r Ref) IsHead() bool {
	rec := &r.s.recs[r.id]
	return Status(rec.status) == Enabled && Role(rec.role) == Head
}

// EnergySpent returns the accumulated movement energy under the models
// passed to MoveTo.
func (r Ref) EnergySpent() float64 { return r.s.recs[r.id].energy }

// SetRole changes the node's role.
func (r Ref) SetRole(ro Role) { r.s.recs[r.id].role = uint8(ro) }

// Disable removes the node from the collaboration.
func (r Ref) Disable() {
	r.s.recs[r.id].status = uint8(Disabled)
	r.s.enabled[int(r.id)>>6] &^= 1 << (uint(r.id) & 63)
}

// MoveTo relocates the node to target, charging the energy account, and
// returns the distance moved (0 on error). Disabled nodes cannot move.
// Returning the distance lets the network and the controllers share one
// computation per move instead of re-deriving it.
func (r Ref) MoveTo(target geom.Point, energy EnergyModel) (float64, error) {
	rec := &r.s.recs[r.id]
	if Status(rec.status) != Enabled {
		return 0, fmt.Errorf("node %d: cannot move while %v", r.id, Status(rec.status))
	}
	d := r.s.loc[r.id].Dist(target)
	r.s.loc[r.id] = target
	rec.energy += energy.Cost(d)
	return d, nil
}

// String implements fmt.Stringer.
func (r Ref) String() string {
	if !r.Valid() {
		return fmt.Sprintf("node %d (invalid)", r.id)
	}
	return fmt.Sprintf("node %d %v %v at %v", r.id, r.Status(), r.Role(), r.Location())
}

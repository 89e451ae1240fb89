// Package node models the individual mobile sensor devices: identity,
// location, enabled/disabled status, role within a grid (head or spare),
// and a movement odometer with a simple energy account.
//
// Storage is struct-of-arrays: a Store holds one dense parallel array per
// attribute, indexed by ID, plus a bitset of enabled ids. A Ref is a
// value handle (store pointer + id) exposing the per-node API; it is what
// the rest of the system passes around instead of a heap object, so
// scans over one attribute touch contiguous memory and trial resets are
// slice truncations rather than object-graph rebuilds.
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

// Store is the struct-of-arrays backing of a node population. One slice
// per attribute, all indexed by ID; statuses and roles pack one byte per
// node, and the enabled set is additionally mirrored as bitset words so
// enabled counts and enabled scans are word-parallel. Stores are mutated
// only through Ref and the owning network, never concurrently.
type Store struct {
	loc      []geom.Point
	status   []uint8 // Status, one byte per node
	role     []uint8 // Role, one byte per node
	moves    []int32
	traveled []float64
	energy   []float64
	enabled  []uint64 // bitset: bit id set iff status[id] == Enabled
}

// Len returns the number of nodes in the store.
func (s *Store) Len() int { return len(s.loc) }

// Reset empties the store in place, keeping capacity for reuse. Stale
// contents need no clearing: Add overwrites every attribute, and the
// word holding a new id's bit is rewritten whole when the id opens it.
func (s *Store) Reset() {
	s.loc = s.loc[:0]
	s.status = s.status[:0]
	s.role = s.role[:0]
	s.moves = s.moves[:0]
	s.traveled = s.traveled[:0]
	s.energy = s.energy[:0]
	s.enabled = s.enabled[:0]
}

// Grow ensures capacity for n more nodes, so the next n Adds append
// without reallocating any column.
func (s *Store) Grow(n int) {
	if n <= 0 {
		return
	}
	s.loc = slices.Grow(s.loc, n)
	s.status = slices.Grow(s.status, n)
	s.role = slices.Grow(s.role, n)
	s.moves = slices.Grow(s.moves, n)
	s.traveled = slices.Grow(s.traveled, n)
	s.energy = slices.Grow(s.energy, n)
	s.enabled = slices.Grow(s.enabled, (len(s.loc)+n+63)/64-len(s.enabled))
}

// Add appends an enabled spare node at loc and returns its id (always
// the current Len, keeping ids dense and creation-ordered).
func (s *Store) Add(loc geom.Point) ID {
	id := ID(len(s.loc))
	s.loc = append(s.loc, loc)
	s.status = append(s.status, uint8(Enabled))
	s.role = append(s.role, uint8(Spare))
	s.moves = append(s.moves, 0)
	s.traveled = append(s.traveled, 0)
	s.energy = append(s.energy, 0)
	if int(id)&63 == 0 {
		// First id of a word: append writes the word whole, discarding
		// whatever a previous trial left in the reused capacity.
		s.enabled = append(s.enabled, 1)
	} else {
		s.enabled[int(id)>>6] |= 1 << (uint(id) & 63)
	}
	return id
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

// ID returns the node's identity.
func (r Ref) ID() ID { return r.id }

// Location returns the node's current position.
func (r Ref) Location() geom.Point { return r.s.loc[r.id] }

// Status returns the node's life-cycle state.
func (r Ref) Status() Status { return Status(r.s.status[r.id]) }

// Enabled reports whether the node participates in the collaboration.
func (r Ref) Enabled() bool { return Status(r.s.status[r.id]) == Enabled }

// Role returns the node's current role. The role of a disabled node is
// meaningless.
func (r Ref) Role() Role { return Role(r.s.role[r.id]) }

// IsHead reports whether the node is an enabled grid head.
func (r Ref) IsHead() bool {
	return Status(r.s.status[r.id]) == Enabled && Role(r.s.role[r.id]) == Head
}

// Moves returns how many movements the node has performed.
func (r Ref) Moves() int { return int(r.s.moves[r.id]) }

// Traveled returns the node's total moving distance.
func (r Ref) Traveled() float64 { return r.s.traveled[r.id] }

// EnergySpent returns the accumulated movement energy under the models
// passed to MoveTo.
func (r Ref) EnergySpent() float64 { return r.s.energy[r.id] }

// SetRole changes the node's role.
func (r Ref) SetRole(ro Role) { r.s.role[r.id] = uint8(ro) }

// Disable removes the node from the collaboration.
func (r Ref) Disable() {
	r.s.status[r.id] = uint8(Disabled)
	r.s.enabled[int(r.id)>>6] &^= 1 << (uint(r.id) & 63)
}

// Enable returns the node to the collaboration as a spare.
func (r Ref) Enable() {
	r.s.status[r.id] = uint8(Enabled)
	r.s.role[r.id] = uint8(Spare)
	r.s.enabled[int(r.id)>>6] |= 1 << (uint(r.id) & 63)
}

// MoveTo relocates the node to target, charging the odometer and the
// energy account, and returns the distance moved (0 on error). Disabled
// nodes cannot move. Returning the distance lets the network and the
// controllers share one computation per move instead of re-deriving it.
func (r Ref) MoveTo(target geom.Point, energy EnergyModel) (float64, error) {
	if Status(r.s.status[r.id]) != Enabled {
		return 0, fmt.Errorf("node %d: cannot move while %v", r.id, Status(r.s.status[r.id]))
	}
	d := r.s.loc[r.id].Dist(target)
	r.s.loc[r.id] = target
	r.s.moves[r.id]++
	r.s.traveled[r.id] += d
	r.s.energy[r.id] += energy.Cost(d)
	return d, nil
}

// Teleport places the node at target without charging the odometer. It is
// used during deployment, before the simulation starts.
func (r Ref) Teleport(target geom.Point) { r.s.loc[r.id] = target }

// String implements fmt.Stringer.
func (r Ref) String() string {
	if !r.Valid() {
		return fmt.Sprintf("node %d (invalid)", r.id)
	}
	return fmt.Sprintf("node %d %v %v at %v", r.id, r.Status(), r.Role(), r.Location())
}

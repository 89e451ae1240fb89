// Package dense holds the tiny resize-and-clear helpers behind the
// pooled controllers' per-cell scratch tables: columns of int32s or small
// records (biased by one so the zero value means "none"), bitsets, and
// the index set the controllers keep their standing holes in. Every
// helper reuses the backing array when it is large enough, so a trial
// arena's tables settle at the largest grid they have seen and
// subsequent trials cost one memclr instead of an allocation.
package dense

// Words returns the number of 64-bit words needed to hold n bits.
func Words(n int) int { return (n + 63) / 64 }

// Bits returns b resized to hold n bits, all cleared, reusing capacity.
func Bits(b []uint64, n int) []uint64 {
	w := Words(n)
	if cap(b) < w {
		return make([]uint64, w)
	}
	b = b[:w]
	clear(b)
	return b
}

// Set sets bit i.
func Set(b []uint64, i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func Clear(b []uint64, i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports whether bit i is set.
func Has(b []uint64, i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Int32s returns s resized to n elements, all zero, reusing capacity.
func Int32s(s []int32, n int) []int32 { return Zeroed(s, n) }

// Zeroed returns s resized to n elements, all zero, reusing capacity.
func Zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// IndexSet is a set of indices in [0, n) with O(1) insertion, removal
// and membership: an unordered member list plus each index's position in
// it. The zero value is an empty set over no indices; Reset sizes it.
type IndexSet struct {
	list []int32 // members, unordered
	pos  []int32 // pos[i] = position of i in list + 1, 0 = absent
}

// Reset empties the set and sizes it for indices in [0, n), reusing
// capacity.
func (s *IndexSet) Reset(n int) {
	s.list = s.list[:0]
	s.pos = Int32s(s.pos, n)
}

// Has reports whether i is a member.
func (s *IndexSet) Has(i int) bool { return s.pos[i] != 0 }

// Add inserts i (no-op when present).
func (s *IndexSet) Add(i int) {
	if s.pos[i] != 0 {
		return
	}
	s.list = append(s.list, int32(i))
	s.pos[i] = int32(len(s.list))
}

// Remove deletes i by swap-removal (no-op when absent).
func (s *IndexSet) Remove(i int) {
	pos := s.pos[i]
	if pos == 0 {
		return
	}
	last := len(s.list) - 1
	moved := s.list[last]
	s.list[pos-1] = moved
	s.pos[moved] = pos
	s.list = s.list[:last]
	s.pos[i] = 0
}

// Members returns the members in no particular order. The slice belongs
// to the set: callers must not modify it, and it is valid until the next
// Add, Remove or Reset.
func (s *IndexSet) Members() []int32 { return s.list }

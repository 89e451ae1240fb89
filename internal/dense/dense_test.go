package dense

import (
	"math/bits"
	"testing"
)

// count returns the number of set bits of b.
func count(b []uint64) int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

func TestBitsReuseAndClear(t *testing.T) {
	b := Bits(nil, 130)
	if len(b) != 3 {
		t.Fatalf("Words(130) gave %d words, want 3", len(b))
	}
	Set(b, 0)
	Set(b, 64)
	Set(b, 129)
	if count(b) != 3 || !Has(b, 64) || Has(b, 65) {
		t.Fatalf("bit ops inconsistent: count=%d", count(b))
	}
	Clear(b, 64)
	if count(b) != 2 || Has(b, 64) {
		t.Fatalf("Clear left bit set")
	}
	old := &b[0]
	b = Bits(b, 100)
	if &b[0] != old {
		t.Error("shrinking resize reallocated")
	}
	if count(b) != 0 {
		t.Errorf("resize left %d stale bits", count(b))
	}
}

func TestInt32sReuseAndClear(t *testing.T) {
	s := Int32s(nil, 10)
	for i := range s {
		s[i] = int32(i + 1)
	}
	old := &s[0]
	s = Int32s(s, 8)
	if &s[0] != old {
		t.Error("shrinking resize reallocated")
	}
	for i, v := range s {
		if v != 0 {
			t.Fatalf("element %d not cleared: %d", i, v)
		}
	}
	if len(Int32s(s, 100)) != 100 {
		t.Error("growing resize wrong length")
	}
}

func TestZeroedRecords(t *testing.T) {
	type rec struct{ a, b int32 }
	s := Zeroed([]rec(nil), 4)
	s[3] = rec{1, 2}
	old := &s[0]
	s = Zeroed(s, 4)
	if &s[0] != old || s[3] != (rec{}) {
		t.Errorf("same-size resize reallocated or left %v", s[3])
	}
}

// TestIndexSet drives an IndexSet through adds, repeated adds, removals
// of present and absent indices, and a reset, checking it against a
// plain map after every step.
func TestIndexSet(t *testing.T) {
	var s IndexSet
	n := 200
	s.Reset(n)
	want := map[int]bool{}
	check := func(step string) {
		t.Helper()
		members := s.Members()
		if len(members) != len(want) {
			t.Fatalf("%s: %d members, want %d", step, len(members), len(want))
		}
		for _, m := range members {
			if !want[int(m)] {
				t.Fatalf("%s: unexpected member %d", step, m)
			}
		}
		for i := 0; i < n; i++ {
			if s.Has(i) != want[i] {
				t.Fatalf("%s: Has(%d) = %v", step, i, s.Has(i))
			}
		}
	}
	for _, i := range []int{5, 199, 0, 64, 5, 17, 199} {
		s.Add(i)
		want[i] = true
	}
	check("adds")
	// 5 is present (17, the last member, moves into its slot), then
	// absent; 17 is the moved member; 100 was never added.
	for _, i := range []int{5, 5, 17, 100, 0} {
		s.Remove(i)
		delete(want, i)
	}
	check("removes")
	s.Add(5)
	want[5] = true
	check("re-add")
	n = 50
	s.Reset(n)
	want = map[int]bool{}
	check("reset")
}

package node

import (
	"math"
	"testing"

	"wsncover/internal/geom"
)

// add is the test shorthand for growing a store to hold id and returning
// its handle.
func add(s *Store, loc geom.Point) Ref { return s.Ref(s.Add(loc)) }

func TestAddDefaults(t *testing.T) {
	var s Store
	s.Add(geom.Pt(9, 9))
	s.Add(geom.Pt(9, 9))
	s.Add(geom.Pt(9, 9))
	n := add(&s, geom.Pt(1, 2))
	if n.Location() != geom.Pt(1, 2) {
		t.Errorf("Location = %v", n.Location())
	}
	if n.Status() != Enabled || !n.Enabled() {
		t.Errorf("Status = %v", n.Status())
	}
	if n.Role() != Spare {
		t.Errorf("Role = %v, want Spare", n.Role())
	}
	if n.IsHead() {
		t.Error("new node should not be head")
	}
	if n.EnergySpent() != 0 {
		t.Error("energy account should start at zero")
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestRefValidity(t *testing.T) {
	var zero Ref
	if zero.Valid() {
		t.Error("zero Ref must not be valid")
	}
	var s Store
	if s.Ref(0).Valid() || s.Ref(Invalid).Valid() {
		t.Error("empty store has no valid refs")
	}
	id := s.Add(geom.Pt(0, 0))
	if !s.Ref(id).Valid() {
		t.Error("added node must be valid")
	}
	if s.Ref(id + 1).Valid() {
		t.Error("out-of-range ref must not be valid")
	}
}

func TestRoleTransitions(t *testing.T) {
	var s Store
	n := add(&s, geom.Pt(0, 0))
	n.SetRole(Head)
	if !n.IsHead() {
		t.Error("should be head after SetRole(Head)")
	}
	n.Disable()
	if n.IsHead() {
		t.Error("disabled node must not count as head")
	}
	if n.Enabled() {
		t.Error("disabled node must not be enabled")
	}
}

func TestMoveToAccounting(t *testing.T) {
	var s Store
	n := add(&s, geom.Pt(0, 0))
	em := EnergyModel{PerMeter: 2, PerMove: 1}
	d, err := n.MoveTo(geom.Pt(3, 4), em)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-5) > 1e-12 {
		t.Errorf("MoveTo distance = %v, want 5", d)
	}
	if math.Abs(n.EnergySpent()-11) > 1e-12 {
		t.Errorf("EnergySpent = %v, want 11", n.EnergySpent())
	}
	if d, err := n.MoveTo(geom.Pt(3, 5), em); err != nil || d != 1 {
		t.Fatalf("second MoveTo = %v, %v, want 1", d, err)
	}
	if n.Location() != geom.Pt(3, 5) || math.Abs(n.EnergySpent()-14) > 1e-12 {
		t.Errorf("after second move: at %v, energy %v, want (3, 5) and 14", n.Location(), n.EnergySpent())
	}
}

func TestMoveDisabledFails(t *testing.T) {
	var s Store
	n := add(&s, geom.Pt(0, 0))
	n.Disable()
	if _, err := n.MoveTo(geom.Pt(1, 1), EnergyModel{}); err == nil {
		t.Error("moving a disabled node should fail")
	}
	if n.Location() != geom.Pt(0, 0) || n.EnergySpent() != 0 {
		t.Error("failed move must not move the node or charge its energy")
	}
}

// TestEnabledBitset drives the enabled words through add / disable /
// reset cycles — including word-boundary ids and capacity reuse
// after Reset — and requires the popcount to agree with a brute-force
// status scan throughout.
func TestEnabledBitset(t *testing.T) {
	check := func(s *Store, what string) {
		t.Helper()
		brute := 0
		for id := ID(0); int(id) < s.Len(); id++ {
			if s.Ref(id).Enabled() {
				brute++
			}
		}
		if got := s.EnabledCount(); got != brute {
			t.Fatalf("%s: EnabledCount = %d, brute scan = %d", what, got, brute)
		}
		words := s.EnabledWords()
		if want := (s.Len() + 63) / 64; len(words) != want {
			t.Fatalf("%s: %d enabled words for %d nodes", what, len(words), s.Len())
		}
		for id := ID(0); int(id) < s.Len(); id++ {
			bit := words[int(id)>>6]&(1<<(uint(id)&63)) != 0
			if bit != s.Ref(id).Enabled() {
				t.Fatalf("%s: bit %d = %v, status %v", what, id, bit, s.Ref(id).Status())
			}
		}
	}
	var s Store
	for i := 0; i < 130; i++ { // crosses two word boundaries
		s.Add(geom.Pt(float64(i), 0))
	}
	check(&s, "after add")
	for id := ID(0); int(id) < s.Len(); id += 3 {
		s.Ref(id).Disable()
	}
	check(&s, "after disable")
	s.Ref(63).Disable()
	s.Ref(64).Disable()
	check(&s, "word-boundary disable")
	s.Reset()
	if s.Len() != 0 || s.EnabledCount() != 0 || len(s.EnabledWords()) != 0 {
		t.Fatal("reset store must be empty")
	}
	for i := 0; i < 70; i++ { // reuse capacity left by the larger first fill
		s.Add(geom.Pt(float64(i), 1))
	}
	check(&s, "after reset+refill")
	if s.EnabledCount() != 70 {
		t.Fatalf("refill EnabledCount = %d, want 70 (stale bits leaked)", s.EnabledCount())
	}
}

func TestEnergyModelCost(t *testing.T) {
	em := EnergyModel{PerMeter: 0.5, PerMove: 2}
	if got := em.Cost(10); got != 7 {
		t.Errorf("Cost(10) = %v, want 7", got)
	}
	var zero EnergyModel
	if got := zero.Cost(10); got != 0 {
		t.Errorf("zero model Cost = %v, want 0", got)
	}
}

func TestStringers(t *testing.T) {
	if Enabled.String() != "enabled" || Disabled.String() != "disabled" {
		t.Error("Status strings")
	}
	if Head.String() != "head" || Spare.String() != "spare" {
		t.Error("Role strings")
	}
	if Status(9).String() == "" || Role(9).String() == "" {
		t.Error("invalid enums should still render")
	}
	var s Store
	if add(&s, geom.Pt(0, 0)).String() == "" {
		t.Error("Ref String empty")
	}
	if (Ref{}).String() == "" {
		t.Error("invalid Ref String empty")
	}
}

// TestGrowReservesEveryColumn checks that after Grow(n) the next n Adds
// allocate nothing, from an empty store and from a partly filled one
// whose enabled bitset ends mid-word.
func TestGrowReservesEveryColumn(t *testing.T) {
	for _, start := range []int{0, 70} {
		var s Store
		for i := 0; i < start; i++ {
			s.Add(geom.Pt(float64(i), 0))
		}
		s.Grow(400) // AllocsPerRun adds a warm-up call: 2 x 200 Adds
		if allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < 200; i++ {
				s.Add(geom.Pt(float64(i), 1))
			}
		}); allocs != 0 {
			t.Errorf("start %d: %v allocs adding into reserved capacity", start, allocs)
		}
		s.Grow(-1) // no-op
	}
}

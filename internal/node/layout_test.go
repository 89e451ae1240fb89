package node

import (
	"testing"
	"unsafe"

	"wsncover/internal/geom"
)

// TestRecordSize pins the packed per-node record. A cascade hop reads
// and writes one node's record, so the record's size decides how much
// of a cache line each hop pulls in: growing it past a cache-line
// fraction is a performance regression, not a refactor, and needs the
// benchmarks to justify it. 16 bytes is the 10 bytes of the attributes
// plus alignment padding.
func TestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got > 16 {
		t.Errorf("node record is %d bytes, want at most 16", got)
	}
}

// TestExtendMatchesAdd checks that Extend leaves the store exactly as
// the same number of Adds, each followed by SetRole of the role Extend
// was given, would — ids, records, enabled bits — for runs
// that start and end inside, on and across bitset word boundaries, and
// that Truncate then cuts back to any prefix as if the later nodes had
// never been added.
func TestExtendMatchesAdd(t *testing.T) {
	for k, tc := range []struct{ start, n, cut int }{
		{0, 0, 0}, {0, 5, 3}, {0, 64, 64}, {0, 130, 64}, {3, 5, 4}, {3, 61, 10}, {70, 10, 75},
		{3, 200, 70}, {64, 1, 64}, {70, 58, 127}, {70, 400, 71},
	} {
		var bulk, ref Store
		for i := 0; i < tc.start; i++ {
			p := geom.Pt(float64(i), 0)
			bulk.Add(p)
			ref.Add(p)
		}
		if tc.start > 0 {
			bulk.Ref(0).Disable()
			ref.Ref(0).Disable()
		}
		role := []Role{Spare, Head}[k%2]
		locs := bulk.Extend(tc.n, role)
		if len(locs) != tc.n {
			t.Fatalf("%+v: Extend returned %d slots", tc, len(locs))
		}
		for i := range locs {
			locs[i] = geom.Pt(float64(i), 1)
			ref.Ref(ref.Add(locs[i])).SetRole(role)
		}
		same := func(what string, a, b *Store) {
			t.Helper()
			if a.Len() != b.Len() || a.EnabledCount() != b.EnabledCount() {
				t.Fatalf("%+v %s: len %d/%d enabled %d/%d", tc, what,
					a.Len(), b.Len(), a.EnabledCount(), b.EnabledCount())
			}
			for id := ID(0); int(id) < a.Len(); id++ {
				x, y := a.Ref(id), b.Ref(id)
				if x.Location() != y.Location() || x.Status() != y.Status() || x.Role() != y.Role() ||
					x.Enabled() != y.Enabled() || x.EnergySpent() != y.EnergySpent() {
					t.Fatalf("%+v %s: node %d differs: %v vs %v", tc, what, id, x, y)
				}
			}
			for i, w := range a.EnabledWords() {
				if w != b.EnabledWords()[i] {
					t.Fatalf("%+v %s: enabled word %d = %#x, want %#x", tc, what, i, w, b.EnabledWords()[i])
				}
			}
		}
		same("extend", &bulk, &ref)

		bulk.Truncate(tc.cut)
		var cut Store
		for id := ID(0); int(id) < tc.cut; id++ {
			cut.Ref(cut.Add(ref.Ref(id).Location())).SetRole(ref.Ref(id).Role())
		}
		if tc.start > 0 && tc.cut > 0 {
			cut.Ref(0).Disable()
		}
		same("truncate", &bulk, &cut)
		bulk.Add(geom.Pt(9, 9))
		cut.Add(geom.Pt(9, 9))
		same("add after truncate", &bulk, &cut)
	}
}

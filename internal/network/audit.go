package network

import (
	"fmt"
	"math/bits"

	"wsncover/internal/node"
)

// Audit verifies the internal consistency of the network's registries and
// role assignments. It returns a list of violations (empty when the
// network is consistent). Tests call it after chaotic schedules — failure
// injection mid-cascade, concurrent processes — to prove the substrate
// never corrupts:
//
//   - every enabled node is registered in exactly the cell containing it;
//   - no disabled node is registered anywhere;
//   - each cell's head is a member of that cell and carries the Head role;
//   - cells with enabled nodes have a head (election invariant);
//   - exactly one node per occupied cell carries the Head role;
//   - the per-cell counts, the occupancy bitset, the store's enabled
//     bitset, and the head counter all match a brute-force recount, so the
//     popcount-derived VacantCount/EnabledCount agree with a full scan;
//   - the vacancy journal's dirty bits agree with its event list.
func (w *Network) Audit() []string {
	var bad []string

	registered := make(map[node.ID]int, w.store.Len()) // id -> cell index
	for idx := range w.cells {
		n := 0
		for cur := w.cells[idx].first; cur != 0; cur = w.nextInCell[cur-1] {
			id := node.ID(cur - 1)
			if prev, dup := registered[id]; dup {
				bad = append(bad, fmt.Sprintf("node %d registered in cells %v and %v",
					id, w.sys.CoordAt(prev), w.sys.CoordAt(idx)))
				break // a cross-cell duplicate may also be a list cycle; stop walking
			}
			registered[id] = idx
			n++
		}
		if n != int(w.cells[idx].count) {
			bad = append(bad, fmt.Sprintf("cell %v count = %d, list walk = %d",
				w.sys.CoordAt(idx), w.cells[idx].count, n))
		}
		occBit := w.occ[idx>>6]&(1<<(uint(idx)&63)) != 0
		if occBit != (n > 0) {
			bad = append(bad, fmt.Sprintf("cell %v occupancy bit = %v with %d members",
				w.sys.CoordAt(idx), occBit, n))
		}
	}

	for id := node.ID(0); int(id) < w.store.Len(); id++ {
		nd := w.store.Ref(id)
		idx, ok := registered[id]
		switch {
		case nd.Enabled() && !ok:
			bad = append(bad, fmt.Sprintf("enabled node %d not registered", id))
		case !nd.Enabled() && ok:
			bad = append(bad, fmt.Sprintf("disabled node %d still registered in %v",
				id, w.sys.CoordAt(idx)))
		case nd.Enabled():
			c, in := w.sys.CoordOf(nd.Location())
			if !in {
				bad = append(bad, fmt.Sprintf("node %d located off-field at %v",
					id, nd.Location()))
			} else if w.sys.Index(c) != idx {
				bad = append(bad, fmt.Sprintf("node %d at %v registered in %v but located in %v",
					id, nd.Location(), w.sys.CoordAt(idx), c))
			}
		}
		enBit := w.store.EnabledWords()[int(id)>>6]&(1<<(uint(id)&63)) != 0
		if enBit != nd.Enabled() {
			bad = append(bad, fmt.Sprintf("node %d enabled bit = %v but status %v",
				id, enBit, nd.Status()))
		}
	}
	if words := w.store.EnabledWords(); len(words) > 0 {
		if tail := uint(w.store.Len()) & 63; tail != 0 {
			if extra := words[len(words)-1] &^ (1<<tail - 1); extra != 0 {
				bad = append(bad, fmt.Sprintf("enabled bitset has stale bits %#x beyond node %d",
					extra, w.store.Len()-1))
			}
		}
	}

	for idx := range w.cells {
		h := w.cells[idx].head
		c := w.sys.CoordAt(idx)
		if h == 0 {
			if w.cells[idx].count > 0 {
				bad = append(bad, fmt.Sprintf("cell %v has %d enabled nodes but no head",
					c, w.cells[idx].count))
			}
			continue
		}
		headID := node.ID(h - 1)
		member := false
		headRoles := 0
		for cur := w.cells[idx].first; cur != 0; cur = w.nextInCell[cur-1] {
			id := node.ID(cur - 1)
			if id == headID {
				member = true
			}
			if w.store.Ref(id).Role() == node.Head {
				headRoles++
			}
		}
		if !member {
			bad = append(bad, fmt.Sprintf("head %d of cell %v is not a member", headID, c))
		}
		if !w.store.Ref(headID).IsHead() {
			bad = append(bad, fmt.Sprintf("head %d of cell %v lacks Head role", headID, c))
		}
		if headRoles != 1 {
			bad = append(bad, fmt.Sprintf("cell %v has %d nodes with Head role", c, headRoles))
		}
	}

	// Brute-force recounts against the word-parallel derivations: this is
	// where "popcount agrees with a full scan" is enforced.
	enabled, headed, vacant := 0, 0, 0
	for idx := range w.cells {
		enabled += int(w.cells[idx].count)
		if w.cells[idx].head != 0 {
			headed++
		}
		if w.cells[idx].count == 0 {
			vacant++
		}
	}
	if got := w.EnabledCount(); got != enabled {
		bad = append(bad, fmt.Sprintf("EnabledCount popcount = %d, recount = %d", got, enabled))
	}
	if headed != w.headCount {
		bad = append(bad, fmt.Sprintf("headCount = %d, recount = %d", w.headCount, headed))
	}
	if got := w.VacantCount(); got != vacant {
		bad = append(bad, fmt.Sprintf("VacantCount popcount = %d, recount = %d", got, vacant))
	}
	if last := len(w.occ) - 1; last >= 0 {
		if extra := w.occ[last] &^ w.occTailMask; extra != 0 {
			bad = append(bad, fmt.Sprintf("occupancy bitset has stale bits %#x beyond the grid", extra))
		}
	}

	dirty := 0
	for _, word := range w.vacancyDirty {
		dirty += bits.OnesCount64(word)
	}
	for idx := range w.cells {
		if w.vacancyDirty[idx>>6]&(1<<(uint(idx)&63)) == 0 {
			continue
		}
		found := false
		for _, e := range w.vacancyEvents {
			if int(e) == idx {
				found = true
				break
			}
		}
		if !found {
			bad = append(bad, fmt.Sprintf("cell %v dirty but missing from the vacancy journal", w.sys.CoordAt(idx)))
		}
	}
	if dirty != len(w.vacancyEvents) {
		bad = append(bad, fmt.Sprintf("vacancy journal holds %d events but %d cells are dirty",
			len(w.vacancyEvents), dirty))
	}
	return bad
}

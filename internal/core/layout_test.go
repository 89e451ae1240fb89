package core

import (
	"testing"
	"unsafe"
)

// TestClaimSlotSize pins the packed per-cell claim record. Detection and
// every cascade hop read one cell's claim, so the record's size decides
// how much of a cache line that read pulls in: growing it past a
// cache-line fraction is a performance regression, not a refactor.
func TestClaimSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(claimSlot{}); got != 8 {
		t.Errorf("claim record is %d bytes, want 8", got)
	}
}

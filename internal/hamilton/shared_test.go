package hamilton

import (
	"testing"

	"wsncover/internal/geom"
	"wsncover/internal/grid"
)

func TestSharedCachesPerGeometry(t *testing.T) {
	sysA, err := grid.New(6, 6, 10, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := grid.New(6, 6, 10, geom.Pt(0, 0)) // equal geometry, new instance
	if err != nil {
		t.Fatal(err)
	}
	a, err := Shared(sysA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Shared(sysB)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("equal geometries must share one topology instance")
	}

	sysC, err := grid.New(6, 6, 5, geom.Pt(0, 0)) // different cell size
	if err != nil {
		t.Fatal(err)
	}
	c, err := Shared(sysC)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different geometries must not share a topology")
	}

	// The cached instance must agree with a direct Build everywhere.
	ref, err := Build(sysA)
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < sysA.NumCells(); idx++ {
		g := sysA.CoordAt(idx)
		if a.MonitorOf(g) != ref.MonitorOf(g) || a.ScanKey(g) != ref.ScanKey(g) {
			t.Fatalf("cached topology diverges from Build at %v", g)
		}
	}
}

func TestSharedErrorNotCached(t *testing.T) {
	sys, err := grid.New(1, 5, 10, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Shared(sys); err == nil {
		t.Fatal("1x5 grid should have no Hamilton structure")
	}
}

package async

import (
	"math"
	"testing"

	"wsncover/internal/coverage"
	"wsncover/internal/geom"
	"wsncover/internal/grid"
	"wsncover/internal/hamilton"
	"wsncover/internal/metrics"
	"wsncover/internal/network"
	"wsncover/internal/node"
	"wsncover/internal/randx"
)

// scenario builds a network with one head per cell except holes, plus one
// spare per listed cell.
func scenario(t *testing.T, cols, rows int, holes, spares []grid.Coord) (*network.Network, *hamilton.Topology) {
	t.Helper()
	sys, err := grid.New(cols, rows, 10, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(sys, node.EnergyModel{})
	holeSet := map[grid.Coord]bool{}
	for _, h := range holes {
		holeSet[h] = true
	}
	for _, c := range sys.AllCoords() {
		if !holeSet[c] {
			if _, err := net.AddNodeAt(sys.Center(c)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := randx.New(17)
	for _, c := range spares {
		if _, err := net.AddNodeAt(rng.InRect(sys.CellRect(c))); err != nil {
			t.Fatal(err)
		}
	}
	net.ElectHeads()
	topo, err := hamilton.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	return net, topo
}

func newCtrl(t *testing.T, net *network.Network, topo *hamilton.Topology, seed int64) *Controller {
	t.Helper()
	c, err := New(net, Config{Topology: topo, RNG: randx.New(seed)})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	net, topo := scenario(t, 4, 4, nil, nil)
	if _, err := New(net, Config{}); err == nil {
		t.Error("missing topology should fail")
	}
	otherSys, err := grid.New(6, 4, 10, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	otherTopo, err := hamilton.Build(otherSys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(net, Config{Topology: otherTopo}); err == nil {
		t.Error("mismatched grids should fail")
	}
	newCtrl(t, net, topo, 1)
}

func TestNoHolesNoProcesses(t *testing.T) {
	net, topo := scenario(t, 4, 4, nil, nil)
	c := newCtrl(t, net, topo, 1)
	if _, err := c.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if got := c.Collector().Summarize().Initiated; got != 0 {
		t.Errorf("initiated = %d", got)
	}
}

func TestSingleHoleRecovered(t *testing.T) {
	net, topo := scenario(t, 6, 6, []grid.Coord{grid.C(3, 3)}, []grid.Coord{grid.C(0, 0)})
	c := newCtrl(t, net, topo, 2)
	if _, err := c.RunUntil(1e6); err != nil {
		t.Fatal(err)
	}
	s := c.Collector().Summarize()
	if s.Initiated != 1 || s.Converged != 1 {
		t.Fatalf("summary = %v", s)
	}
	if !coverage.Complete(net) {
		t.Error("coverage should be complete")
	}
	if c.Now() <= 0 {
		t.Error("simulation time should advance")
	}
}

func TestExactlyOneProcessPerHoleAsync(t *testing.T) {
	// The synchronization property must survive asynchrony: jittered
	// polls from different monitors never double-initiate.
	holes := []grid.Coord{grid.C(1, 1), grid.C(6, 6), grid.C(1, 6), grid.C(6, 1)}
	spares := []grid.Coord{grid.C(0, 0), grid.C(7, 7), grid.C(0, 7), grid.C(7, 0)}
	for seed := int64(0); seed < 10; seed++ {
		net, topo := scenario(t, 8, 8, holes, spares)
		c := newCtrl(t, net, topo, seed)
		if _, err := c.RunUntil(1e6); err != nil {
			t.Fatal(err)
		}
		s := c.Collector().Summarize()
		if s.Initiated != len(holes) {
			t.Fatalf("seed %d: initiated = %d, want %d", seed, s.Initiated, len(holes))
		}
		if s.Converged != len(holes) {
			t.Fatalf("seed %d: converged = %d: %v", seed, s.Converged, s)
		}
		if !coverage.Complete(net) {
			t.Fatalf("seed %d: coverage incomplete", seed)
		}
	}
}

func TestCascadeMovesMatchWalkAsync(t *testing.T) {
	// Spare k hops back along the walk: still exactly k movements.
	sys, err := grid.New(4, 5, 10, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := hamilton.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	hole := grid.C(1, 3)
	w := topo.NewWalk(hole)
	const k = 4
	for i := 1; i < k; i++ {
		w.Advance(nil)
	}
	spareCell := w.Current()
	net, _ := scenario(t, 4, 5, []grid.Coord{hole}, []grid.Coord{spareCell})
	c := newCtrl(t, net, topo, 3)
	if _, err := c.RunUntil(1e6); err != nil {
		t.Fatal(err)
	}
	s := c.Collector().Summarize()
	if s.Moves != k {
		t.Errorf("moves = %d, want %d", s.Moves, k)
	}
	if !coverage.Complete(net) {
		t.Error("coverage should be complete")
	}
}

func TestZeroSparesFails(t *testing.T) {
	net, topo := scenario(t, 4, 4, []grid.Coord{grid.C(2, 2)}, nil)
	c := newCtrl(t, net, topo, 4)
	if _, err := c.RunUntil(1e5); err != nil {
		t.Fatal(err)
	}
	c.Finalize()
	s := c.Collector().Summarize()
	if s.Initiated != 1 || s.Failed != 1 {
		t.Errorf("summary = %v", s)
	}
	// No re-initiation storm after failure.
	if _, err := c.RunUntil(c.Now() + 100); err != nil {
		t.Fatal(err)
	}
	if got := c.Collector().Summarize().Initiated; got != 1 {
		t.Errorf("initiated grew to %d", got)
	}
}

func TestDualPathAsync(t *testing.T) {
	sys, err := grid.New(5, 5, 10, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := hamilton.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	a, b, cc, d, _ := topo.ABCD()
	for _, hole := range []grid.Coord{a, b, cc, d, grid.C(0, 0)} {
		spare := grid.C(2, 0)
		if hole == spare {
			spare = grid.C(0, 2)
		}
		net, _ := scenario(t, 5, 5, []grid.Coord{hole}, []grid.Coord{spare})
		c := newCtrl(t, net, topo, 5)
		if _, err := c.RunUntil(1e6); err != nil {
			t.Fatal(err)
		}
		if !coverage.Complete(net) {
			t.Errorf("hole at %v not recovered", hole)
		}
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) metrics.Summary {
		net, topo := scenario(t, 6, 6, []grid.Coord{grid.C(2, 4)}, []grid.Coord{grid.C(5, 0)})
		c := newCtrl(t, net, topo, seed)
		if _, err := c.RunUntil(1e6); err != nil {
			t.Fatal(err)
		}
		return c.Collector().Summarize()
	}
	if run(9) != run(9) {
		t.Error("same seed must reproduce")
	}
}

func TestTimingRealism(t *testing.T) {
	// With 1 m/s movement and cells of 10 m, a k-hop cascade takes at
	// least k * (minimum hop distance) seconds.
	sys, err := grid.New(4, 5, 10, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := hamilton.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	hole := grid.C(1, 3)
	w := topo.NewWalk(hole)
	const k = 5
	for i := 1; i < k; i++ {
		w.Advance(nil)
	}
	net, _ := scenario(t, 4, 5, []grid.Coord{hole}, []grid.Coord{w.Current()})
	c := newCtrl(t, net, topo, 6)
	if _, err := c.RunUntil(1e6); err != nil {
		t.Fatal(err)
	}
	if !coverage.Complete(net) {
		t.Fatal("not recovered")
	}
	minTime := float64(k) * 2.5 // k hops, min r/4 = 2.5 m each at 1 m/s
	if c.Now() < minTime {
		t.Errorf("recovery at t=%.2f s faster than physically possible %.2f s", c.Now(), minTime)
	}
}

func TestMovementDistanceBoundsAsync(t *testing.T) {
	net, topo := scenario(t, 8, 8, []grid.Coord{grid.C(4, 4)}, []grid.Coord{grid.C(0, 0)})
	c := newCtrl(t, net, topo, 7)
	if _, err := c.RunUntil(1e6); err != nil {
		t.Fatal(err)
	}
	s := c.Collector().Summarize()
	r := 10.0
	lo := float64(s.Moves) * r / 4
	hi := float64(s.Moves) * math.Sqrt(58) / 4 * r
	if s.Distance < lo-1e-9 || s.Distance > hi+1e-9 {
		t.Errorf("distance %v outside [%v, %v]", s.Distance, lo, hi)
	}
}

func TestRunUntilDeadlineStopsEarly(t *testing.T) {
	net, topo := scenario(t, 16, 16, []grid.Coord{grid.C(8, 8)}, []grid.Coord{grid.C(0, 15)})
	c := newCtrl(t, net, topo, 8)
	// A tiny deadline cannot finish a long cascade.
	if _, err := c.RunUntil(0.01); err != nil {
		t.Fatal(err)
	}
	if coverage.Complete(net) {
		t.Skip("recovered implausibly fast")
	}
	if c.Now() > 0.011 {
		t.Errorf("time overshot deadline: %v", c.Now())
	}
	// Resume and finish.
	if _, err := c.RunUntil(1e6); err != nil {
		t.Fatal(err)
	}
	if !coverage.Complete(net) {
		t.Error("resumed run should recover")
	}
}

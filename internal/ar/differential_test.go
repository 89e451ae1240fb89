package ar

import (
	"fmt"
	"reflect"
	"testing"

	"wsncover/internal/coverage"
	"wsncover/internal/deploy"
	"wsncover/internal/geom"
	"wsncover/internal/grid"
	"wsncover/internal/network"
	"wsncover/internal/node"
	"wsncover/internal/randx"
)

// arDiffScenario describes one lockstep comparison between the
// event-driven detector and the reference full scan.
type arDiffScenario struct {
	cols, rows int
	holes      int
	adjacent   bool
	spares     int
	// churnRound > 0 vacates churnCells at that round, exercising
	// journal-driven detection of holes arriving while cascades run —
	// including re-vacated cells, which must be re-detected after a fill.
	churnRound int
	churnCells []grid.Coord
}

// buildARDiffNet deploys one network for the scenario with the given
// seed. Both arms call it with equal seeds, so they face identical
// layouts.
func buildARDiffNet(t *testing.T, sc arDiffScenario, seed int64) *network.Network {
	t.Helper()
	sys, err := grid.New(sc.cols, sc.rows, 10, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(sys, node.EnergyModel{})
	rng := randx.New(seed)
	holes, err := deploy.PickHoleCells(sys, sc.holes, !sc.adjacent, rng.Split(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := deploy.Controlled(net, sc.spares, holes, rng.Split(2)); err != nil {
		t.Fatal(err)
	}
	return net
}

// arFingerprint summarizes the externally observable network state and
// the controller's sent-message count; any behavioral divergence between
// the detectors changes it within a round or two (positions feed off the
// shared RNG stream).
func arFingerprint(net *network.Network, c *Controller) string {
	sum := 0.0
	for id := 0; id < net.NumNodes(); id++ {
		nd := net.Node(node.ID(id))
		p := nd.Location()
		sum += p.X*1e-3 + p.Y
		if nd.Enabled() {
			sum += 17
		}
	}
	return fmt.Sprintf("moves=%d dist=%.9g msgs=%d vacant=%d heads=%v pos=%.9g",
		net.TotalMoves(), net.TotalDistance(), c.Collector().Summarize().Messages,
		net.VacantCount(), net.AllHeadsPresent(), sum)
}

// TestARDetectorsBitIdentical drives both AR detectors in lockstep —
// scattered and adjacent holes, spare droughts, redundant-process races,
// and mid-run churn — and requires identical observable state after
// every round, plus identical process accounting at the end.
func TestARDetectorsBitIdentical(t *testing.T) {
	scenarios := []arDiffScenario{
		{cols: 4, rows: 4, holes: 1, spares: 3},
		{cols: 8, rows: 8, holes: 4, spares: 12},
		{cols: 8, rows: 8, holes: 6, adjacent: true, spares: 4},
		{cols: 8, rows: 8, holes: 3, spares: 0}, // no spares: cascades fail
		{cols: 16, rows: 16, holes: 8, spares: 40},
		{cols: 8, rows: 8, holes: 2, spares: 20,
			churnRound: 3, churnCells: []grid.Coord{grid.C(6, 6), grid.C(1, 5)}},
		{cols: 8, rows: 8, holes: 3, spares: 6, adjacent: true,
			churnRound: 5, churnCells: []grid.Coord{grid.C(0, 0), grid.C(7, 7), grid.C(3, 4)}},
	}
	for i, sc := range scenarios {
		t.Run(fmt.Sprintf("scenario%02d_%dx%d", i, sc.cols, sc.rows), func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				runARDiff(t, sc, seed)
			}
		})
	}
}

func runARDiff(t *testing.T, sc arDiffScenario, seed int64) {
	t.Helper()
	netEvent := buildARDiffNet(t, sc, seed)
	netScan := buildARDiffNet(t, sc, seed)
	event := New(netEvent, Config{RNG: randx.New(seed * 31)})
	scan := New(netScan, Config{RNG: randx.New(seed * 31), FullScanDetect: true})

	maxRounds := 2*sc.cols*sc.rows + 16
	idle := 0
	for r := 0; r < maxRounds; r++ {
		if sc.churnRound > 0 && r == sc.churnRound {
			for _, cell := range sc.churnCells {
				netEvent.DisableAllInCell(cell)
				netScan.DisableAllInCell(cell)
			}
		}
		if err := event.Step(); err != nil {
			t.Fatalf("seed %d round %d: event: %v", seed, r, err)
		}
		if err := scan.Step(); err != nil {
			t.Fatalf("seed %d round %d: scan: %v", seed, r, err)
		}
		if a, b := arFingerprint(netEvent, event), arFingerprint(netScan, scan); a != b {
			t.Fatalf("seed %d: diverged at round %d:\nevent: %s\nscan:  %s", seed, r, a, b)
		}
		if event.active != scan.active {
			t.Fatalf("seed %d round %d: procs %d vs %d",
				seed, r, event.active, scan.active)
		}
		if event.Done() && scan.Done() {
			idle++
			if idle >= 3 {
				break
			}
		} else {
			idle = 0
		}
	}

	if !reflect.DeepEqual(records(event.Collector()), records(scan.Collector())) {
		t.Fatalf("seed %d: process logs differ:\n%+v\nvs\n%+v",
			seed, records(event.Collector()), records(scan.Collector()))
	}
	if a, b := event.Collector().Summarize(), scan.Collector().Summarize(); a != b {
		t.Fatalf("seed %d: summaries differ: %+v vs %+v", seed, a, b)
	}
	if a, b := coverage.Complete(netEvent), coverage.Complete(netScan); a != b {
		t.Fatalf("seed %d: completion differs: %v vs %v", seed, a, b)
	}
	if bad := netEvent.Audit(); len(bad) > 0 {
		t.Fatalf("seed %d: event-arm audit: %v", seed, bad)
	}
}

// TestARRedetectsRevacatedCell pins the churn-readiness property the
// detected-set clearing buys: a hole that was repaired and is then
// vacated again by external damage triggers a fresh replacement process
// under both detectors.
func TestARRedetectsRevacatedCell(t *testing.T) {
	for _, fullScan := range []bool{false, true} {
		sc := arDiffScenario{cols: 6, rows: 6, holes: 1, spares: 12}
		net := buildARDiffNet(t, sc, 3)
		c := New(net, Config{RNG: randx.New(5), FullScanDetect: fullScan})
		stepUntilIdle := func() {
			idle := 0
			for r := 0; r < 200 && idle < 3; r++ {
				if err := c.Step(); err != nil {
					t.Fatal(err)
				}
				if c.Done() {
					idle++
				} else {
					idle = 0
				}
			}
		}
		stepUntilIdle()
		if !net.AllHeadsPresent() {
			t.Fatalf("fullScan=%v: initial hole not repaired", fullScan)
		}
		before := c.Collector().Summarize().Initiated
		// Vacate a previously repaired (or at least previously occupied)
		// cell and require new processes.
		net.DisableAllInCell(grid.C(2, 2))
		stepUntilIdle()
		after := c.Collector().Summarize().Initiated
		if after <= before {
			t.Errorf("fullScan=%v: no process initiated for re-vacated cell (%d -> %d)",
				fullScan, before, after)
		}
		if !net.AllHeadsPresent() {
			t.Errorf("fullScan=%v: re-vacated cell not repaired", fullScan)
		}
	}
}

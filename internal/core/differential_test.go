package core

import (
	"fmt"
	"reflect"
	"testing"

	"wsncover/internal/coverage"
	"wsncover/internal/deploy"
	"wsncover/internal/geom"
	"wsncover/internal/grid"
	"wsncover/internal/hamilton"
	"wsncover/internal/network"
	"wsncover/internal/node"
	"wsncover/internal/randx"
)

// diffScenario describes one lockstep comparison between the event-driven
// detector and the reference full scan.
type diffScenario struct {
	cols, rows int
	holes      int
	adjacent   bool
	spares     int
	shortcut   bool
	claimTTL   int
	loss       float64
	// jamRound > 0 injects a mid-run jam at that round, exercising
	// journal-driven detection of holes that appear while cascades run.
	jamRound int
	jamCell  grid.Coord
}

// buildDiffNet deploys one network for the scenario with the given seed.
// Both arms call it with equal seeds, so they face identical layouts.
func buildDiffNet(t *testing.T, sc diffScenario, seed int64) (*network.Network, *hamilton.Topology) {
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
	if sc.loss > 0 {
		if err := net.SetMessageLoss(sc.loss, randx.New(seed+7)); err != nil {
			t.Fatal(err)
		}
	}
	topo, err := hamilton.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	return net, topo
}

// netFingerprint summarizes the externally observable network state and
// the controller's sent-message count; any behavioral divergence between
// the two detectors changes it within a round or two (positions feed off
// the shared RNG stream).
func netFingerprint(net *network.Network, c *Controller) string {
	sum := 0.0
	for id := 0; id < net.NumNodes(); id++ {
		nd := net.Node(node.ID(id))
		p := nd.Location()
		sum += p.X*1e-3 + p.Y
		if nd.Enabled() {
			sum += 17
		}
	}
	return fmt.Sprintf("moves=%d dist=%.9g msgs=%d lost=%d vacant=%d heads=%v pos=%.9g",
		net.TotalMoves(), net.TotalDistance(), c.Collector().Summarize().Messages, net.MessagesLost(),
		net.VacantCount(), net.AllHeadsPresent(), sum)
}

// TestDetectorsBitIdentical drives both detectors in lockstep over a grid
// of scenarios — cycle and dual-path topologies, adjacent and scattered
// holes, spare droughts, the shortcut extension, ClaimTTL expiry on a
// lossy radio, and mid-run jamming — and requires identical observable
// state after every single round, plus identical process accounting at
// the end.
func TestDetectorsBitIdentical(t *testing.T) {
	scenarios := []diffScenario{
		{cols: 4, rows: 4, holes: 1, spares: 3},
		{cols: 8, rows: 8, holes: 4, spares: 10},
		{cols: 8, rows: 8, holes: 6, adjacent: true, spares: 4},
		{cols: 8, rows: 8, holes: 3, spares: 0},                 // no spares: walks exhaust
		{cols: 5, rows: 5, holes: 3, adjacent: true, spares: 5}, // dual path
		{cols: 7, rows: 5, holes: 4, spares: 6, shortcut: true}, // dual path + shortcut
		{cols: 16, rows: 16, holes: 8, spares: 40},
		{cols: 8, rows: 8, holes: 2, spares: 12, claimTTL: 6, loss: 0.3},
		{cols: 8, rows: 8, holes: 3, spares: 12, claimTTL: 4, loss: 0.15, adjacent: true},
		{cols: 8, rows: 8, holes: 2, spares: 20, jamRound: 3, jamCell: grid.C(6, 6)},
		{cols: 5, rows: 5, holes: 1, spares: 8, jamRound: 2, jamCell: grid.C(4, 4)}, // jam at dual-path A
	}
	for i, sc := range scenarios {
		sc := sc
		t.Run(fmt.Sprintf("scenario%02d_%dx%d", i, sc.cols, sc.rows), func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				runDiff(t, sc, seed)
			}
		})
	}
}

func runDiff(t *testing.T, sc diffScenario, seed int64) {
	t.Helper()
	netEvent, topo := buildDiffNet(t, sc, seed)
	netScan, _ := buildDiffNet(t, sc, seed)

	mk := func(net *network.Network, fullScan bool) *Controller {
		cfg := Config{
			Topology:         topo,
			RNG:              randx.New(seed * 31),
			NeighborShortcut: sc.shortcut,
			ClaimTTL:         sc.claimTTL,
			FullScanDetect:   fullScan,
		}
		c, err := New(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	event := mk(netEvent, false)
	scan := mk(netScan, true)

	maxRounds := 2*sc.cols*sc.rows + 16
	if sc.loss > 0 {
		maxRounds *= 4 // expiry and retries take extra rounds
	}
	idle := 0
	for r := 0; r < maxRounds; r++ {
		if sc.jamRound > 0 && r == sc.jamRound {
			netEvent.DisableAllInCell(sc.jamCell)
			netScan.DisableAllInCell(sc.jamCell)
		}
		if err := event.Step(); err != nil {
			t.Fatalf("seed %d round %d: event: %v", seed, r, err)
		}
		if err := scan.Step(); err != nil {
			t.Fatalf("seed %d round %d: scan: %v", seed, r, err)
		}
		if a, b := netFingerprint(netEvent, event), netFingerprint(netScan, scan); a != b {
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

// TestEventDetectRoundIsAllocationFree pins the satellite claim: once the
// buffers are warm, steady-state idle rounds allocate nothing.
func TestEventDetectRoundIsAllocationFree(t *testing.T) {
	net, topo := buildDiffNet(t, diffScenario{cols: 16, rows: 16, holes: 2, spares: 30}, 3)
	c, err := New(net, Config{Topology: topo, RNG: randx.New(9)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ { // run to convergence, warm every buffer
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("idle round allocates %.1f times", allocs)
	}
}

package core

import (
	"testing"

	"wsncover/internal/coverage"
	"wsncover/internal/grid"
	"wsncover/internal/metrics"
	"wsncover/internal/randx"
)

// TestLossyRadioRecoversWithClaimTTL puts the SR controller on a lossy
// radio: without expiry a dropped cascade notification stalls recovery
// forever; with ClaimTTL the stalled vacancy is re-detected and a fresh
// process finishes the repair.
func TestLossyRadioRecoversWithClaimTTL(t *testing.T) {
	for _, loss := range []float64{0.1, 0.3} {
		recovered := 0
		const trials = 10
		for seed := int64(0); seed < trials; seed++ {
			net, topo := scenario(t, 8, 8, []grid.Coord{grid.C(4, 4)}, []grid.Coord{grid.C(0, 0)})
			if err := net.SetMessageLoss(loss, randx.New(seed+100)); err != nil {
				t.Fatal(err)
			}
			c, err := New(net, Config{Topology: topo, RNG: randx.New(seed), ClaimTTL: 6})
			if err != nil {
				t.Fatal(err)
			}
			// Longer budget: expiry plus retries take extra rounds.
			run(t, c, 1500)
			if coverage.Complete(net) {
				recovered++
			}
		}
		if recovered != trials {
			t.Errorf("loss=%v: recovered %d/%d trials", loss, recovered, trials)
		}
	}
}

// TestLossyRadioStallsWithoutTTL documents the contrast: the paper's
// reliable-channel protocol cannot survive a lost notification.
func TestLossyRadioStallsWithoutTTL(t *testing.T) {
	stalled := 0
	const trials = 12
	for seed := int64(0); seed < trials; seed++ {
		net, topo := scenario(t, 8, 8, []grid.Coord{grid.C(4, 4)}, []grid.Coord{grid.C(0, 0)})
		// Heavy loss makes a drop along the walk very likely.
		if err := net.SetMessageLoss(0.5, randx.New(seed+200)); err != nil {
			t.Fatal(err)
		}
		c, err := New(net, Config{Topology: topo, RNG: randx.New(seed)})
		if err != nil {
			t.Fatal(err)
		}
		run(t, c, 400)
		if !coverage.Complete(net) {
			stalled++
		}
	}
	if stalled == 0 {
		t.Error("expected at least one stalled recovery at 50% loss without TTL")
	}
}

// TestClaimTTLCountsExtraProcesses verifies the accounting: recoveries
// through expiry show up as failed processes plus a converged successor.
func TestClaimTTLCountsExtraProcesses(t *testing.T) {
	var sawRetry bool
	for seed := int64(0); seed < 30 && !sawRetry; seed++ {
		net, topo := scenario(t, 8, 8, []grid.Coord{grid.C(4, 4)}, []grid.Coord{grid.C(0, 0)})
		if err := net.SetMessageLoss(0.35, randx.New(seed+300)); err != nil {
			t.Fatal(err)
		}
		c, err := New(net, Config{Topology: topo, RNG: randx.New(seed), ClaimTTL: 6})
		if err != nil {
			t.Fatal(err)
		}
		run(t, c, 1500)
		if !coverage.Complete(net) {
			t.Fatalf("seed %d: not recovered", seed)
		}
		s := c.Collector().Summarize()
		if s.Initiated > s.Converged {
			sawRetry = true
			// The last process converged; earlier ones failed by expiry.
			var converged int
			for _, p := range records(c.Collector()) {
				if p.Outcome == metrics.Converged {
					converged++
				}
			}
			if converged == 0 {
				t.Error("no converged process despite recovery")
			}
		}
	}
	if !sawRetry {
		t.Error("no trial exercised the expiry path at 35% loss; tune the test")
	}
}

// TestTTLDoesNotDisturbReliableRuns ensures ClaimTTL changes nothing when
// the radio is perfect and walks are shorter than the TTL allows.
func TestTTLDoesNotDisturbReliableRuns(t *testing.T) {
	holes := []grid.Coord{grid.C(2, 2), grid.C(6, 6)}
	spares := []grid.Coord{grid.C(1, 1), grid.C(5, 5)}
	netA, topo := scenario(t, 8, 8, holes, spares)
	a, err := New(netA, Config{Topology: topo, RNG: randx.New(4)})
	if err != nil {
		t.Fatal(err)
	}
	run(t, a, 300)

	netB, _ := scenario(t, 8, 8, holes, spares)
	b, err := New(netB, Config{Topology: topo, RNG: randx.New(4), ClaimTTL: 50})
	if err != nil {
		t.Fatal(err)
	}
	run(t, b, 300)

	sa, sb := a.Collector().Summarize(), b.Collector().Summarize()
	if sa != sb {
		t.Errorf("reliable-channel runs diverge: %v vs %v", sa, sb)
	}
}

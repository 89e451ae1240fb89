// Adversarial workloads: correlated, adaptive damage models that attack
// the scheme's recovery machinery rather than the deployment.
//
// The four kinds here each target one protocol mechanism: mover chases
// the scheme's own repairs, byzantine corrupts the monitors the detector
// trusts, resupply restores the spare pool mid-run (and rallies the
// scheme to retry holes it abandoned), and lossy drops messages so only
// the ClaimTTL expiry path keeps replacement cascades live. damage
// (workload.go) dispatches to the helpers below.
package sim

import (
	"cmp"

	"wsncover/internal/deploy"
	"wsncover/internal/geom"
	"wsncover/internal/grid"
	"wsncover/internal/network"
	"wsncover/internal/randx"
)

// moverStrikes builds the adaptive jammer's strikes, shifted by at
// rounds: over complete coverage, each strike jams a disc centered on
// the centroid of the cells the scheme repaired since the previous
// strike (a jammer tracking the defender's activity); with nothing
// repaired yet, the strike lands at a random center, like jam. The
// strikes share closure state: the vacant set recorded after each
// strike is what the next strike diffs against to find repaired cells.
func moverStrikes(spec WorkloadSpec, cfg *TrialConfig, at int) []Event {
	every, waves := cmp.Or(spec.Every, DefaultMoverEvery), cmp.Or(spec.Waves, DefaultMoverStrikes)
	radius := cmp.Or(spec.Radius, cfg.JamRadius)
	var prevVacant, cur []grid.Coord
	curSet := map[int]bool{}
	events := make([]Event, 0, waves)
	for i := 0; i < waves; i++ {
		events = append(events, Event{
			Round:   at + i*every,
			Barrier: true,
			Apply: func(net *network.Network, rng *randx.Rand, _ int) error {
				sys := net.System()
				cur = net.VacantCells(cur[:0])
				for k := range curSet {
					delete(curSet, k)
				}
				for _, c := range cur {
					curSet[sys.Index(c)] = true
				}
				// Centroid of repaired cells, iterating the recorded slice
				// (index order) so the float accumulation is deterministic.
				var sx, sy float64
				repaired := 0
				for _, c := range prevVacant {
					if !curSet[sys.Index(c)] {
						p := sys.Center(c)
						sx += p.X
						sy += p.Y
						repaired++
					}
				}
				var center geom.Point
				if repaired > 0 {
					center = geom.Point{X: sx / float64(repaired), Y: sy / float64(repaired)}
				} else {
					center = rng.InRect(sys.Bounds())
				}
				deploy.FailRegion(net, center, discRadius(radius, sys))
				prevVacant = net.VacantCells(prevVacant[:0])
				return nil
			},
		})
	}
	return events
}

// installByzantine writes the byzantine knobs into the trial config:
// liars among the monitor heads report false vacancies, spawning
// phantom replacement processes whose origin claims only the ClaimTTL
// expiry path can clear. The lying happens inside internal/core, so the
// kind is configuration plus the holes opening. A spec TTL overrides the
// campaign's claim_ttls value; with neither, the kind's default applies —
// phantom claims must be able to expire or the trial can only hit its
// round budget. SR-family schemes, sync runner only.
func installByzantine(spec WorkloadSpec, cfg *TrialConfig) {
	cfg.ByzantineFrac = cmp.Or(spec.Frac, DefaultByzantineFrac)
	cfg.ByzantineProb = cmp.Or(spec.Prob, DefaultByzantineProb)
	cfg.ByzantineLies = cmp.Or(spec.Count, DefaultByzantineLies)
	cfg.ClaimTTL = cmp.Or(spec.TTL, cfg.ClaimTTL, DefaultByzantineTTL)
}

// installLossy runs the holes scenario over a lossy radio: every
// delivery drops with probability Loss, so replacement requests and
// acknowledgements vanish mid-cascade and only ClaimTTL expiry revives
// the repair. TTL precedence matches byzantine. SR-family schemes, sync
// runner only.
func installLossy(spec WorkloadSpec, cfg *TrialConfig) {
	cfg.MessageLoss = cmp.Or(spec.Loss, DefaultLossyLoss)
	cfg.ClaimTTL = cmp.Or(spec.TTL, cfg.ClaimTTL, DefaultLossyTTL)
}

// resupplyArrivals builds the resupply events, shifted by at rounds:
// batches of fresh spare nodes that arrive mid-run. Arrivals are
// barriers (the trial must witness them) and rallies (holes the scheme
// wrote off when the spare pool ran dry become eligible again).
func resupplyArrivals(spec WorkloadSpec, at int) []Event {
	first, every := cmp.Or(spec.At, DefaultResupplyAt), cmp.Or(spec.Every, DefaultResupplyAt)
	batch, count := cmp.Or(spec.Batch, DefaultResupplyBatch), cmp.Or(spec.Count, 1)
	events := make([]Event, 0, count)
	for i := 0; i < count; i++ {
		events = append(events, Event{
			Round:   at + first + i*every,
			Barrier: true,
			Rally:   true,
			Apply: func(net *network.Network, rng *randx.Rand, _ int) error {
				return deploy.Resupply(net, batch, rng)
			},
		})
	}
	return events
}

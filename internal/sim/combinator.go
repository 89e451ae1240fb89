// Scenario grammar: workload combinators that compose the kinds into
// damage timelines, turning the kind table into a scenario generator.
//
// A combinator owns the deployment (complete coverage) and takes each
// child's damage as events at a round offset: the child's opening
// becomes an event at the offset, ahead of its own events. Sequence
// phases children apart in time, overlay stacks them at the same round,
// and random generates a seeded composition over the atomic kinds.
// Specs nest recursively (Children), bounded by MaxCompositionDepth and
// MaxChildren so a spec file or a fuzzer cannot build unbounded
// schedules.
package sim

import (
	"cmp"
	"fmt"

	"wsncover/internal/randx"
)

// specDepth measures combinator nesting: atoms are 1, a combinator is
// one more than its deepest child, and random counts its (atomic)
// generated children.
func specDepth(spec WorkloadSpec) int {
	depth := 1
	if spec.Kind == WorkloadRandom {
		depth = 2
	}
	for _, c := range spec.Children {
		if d := 1 + specDepth(c); d > depth {
			depth = d
		}
	}
	return depth
}

// validateComposition checks a combinator spec's children: present,
// bounded fan-out and depth, every child a valid spec, and their events
// together within maxEvents.
func validateComposition(spec WorkloadSpec) error {
	if len(spec.Children) == 0 {
		return fmt.Errorf("sim: workload %q needs children", spec.Kind)
	}
	if len(spec.Children) > MaxChildren {
		return fmt.Errorf("sim: workload %q has %d children (max %d)",
			spec.Kind, len(spec.Children), MaxChildren)
	}
	if d := specDepth(spec); d > MaxCompositionDepth {
		return fmt.Errorf("sim: workload %q nests %d deep (max %d)",
			spec.Kind, d, MaxCompositionDepth)
	}
	for i, c := range spec.Children {
		if _, err := BuildWorkload(c); err != nil {
			return fmt.Errorf("sim: workload %q child %d: %w", spec.Kind, i, err)
		}
	}
	if n := scheduledEvents(spec); n > maxEvents {
		return fmt.Errorf("sim: workload %q children schedule %d events, over the limit of %d", spec.Kind, n, maxEvents)
	}
	return nil
}

// scheduledEvents counts the events a valid spec's schedule holds, from
// the spec alone: a churn or mover wave, a resupply arrival, and each
// composed child's opening and events count one each. Every child is
// within maxEvents and there are at most MaxChildren of them, so the
// sum cannot overflow. A random composition draws a few default
// children, so it counts as none.
func scheduledEvents(spec WorkloadSpec) int {
	switch spec.Kind {
	case WorkloadChurn:
		return cmp.Or(spec.Waves, DefaultChurnWaves)
	case WorkloadMover:
		return cmp.Or(spec.Waves, DefaultMoverStrikes)
	case WorkloadResupply:
		return cmp.Or(spec.Count, 1)
	case WorkloadSequence, WorkloadOverlay:
		n := 0
		for _, c := range spec.Children {
			n += 1 + scheduledEvents(c)
		}
		return n
	}
	return 0
}

// compose collects a combinator's children at their offsets: a sequence
// starts child i at at+i*gap, an overlay starts every child at at.
func compose(spec WorkloadSpec, cfg *TrialConfig, at int) ([]Event, error) {
	gap := 0
	if spec.Kind == WorkloadSequence {
		gap = cmp.Or(spec.Every, DefaultPhaseGap)
	}
	var events []Event
	for i, child := range spec.Children {
		start := at + i*gap
		open, evs, err := damage(child, cfg, start)
		if err != nil {
			return nil, err
		}
		if ev, ok := open.event(start); ok {
			events = append(events, ev)
		}
		events = append(events, evs...)
	}
	return events, nil
}

// generateRandom draws a random spec's composition: Pick seeds a private
// generator (independent of the trial seed, so every replicate of a
// campaign group faces the same scenario) that draws Count child kinds
// and a combinator to wrap them in. Byzantine and lossy children are
// only eligible when the trial can host them (SR-family scheme, sync
// runner), resupply only on the sync runner.
func generateRandom(spec WorkloadSpec, cfg *TrialConfig) WorkloadSpec {
	count := cmp.Or(spec.Count, DefaultRandomCount)
	rng := randx.New(spec.Pick)
	pool := []string{
		WorkloadHoles, WorkloadJam, WorkloadChurn,
		WorkloadDepletion, WorkloadMover,
	}
	if cfg.Runner == RunSync {
		pool = append(pool, WorkloadResupply)
	}
	if (cfg.Scheme == SR || cfg.Scheme == SRShortcut) && cfg.Runner == RunSync {
		pool = append(pool, WorkloadByzantine, WorkloadLossy)
	}
	children := make([]WorkloadSpec, 0, count)
	for i := 0; i < count; i++ {
		children = append(children, WorkloadSpec{Kind: pool[rng.Intn(len(pool))]})
	}
	kind := WorkloadOverlay
	if rng.Bool(0.5) {
		kind = WorkloadSequence
	}
	return WorkloadSpec{Kind: kind, Children: children}
}

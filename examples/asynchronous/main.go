// Asynchronous: the paper's schemes described in a round-based system
// "can be extended easily to an asynchronous system" (Section 2). This
// example runs the event-driven SR controller: heads poll with jitter,
// notifications have transmission latency, and movements take real travel
// time at a configured speed — then compares the movement cost with the
// synchronous controller on the same layout.
//
// Run with: go run ./examples/asynchronous
package main

import (
	"fmt"
	"log"

	"wsncover/internal/async"
	"wsncover/internal/core"
	"wsncover/internal/coverage"
	"wsncover/internal/deploy"
	"wsncover/internal/geom"
	"wsncover/internal/grid"
	"wsncover/internal/hamilton"
	"wsncover/internal/metrics"
	"wsncover/internal/network"
	"wsncover/internal/node"
	"wsncover/internal/randx"
	"wsncover/internal/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// build creates the damaged test network: 10x10 grid, 40 spares, 4 holes.
func build(seed int64) (*network.Network, *hamilton.Topology, error) {
	rng := randx.New(seed)
	sys, err := grid.NewForCommRange(10, 10, 10, geom.Pt(0, 0))
	if err != nil {
		return nil, nil, err
	}
	net := network.New(sys, node.EnergyModel{})
	holes, err := deploy.PickHoleCells(sys, 4, true, rng.Split(1))
	if err != nil {
		return nil, nil, err
	}
	if err := deploy.Controlled(net, 40, holes, rng.Split(2)); err != nil {
		return nil, nil, err
	}
	topo, err := hamilton.Build(sys)
	if err != nil {
		return nil, nil, err
	}
	return net, topo, nil
}

func run() error {
	const seed = 99

	// Asynchronous run: slow radios (50 ms +/- jitter), 1.5 m/s movers,
	// heads polling every 2 s.
	netA, topoA, err := build(seed)
	if err != nil {
		return err
	}
	actrl, err := async.New(netA, async.Config{
		Topology:     topoA,
		RNG:          randx.New(seed),
		MsgDelay:     0.05,
		MsgJitter:    0.02,
		MoveSpeed:    1.5,
		PollInterval: 2.0,
	})
	if err != nil {
		return err
	}
	events, err := actrl.RunUntil(3600) // one simulated hour is plenty
	if err != nil {
		return err
	}
	sA := actrl.Collector().Summarize()
	fmt.Printf("asynchronous SR: recovered in %.1f simulated seconds (%d events)\n",
		actrl.Now(), events)
	printSummary(sA, coverage.Complete(netA))

	// Synchronous run on the identical layout for comparison.
	netS, topoS, err := build(seed)
	if err != nil {
		return err
	}
	sctrl, err := core.New(netS, core.Config{Topology: topoS, RNG: randx.New(seed)})
	if err != nil {
		return err
	}
	rounds, err := sim.RunSchedule(sctrl, netS, sim.Schedule{}, nil, 500)
	if err != nil {
		return err
	}
	sS := sctrl.Collector().Summarize()
	fmt.Printf("\nsynchronous SR: recovered in %d rounds\n", rounds)
	printSummary(sS, coverage.Complete(netS))

	fmt.Println("\nBoth controllers make the same kind of walk; asynchrony changes")
	fmt.Println("timing (polling latency, travel time) but not the movement economics")
	fmt.Println("or the one-process-per-hole guarantee.")
	return nil
}

func printSummary(s metrics.Summary, complete bool) {
	fmt.Printf("  processes=%d converged=%d moves=%d distance=%.1f m complete=%v\n",
		s.Initiated, s.Converged, s.Moves, s.Distance, complete)
}

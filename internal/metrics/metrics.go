// Package metrics tracks the cost measures the paper evaluates: the
// number of replacement processes initiated, their success rate, the
// number of node movements, and the total moving distance.
package metrics

import (
	"fmt"

	"wsncover/internal/grid"
)

// Outcome is the final state of a replacement process.
type Outcome int

// Process outcomes. Enums start at 1 so the zero value is invalid.
const (
	// Active processes are still cascading.
	Active Outcome = iota + 1
	// Converged processes found a spare node and filled their hole.
	Converged
	// Failed processes exhausted their search without finding a spare.
	Failed
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Active:
		return "active"
	case Converged:
		return "converged"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Replacement records the life of one replacement process.
type Replacement struct {
	// ID is the process identity, unique within a collector.
	ID int
	// Origin is the hole grid the process serves.
	Origin grid.Coord
	// StartRound and EndRound bracket the process in simulation rounds;
	// EndRound is -1 while Active.
	StartRound int
	EndRound   int
	// Hops counts the grids the cascade visited.
	Hops int
	// Moves counts the node movements performed by this process.
	Moves int
	// Distance is the total moving distance of this process.
	Distance float64
	// Outcome is the process's current state.
	Outcome Outcome
}

// Collector accumulates per-process records and scheme-wide counters
// during one simulation run.
type Collector struct {
	procs    []Replacement
	messages int
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Reset empties the collector in place, keeping the process-record
// capacity, so pooled trial arenas reuse one collector across
// replicates instead of reallocating the record slice every trial.
func (c *Collector) Reset() {
	c.procs = c.procs[:0]
	c.messages = 0
}

// StartProcess registers a new replacement process and returns its id.
func (c *Collector) StartProcess(origin grid.Coord, round int) int {
	id := len(c.procs)
	c.procs = append(c.procs, Replacement{
		ID:         id,
		Origin:     origin,
		StartRound: round,
		EndRound:   -1,
		Outcome:    Active,
	})
	return id
}

// Process returns a pointer to the record of process id, or nil when
// unknown. The pointer stays valid until the next StartProcess.
func (c *Collector) Process(id int) *Replacement {
	if id < 0 || id >= len(c.procs) {
		return nil
	}
	return &c.procs[id]
}

// RecordHop charges one cascade hop to process id.
func (c *Collector) RecordHop(id int) {
	if p := c.Process(id); p != nil {
		p.Hops++
	}
}

// RecordMove charges one node movement of the given distance to process
// id.
func (c *Collector) RecordMove(id int, distance float64) {
	if p := c.Process(id); p != nil {
		p.Moves++
		p.Distance += distance
	}
}

// RecordMessage counts one control message.
func (c *Collector) RecordMessage() { c.messages++ }

// Finish marks process id converged or failed at the given round.
func (c *Collector) Finish(id int, outcome Outcome, round int) {
	if p := c.Process(id); p != nil && p.Outcome == Active {
		p.Outcome = outcome
		p.EndRound = round
	}
}

// Summary aggregates a run's cost measures, in the units the paper's
// figures use.
type Summary struct {
	// Initiated is the number of replacement processes started (Fig 6a).
	Initiated int
	// Converged and Failed partition the finished processes; the success
	// rate of Fig 6b is Converged/Initiated.
	Converged int
	Failed    int
	// Active is the number of processes still running (0 after a
	// converged simulation).
	Active int
	// Moves is the total number of node movements (Fig 7).
	Moves int
	// Distance is the total moving distance (Fig 8).
	Distance float64
	// Messages is the number of control messages sent.
	Messages int
	// MaxHops is the longest cascade observed.
	MaxHops int
	// Rounds is the last round at which any process finished.
	Rounds int
}

// SuccessRate returns the percentage of initiated processes that
// converged, or 100 when none were needed (complete coverage needs no
// repair).
func (s Summary) SuccessRate() float64 {
	if s.Initiated == 0 {
		return 100
	}
	return 100 * float64(s.Converged) / float64(s.Initiated)
}

// Summarize folds the collector into a Summary.
func (c *Collector) Summarize() Summary {
	var s Summary
	s.Initiated = len(c.procs)
	s.Messages = c.messages
	for i := range c.procs {
		p := &c.procs[i]
		switch p.Outcome {
		case Converged:
			s.Converged++
		case Failed:
			s.Failed++
		default:
			s.Active++
		}
		s.Moves += p.Moves
		s.Distance += p.Distance
		if p.Hops > s.MaxHops {
			s.MaxHops = p.Hops
		}
		if p.EndRound > s.Rounds {
			s.Rounds = p.EndRound
		}
	}
	return s
}

// Add merges another summary into s (for aggregating trials).
func (s Summary) Add(o Summary) Summary {
	s.Initiated += o.Initiated
	s.Converged += o.Converged
	s.Failed += o.Failed
	s.Active += o.Active
	s.Moves += o.Moves
	s.Distance += o.Distance
	s.Messages += o.Messages
	if o.MaxHops > s.MaxHops {
		s.MaxHops = o.MaxHops
	}
	if o.Rounds > s.Rounds {
		s.Rounds = o.Rounds
	}
	return s
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("procs=%d ok=%d fail=%d moves=%d dist=%.1f msgs=%d success=%.1f%%",
		s.Initiated, s.Converged, s.Failed, s.Moves, s.Distance, s.Messages, s.SuccessRate())
}

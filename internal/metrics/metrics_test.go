package metrics

import (
	"math"
	"testing"

	"wsncover/internal/grid"
)

func TestCollectorLifecycle(t *testing.T) {
	c := NewCollector()
	id := c.StartProcess(grid.C(2, 3), 5)
	if id != 0 {
		t.Errorf("first id = %d", id)
	}
	id2 := c.StartProcess(grid.C(1, 1), 6)
	if id2 != 1 {
		t.Errorf("second id = %d", id2)
	}

	c.RecordHop(id)
	c.RecordHop(id)
	c.RecordMove(id, 4.5)
	c.RecordMove(id, 5.5)
	c.RecordMessage()
	c.Finish(id, Converged, 9)

	p := c.Process(id)
	if p == nil {
		t.Fatal("Process returned nil")
	}
	if p.Hops != 2 || p.Moves != 2 || math.Abs(p.Distance-10) > 1e-12 {
		t.Errorf("record = %+v", p)
	}
	if p.Outcome != Converged || p.EndRound != 9 || p.StartRound != 5 {
		t.Errorf("record = %+v", p)
	}
	if p.Origin != grid.C(2, 3) {
		t.Errorf("origin = %v", p.Origin)
	}
}

func TestFinishIdempotent(t *testing.T) {
	c := NewCollector()
	id := c.StartProcess(grid.C(0, 0), 1)
	c.Finish(id, Converged, 3)
	c.Finish(id, Failed, 7) // must not overwrite
	if p := c.Process(id); p.Outcome != Converged || p.EndRound != 3 {
		t.Errorf("record = %+v", p)
	}
}

func TestUnknownProcessSafe(t *testing.T) {
	c := NewCollector()
	if c.Process(-1) != nil || c.Process(5) != nil {
		t.Error("unknown ids should yield nil")
	}
	// These must not panic.
	c.RecordHop(9)
	c.RecordMove(9, 1)
	c.Finish(9, Failed, 1)
}

func TestSummarize(t *testing.T) {
	c := NewCollector()
	a := c.StartProcess(grid.C(0, 0), 0)
	b := c.StartProcess(grid.C(1, 0), 0)
	d := c.StartProcess(grid.C(2, 0), 0)
	for i := 0; i < 3; i++ {
		c.RecordHop(a)
		c.RecordMove(a, 2)
	}
	c.RecordHop(b)
	c.RecordMove(b, 3)
	c.RecordMessage()
	c.RecordMessage()
	c.Finish(a, Converged, 4)
	c.Finish(b, Failed, 2)
	// d stays active.
	_ = d

	s := c.Summarize()
	if s.Initiated != 3 || s.Converged != 1 || s.Failed != 1 || s.Active != 1 {
		t.Errorf("summary = %+v", s)
	}
	if s.Moves != 4 || math.Abs(s.Distance-9) > 1e-12 {
		t.Errorf("summary = %+v", s)
	}
	if s.Messages != 2 || s.MaxHops != 3 || s.Rounds != 4 {
		t.Errorf("summary = %+v", s)
	}
	want := 100.0 / 3
	if math.Abs(s.SuccessRate()-want) > 1e-9 {
		t.Errorf("SuccessRate = %v, want %v", s.SuccessRate(), want)
	}
	if s.String() == "" {
		t.Error("String empty")
	}
}

func TestSuccessRateNoProcesses(t *testing.T) {
	var s Summary
	if s.SuccessRate() != 100 {
		t.Errorf("no processes needed should read 100%%, got %v", s.SuccessRate())
	}
}

func TestSummaryAdd(t *testing.T) {
	a := Summary{Initiated: 2, Converged: 1, Failed: 1, Moves: 5, Distance: 7, Messages: 3, MaxHops: 4, Rounds: 9}
	b := Summary{Initiated: 3, Converged: 3, Moves: 2, Distance: 1, Messages: 1, MaxHops: 6, Rounds: 2}
	s := a.Add(b)
	if s.Initiated != 5 || s.Converged != 4 || s.Failed != 1 {
		t.Errorf("sum = %+v", s)
	}
	if s.Moves != 7 || s.Distance != 8 || s.Messages != 4 {
		t.Errorf("sum = %+v", s)
	}
	if s.MaxHops != 6 || s.Rounds != 9 {
		t.Errorf("sum = %+v", s)
	}
}

func TestOutcomeString(t *testing.T) {
	if Active.String() != "active" || Converged.String() != "converged" || Failed.String() != "failed" {
		t.Error("Outcome strings")
	}
	if Outcome(9).String() == "" {
		t.Error("invalid outcome should render")
	}
}

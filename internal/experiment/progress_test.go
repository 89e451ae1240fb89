package experiment

import (
	"testing"

	"wsncover/internal/stats"
)

func TestProgressLineRoundTrip(t *testing.T) {
	p := Progress{Done: 12, Total: 40, Group: "SR 16x16"}
	line := p.MarshalLine()
	if line[len(line)-1] != '\n' {
		t.Fatalf("MarshalLine %q must end in newline", line)
	}
	got, kind := ClassifyProgressLine(line)
	if kind != LineEvent || got != p {
		t.Errorf("round trip = %+v, %v; want %+v", got, kind, p)
	}
	if want := `{"done":12,"total":40,"group":"SR 16x16"}` + "\n"; string(line) != want {
		t.Errorf("wire form %q, want %q", line, want)
	}
	// The groupless form omits the group key entirely.
	bare := Progress{Done: 0, Total: 40}
	if want := `{"done":0,"total":40}` + "\n"; string(bare.MarshalLine()) != want {
		t.Errorf("bare wire form %q, want %q", bare.MarshalLine(), want)
	}
}

// TestParseProgressLineSkipsChatter: a supervisor scans the worker's
// whole stdout; anything that is not a well-formed event yields no
// event, and never an error.
func TestParseProgressLineSkipsChatter(t *testing.T) {
	for _, line := range []string{
		"",
		"   ",
		"wrote out/shard1.json (4 jobs, 2 points)",
		"resume: 2 cells already in out/shard1.json, ran 2 new trials",
		"{not json",
		`{"done":5,"total":0}`,  // zero total: not a live event
		`{"done":-1,"total":4}`, // negative done
		`{"done":9,"total":4}`,  // done past total
	} {
		if p, kind := ClassifyProgressLine([]byte(line)); kind == LineEvent {
			t.Errorf("ClassifyProgressLine(%q) accepted %+v", line, p)
		}
	}
	if p, kind := ClassifyProgressLine([]byte("  {\"done\":4,\"total\":4}\r\n")); kind != LineEvent || p.Done != 4 {
		t.Errorf("padded line = %+v, %v", p, kind)
	}
}

// TestClassifyProgressLine pins the heartbeat contract: chatter is
// ignorable, malformed near-protocol is distinguishable (it must burn
// the worker's lease, not renew it), and only valid events heartbeat.
func TestClassifyProgressLine(t *testing.T) {
	cases := []struct {
		line string
		want LineKind
	}{
		{"", LineChatter},
		{"wrote out/shard1.json (4 jobs, 2 points)", LineChatter},
		{"   ", LineChatter},
		{`{"done":2,"total":4}`, LineEvent},
		{"  {\"done\":4,\"total\":4}\r\n", LineEvent},
		{"{not json", LineMalformed},
		{`{"done":`, LineMalformed},             // truncated write
		{`{"done":5,"total":0}`, LineMalformed}, // invariant violation
		{`{"done":9,"total":4}`, LineMalformed}, // done past total
		{`{"done":2,"total":4,"group_done":-1}`, LineMalformed},
		{"{\"done\":2,\xff\xfe", LineMalformed}, // corrupted bytes
	}
	for _, c := range cases {
		p, kind := ClassifyProgressLine([]byte(c.line))
		if kind != c.want {
			t.Errorf("ClassifyProgressLine(%q) = %v, want %v", c.line, kind, c.want)
		}
		if kind != LineEvent && p != (Progress{}) {
			t.Errorf("ClassifyProgressLine(%q) leaked a payload %+v from a non-event", c.line, p)
		}
	}
}

func TestMergeProgress(t *testing.T) {
	fleet := MergeProgress(
		Progress{Done: 3, Total: 10, Group: "SR"},
		Progress{Done: 0, Total: 10},
		Progress{Done: 10, Total: 10, Group: "AR"},
	)
	if fleet.Done != 13 || fleet.Total != 30 || fleet.Group != "" {
		t.Errorf("fleet = %+v", fleet)
	}
	// Agreement across every reporting shard keeps the group.
	same := MergeProgress(Progress{Done: 1, Total: 2, Group: "SR"}, Progress{Done: 2, Total: 2, Group: "SR"})
	if same.Group != "SR" {
		t.Errorf("agreeing groups lost: %+v", same)
	}
	if got := MergeProgress(); got != (Progress{}) {
		t.Errorf("empty fold = %+v", got)
	}
	if f := (Progress{Done: 1, Total: 4}).Fraction(); f != 0.25 {
		t.Errorf("Fraction = %g", f)
	}
	if f := (Progress{}).Fraction(); f != 0 {
		t.Errorf("zero-total Fraction = %g", f)
	}
	if s := (Progress{Done: 1, Total: 4, Group: "g"}).String(); s != "1/4 [g]" {
		t.Errorf("String = %q", s)
	}
}

// TestProgressGroupDone pins the per-group extension of the protocol:
// the optional group_done count round-trips, is omitted when zero, and
// is validated like done.
func TestProgressGroupDone(t *testing.T) {
	p := Progress{Done: 12, Total: 40, Group: "SR 16x16", GroupDone: 3}
	line := p.MarshalLine()
	if want := `{"done":12,"total":40,"group":"SR 16x16","group_done":3}` + "\n"; string(line) != want {
		t.Errorf("wire form %q, want %q", line, want)
	}
	got, kind := ClassifyProgressLine(line)
	if kind != LineEvent || got != p {
		t.Errorf("round trip = %+v, %v; want %+v", got, kind, p)
	}
	// Older emitters omit group_done; the parser must keep accepting them.
	if got, kind := ClassifyProgressLine([]byte(`{"done":2,"total":4,"group":"SR"}`)); kind != LineEvent || got.GroupDone != 0 {
		t.Errorf("legacy event = %+v, %v", got, kind)
	}
	for _, line := range []string{
		`{"done":2,"total":4,"group":"SR","group_done":-1}`, // negative
		`{"done":2,"total":4,"group":"SR","group_done":5}`,  // past total
	} {
		if p, kind := ClassifyProgressLine([]byte(line)); kind == LineEvent {
			t.Errorf("ClassifyProgressLine(%q) accepted %+v", line, p)
		}
	}
}

// TestMergeProgressGroupDone: the fleet-wide per-group count sums over
// shards only while the merged event keeps its group label; a mixed or
// absent group zeroes it, because counts from different groups are
// incomparable.
func TestMergeProgressGroupDone(t *testing.T) {
	same := MergeProgress(
		Progress{Done: 3, Total: 10, Group: "SR", GroupDone: 3},
		Progress{Done: 5, Total: 10, Group: "SR", GroupDone: 5},
		Progress{Total: 10}, // a shard that has not reported a group yet
	)
	if same.Group != "SR" || same.GroupDone != 8 {
		t.Errorf("agreeing merge = %+v, want group SR done 8", same)
	}
	mixed := MergeProgress(
		Progress{Done: 3, Total: 10, Group: "SR", GroupDone: 3},
		Progress{Done: 5, Total: 10, Group: "AR", GroupDone: 5},
	)
	if mixed.Group != "" || mixed.GroupDone != 0 {
		t.Errorf("mixed merge = %+v, want groupless with zero GroupDone", mixed)
	}
	// Zero-total events (shards not yet started) fold harmlessly.
	cold := MergeProgress(Progress{}, Progress{}, Progress{Done: 1, Total: 4, Group: "SR", GroupDone: 1})
	if cold.Done != 1 || cold.Total != 4 || cold.GroupDone != 1 {
		t.Errorf("cold-fleet merge = %+v", cold)
	}
}

// TestAccumulatorMarksEstimatedMedians: the streaming fold is exact (and
// says so) through five observations, an estimate (and says so) beyond.
func TestAccumulatorMarksEstimatedMedians(t *testing.T) {
	feed := func(n int) stats.Description {
		acc := NewAccumulator()
		for i := 0; i < n; i++ {
			acc.Add(Sample{Group: "g", X: 1, Values: map[string]float64{"m": float64(i)}})
		}
		return acc.Points()[0].Metrics["m"]
	}
	if d := feed(5); d.MedianApprox || d.Median != 2 {
		t.Errorf("n=5: %+v, want exact median 2", d)
	}
	if d := feed(6); !d.MedianApprox {
		t.Errorf("n=6: %+v, want MedianApprox", d)
	}
}

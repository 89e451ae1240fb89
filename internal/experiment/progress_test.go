package experiment

import (
	"encoding/json"
	"testing"

	"wsncover/internal/stats"
)

// TestProgressGroupDone pins the dashboard payload's per-group field:
// group_done is present when positive and omitted when zero, like the
// group it counts.
func TestProgressGroupDone(t *testing.T) {
	for _, c := range []struct {
		p    Progress
		want string
	}{
		{Progress{Done: 12, Total: 40, Group: "SR 16x16", GroupDone: 3}, `{"done":12,"total":40,"group":"SR 16x16","group_done":3}`},
		{Progress{Done: 0, Total: 40}, `{"done":0,"total":40}`},
	} {
		b, err := json.Marshal(c.p)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != c.want {
			t.Errorf("wire form %s, want %s", b, c.want)
		}
		var back Progress
		if err := json.Unmarshal(b, &back); err != nil || back != c.p {
			t.Errorf("round trip = %+v, %v; want %+v", back, err, c.p)
		}
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

package dispatch

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"wsncover/internal/telemetry"
)

// testClock is a manually advanced time source.
type testClock struct{ t time.Time }

func newTestClock() *testClock {
	return &testClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *testClock) now() time.Time          { return c.t }
func (c *testClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// views builds a fold's group list from name/total pairs.
func views(pairs ...any) []telemetry.GroupView {
	var out []telemetry.GroupView
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, telemetry.GroupView{Group: pairs[i].(string), Total: pairs[i+1].(int)})
	}
	return out
}

// localMeter wires a started LocalProgress on clock into a Meter: the
// in-process progress line, throttled and stamped at its source. The
// opening snapshot is not in buf.
func localMeter(buf *strings.Builder, clock *testClock, groups []telemetry.GroupView) *LocalProgress {
	p := NewLocalProgress(groups, NewMeter(buf).Update)
	p.now = clock.now
	p.Start()
	buf.Reset()
	return p
}

func TestMeter(t *testing.T) {
	var buf strings.Builder
	clock := newTestClock()
	p := localMeter(&buf, clock, views("only", 400))
	p.done = 99
	clock.advance(2 * time.Second)
	p.Trial("only")
	out := buf.String()
	if !strings.Contains(out, "100/400 trials") {
		t.Errorf("meter output %q lacks completed/total", out)
	}
	if !strings.Contains(out, "trials/s") || !strings.Contains(out, "ETA") {
		t.Errorf("meter output %q lacks rate or ETA", out)
	}
	if strings.Contains(out, "groups") {
		t.Errorf("single-group meter %q must not render a group breakdown", out)
	}
	if p.done != 100 {
		t.Errorf("done = %d", p.done)
	}

	// Rapid updates are throttled; the final update always renders and
	// reports the elapsed time instead of an ETA.
	buf.Reset()
	clock.advance(50 * time.Millisecond)
	p.Trial("only")
	if buf.Len() != 0 {
		t.Errorf("throttled update rendered %q", buf.String())
	}
	p.done = 399
	p.Trial("only")
	if out := buf.String(); !strings.Contains(out, "400/400 trials") || !strings.Contains(out, "in ") ||
		!strings.HasSuffix(out, "\n") {
		t.Errorf("final output %q", out)
	}
	// The last trial already ended the stream; End adds nothing.
	buf.Reset()
	p.End()
	if buf.Len() != 0 {
		t.Errorf("End after the last trial rendered %q", buf.String())
	}

	// A run with nothing left to execute ends on a 0/0 snapshot: no
	// division by zero, and the elapsed time instead of an ETA.
	buf.Reset()
	empty := localMeter(&buf, clock, nil)
	empty.End()
	if out := buf.String(); !strings.Contains(out, "0/0 trials  0 trials/s  in ") ||
		strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("empty-run output %q", out)
	}
}

// TestMeterGroupBreakdown exercises the wide-campaign path: the meter
// tracks per-group completion, names the advancing group, and counts
// fully finished groups.
func TestMeterGroupBreakdown(t *testing.T) {
	var buf strings.Builder
	clock := newTestClock()
	p := localMeter(&buf, clock, views("SR 16x16", 2, "AR 16x16", 2))

	clock.advance(2 * time.Second)
	p.Trial("SR 16x16")
	out := buf.String()
	if !strings.Contains(out, "groups 0/2") || !strings.Contains(out, "[SR 16x16 1/2]") {
		t.Errorf("meter output %q lacks the group breakdown", out)
	}

	buf.Reset()
	clock.advance(time.Second)
	p.Trial("SR 16x16")
	if out := buf.String(); !strings.Contains(out, "groups 1/2") {
		t.Errorf("meter output %q should count the finished group", out)
	}

	clock.advance(time.Second)
	p.Trial("AR 16x16")
	buf.Reset()
	clock.advance(time.Second)
	p.Trial("AR 16x16")
	if out := buf.String(); !strings.Contains(out, "4/4 trials") || !strings.Contains(out, "groups 2/2") {
		t.Errorf("final output %q", out)
	}
}

// TestMeterShardTotals pins the sharded-meter contract: a meter sized
// from a shard's executed jobs renders the shard's own trial count as
// the denominator, never the full campaign's trial count. (cmd/sweep
// sizes LocalProgress from LocalRun.Executed; its CLI-level regression
// test covers the wiring, this covers the rendering.)
func TestMeterShardTotals(t *testing.T) {
	var buf strings.Builder
	clock := newTestClock()
	// Campaign: 20 trials; this shard owns 5.
	p := localMeter(&buf, clock, views("SR 8x8", 5))
	clock.advance(time.Second)
	p.Trial("SR 8x8")
	out := buf.String()
	if !strings.Contains(out, "1/5 trials") {
		t.Errorf("shard meter rendered %q, want the shard's own total 1/5", out)
	}
	if strings.Contains(out, "/20") {
		t.Errorf("shard meter %q leaked the full campaign total", out)
	}
	// ETA derives from the shard total too: 1 trial/s, 4 left -> 4s.
	if !strings.Contains(out, "ETA 4s") {
		t.Errorf("shard meter %q: ETA must be computed from the shard's remaining trials", out)
	}
}

// TestLocalProgressSnapshots pins the source throttle's contract: an
// opening 0/total snapshot, every group's first and last trial, and the
// terminal snapshot always go out, Groups follows the run's group
// order, and the terminal snapshot is groupless.
func TestLocalProgressSnapshots(t *testing.T) {
	clock := newTestClock()
	var got []telemetry.Snapshot
	collect := func(s telemetry.Snapshot) { got = append(got, s) }
	p := NewLocalProgress(views("SR", 3, "AR", 2), collect)
	p.now = clock.now
	p.Start()
	for _, g := range []string{"SR", "SR", "SR", "AR"} {
		p.Trial(g) // SR#2 is the only throttled trial
	}
	clock.advance(time.Second)
	p.Trial("AR")
	p.End() // already terminal: no second terminal snapshot

	type ev struct {
		done, groupDone int
		group           string
		final           bool
	}
	want := []ev{{0, 0, "", false}, {1, 1, "SR", false}, {3, 3, "SR", false}, {4, 1, "AR", false}, {5, 0, "", true}}
	if len(got) != len(want) {
		t.Fatalf("got %d snapshots, want %d: %+v", len(got), len(want), got)
	}
	for i, s := range got {
		e := ev{s.Progress.Done, s.Progress.GroupDone, s.Progress.Group, s.Final}
		if e != want[i] || s.Progress.Total != 5 {
			t.Errorf("snapshot %d = %+v (%+v), want %+v of 5", i, e, s.Progress, want[i])
		}
		if len(s.Groups) != 2 || s.Groups[0].Group != "SR" || s.Groups[1].Group != "AR" ||
			s.Groups[0].Total != 3 || s.Groups[1].Total != 2 {
			t.Errorf("snapshot %d groups = %+v, want SR/3 then AR/2", i, s.Groups)
		}
	}
	if got[2].Groups[0].Done != 3 || got[1].Groups[0].Done != 1 {
		t.Errorf("snapshots share group counts: %+v then %+v", got[1].Groups, got[2].Groups)
	}

	// A run with nothing to execute sends only its terminal snapshot; a
	// cancelled one ends its stream on End.
	got = nil
	empty := NewLocalProgress(nil, collect)
	empty.Start()
	empty.End()
	if len(got) != 1 || !got[0].Final || got[0].Progress.Total != 0 || got[0].Groups != nil {
		t.Errorf("empty run snapshots = %+v, want one terminal 0/0", got)
	}
	got = nil
	cut := NewLocalProgress(views("SR", 4), collect)
	cut.Start()
	cut.Trial("SR")
	cut.End()
	if len(got) != 3 || !got[2].Final || got[2].Progress.Done != 1 {
		t.Errorf("cancelled run snapshots = %+v, want a terminal 1/4 last", got)
	}
}

// TestLocalProgressStamps: LocalProgress stamps each snapshot with the
// elapsed time since Start, the rate so far and the ETA, off its own
// clock. A rate of zero, or nothing left to do, makes the ETA unknown
// (-1), and no state divides by zero.
func TestLocalProgressStamps(t *testing.T) {
	clock := newTestClock()
	var got []telemetry.Snapshot
	collect := func(s telemetry.Snapshot) { got = append(got, s) }
	p := NewLocalProgress(views("SR", 4), collect)
	p.now = clock.now
	p.Start()
	clock.advance(2 * time.Second)
	p.Trial("SR") // a group's first trial: 1 done in 2s
	p.Trial("SR") // throttled
	p.Trial("SR") // throttled
	clock.advance(2 * time.Second)
	p.Trial("SR") // final

	type stamp struct{ elapsed, rate, eta float64 }
	want := []stamp{{0, 0, -1}, {2, 0.5, 6}, {4, 1, -1}}
	if len(got) != len(want) {
		t.Fatalf("got %d snapshots, want %d: %+v", len(got), len(want), got)
	}
	for i, s := range got {
		if e := (stamp{s.ElapsedS, s.TrialsPerS, s.ETAS}); e != want[i] {
			t.Errorf("snapshot %d stamped %+v, want %+v", i, e, want[i])
		}
	}

	got = nil
	empty := NewLocalProgress(nil, collect)
	empty.now = clock.now
	empty.Start()
	empty.End()
	if len(got) != 1 || got[0].ElapsedS != 0 || got[0].TrialsPerS != 0 || got[0].ETAS != -1 {
		t.Errorf("zero-state snapshot = %+v, want rate 0 and eta -1", got)
	}
}

// TestPublishLocalGroupBoundariesAndFinal: an in-process run drives the
// dashboard hub directly. Throttled trials publish nothing, a group
// completing forces a publication carrying that group at its total,
// the hub renders the heatmap, and the terminal publication is final
// and groupless.
func TestPublishLocalGroupBoundariesAndFinal(t *testing.T) {
	hub := telemetry.NewHub()
	sub := hub.Subscribe()
	clock := newTestClock()
	p := NewLocalProgress(views("SR", 3, "AR", 2), hub.Publish)
	p.now = clock.now
	p.Start()
	clock.advance(time.Second)
	p.Trial("SR") // a group's first trial: publishes
	p.Trial("SR") // throttled
	p.Trial("SR") // group boundary: forces a publication
	p.Trial("AR") // a group's first trial: publishes
	clock.advance(time.Second)
	p.Trial("AR") // final

	var got []telemetry.Snapshot
	for len(sub.Events()) > 0 {
		var s telemetry.Snapshot
		if err := json.Unmarshal(<-sub.Events(), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 5 {
		t.Fatalf("got %d snapshots, want 5 (opening, first, boundary, first, final): %+v", len(got), got)
	}
	boundary := got[2]
	if boundary.Progress.Group != "SR" || boundary.Progress.GroupDone != 3 {
		t.Errorf("boundary progress = %+v, want group SR done 3", boundary.Progress)
	}
	if len(boundary.Groups) != 2 || boundary.Groups[0].Group != "SR" || boundary.Groups[0].Done != 3 {
		t.Errorf("boundary groups = %+v", boundary.Groups)
	}
	if boundary.Heatmap == "" || !strings.Contains(boundary.Heatmap, "SR") {
		t.Errorf("boundary heatmap = %q", boundary.Heatmap)
	}
	final := got[4]
	if !final.Final || final.Progress.Done != 5 || final.Progress.Group != "" {
		t.Errorf("final = %+v, want groupless 5/5 final", final)
	}
	// AR's first and last trials both published, one second apart.
	if got[3].Progress.Group != "AR" || final.ElapsedS-got[3].ElapsedS != 1 {
		t.Errorf("AR spans %v..%v, want its first and last trial 1s apart", got[3], final)
	}
	if spans := p.GroupSeconds(); len(spans) != 2 || spans["SR"] != 0 || spans["AR"] != 1 {
		t.Errorf("group spans = %v, want SR 0s and AR 1s", spans)
	}
}

func TestFormatETA(t *testing.T) {
	cases := map[time.Duration]string{
		500 * time.Millisecond:                                 "<1s",
		42 * time.Second:                                       "42s",
		59*time.Second + 700*time.Millisecond:                  "1m00s", // rounds across the unit boundary
		3*time.Minute + 7*time.Second:                          "3m07s",
		59*time.Minute + 59*time.Second + 800*time.Millisecond: "1h00m",
		2*time.Hour + 5*time.Minute:                            "2h05m",
		26*time.Hour + 30*time.Minute:                          "26h30m",
	}
	for d, want := range cases {
		if got := FormatETA(d); got != want {
			t.Errorf("FormatETA(%v) = %q, want %q", d, got, want)
		}
	}
}

// TestSnapshotFinal: only the run's last snapshot is final.
func TestSnapshotFinal(t *testing.T) {
	var got []telemetry.Snapshot
	p := NewLocalProgress(views("SR", 2), func(s telemetry.Snapshot) { got = append(got, s) })
	p.Start()
	p.Trial("SR")
	p.Trial("SR")
	if len(got) != 3 || got[0].Final || got[1].Final || !got[2].Final {
		t.Errorf("snapshots %+v, want only the last final", got)
	}
}

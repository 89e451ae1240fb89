package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func drain(sub *Subscriber) []Snapshot {
	var out []Snapshot
	for {
		select {
		case b, open := <-sub.Events():
			if !open {
				return out
			}
			var s Snapshot
			if err := json.Unmarshal(b, &s); err != nil {
				panic(err)
			}
			out = append(out, s)
		default:
			return out
		}
	}
}

func TestHubBroadcastAndReplay(t *testing.T) {
	hub := NewHub()
	early := hub.Subscribe()
	hub.Publish(Snapshot{Progress: Progress{Done: 1, Total: 10}})
	hub.Publish(Snapshot{Progress: Progress{Done: 2, Total: 10}})

	got := drain(early)
	if len(got) != 2 || got[0].Progress.Done != 1 || got[1].Progress.Done != 2 {
		t.Fatalf("early subscriber got %+v", got)
	}
	// A late joiner replays the last event immediately.
	late := hub.Subscribe()
	got = drain(late)
	if len(got) != 1 || got[0].Progress.Done != 2 {
		t.Fatalf("late subscriber got %+v, want the last event", got)
	}
	if hub.Last() == nil {
		t.Error("Last should hold the latest marshaled snapshot")
	}
	hub.Unsubscribe(early)
	hub.Unsubscribe(late)
}

// TestHubRendersHeatmap: the hub renders the group heatmap of each
// snapshot it publishes; a snapshot without groups carries none.
func TestHubRendersHeatmap(t *testing.T) {
	hub := NewHub()
	sub := hub.Subscribe()
	hub.Publish(Snapshot{Progress: Progress{Done: 3, Total: 5}, Groups: []GroupView{{Group: "SR", Done: 3, Total: 3}, {Group: "AR", Total: 2}}})
	hub.Publish(Snapshot{Progress: Progress{Done: 5, Total: 5}})
	got := drain(sub)
	if len(got) != 2 || !strings.Contains(got[0].Heatmap, "SR") || !strings.Contains(got[0].Heatmap, "AR") {
		t.Fatalf("published %+v, want the first snapshot's heatmap naming SR and AR", got)
	}
	if got[1].Heatmap != "" {
		t.Errorf("groupless snapshot published heatmap %q", got[1].Heatmap)
	}
}

func TestHubDropsOldestWhenSlow(t *testing.T) {
	hub := NewHub()
	sub := hub.Subscribe()
	// Overflow the buffer without draining; the newest events survive.
	for i := 1; i <= subscriberBuffer+5; i++ {
		hub.Publish(Snapshot{Progress: Progress{Done: i, Total: 100}})
	}
	got := drain(sub)
	if len(got) != subscriberBuffer {
		t.Fatalf("buffered %d events, want %d", len(got), subscriberBuffer)
	}
	if last := got[len(got)-1].Progress.Done; last != subscriberBuffer+5 {
		t.Errorf("newest buffered event done = %d, want %d (oldest dropped, not newest)",
			last, subscriberBuffer+5)
	}
}

func TestHubCloseDrainsBufferedEvents(t *testing.T) {
	hub := NewHub()
	sub := hub.Subscribe()
	hub.Publish(Snapshot{Final: true})
	hub.Close()
	// The final event published before Close is still delivered.
	b, open := <-sub.Events()
	if !open {
		t.Fatal("channel closed before draining the final snapshot")
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil || !s.Final {
		t.Fatalf("drained %s, want the final snapshot", b)
	}
	if _, open := <-sub.Events(); open {
		t.Error("channel should be closed after the drain")
	}
	// Post-close operations are inert.
	hub.Publish(Snapshot{})
	if got := hub.Subscribe(); got == nil {
		t.Error("Subscribe after Close should return a closed subscriber, not nil")
	} else if _, open := <-got.Events(); open {
		t.Error("post-close subscriber should be closed")
	}
	hub.Close() // idempotent
}

// TestPublisherStamps: a snapshot stamped before it is published
// reaches subscribers with its elapsed time, the rate so far and the
// ETA; a completed run's ETA is negative (none left).
func TestPublisherStamps(t *testing.T) {
	hub := NewHub()
	sub := hub.Subscribe()
	publish := func(p Progress, elapsed time.Duration, final bool) {
		s := Snapshot{Progress: p, Final: final}
		s.Stamp(elapsed)
		hub.Publish(s)
	}
	publish(Progress{Done: 10, Total: 40}, 2*time.Second, false)
	publish(Progress{Done: 11, Total: 40}, 2001*time.Millisecond, false)
	publish(Progress{Done: 40, Total: 40}, 2001*time.Millisecond, true)

	got := drain(sub)
	if len(got) != 3 {
		t.Fatalf("got %d snapshots, want 3", len(got))
	}
	first := got[0]
	if first.ElapsedS != 2 {
		t.Errorf("elapsed = %v, want 2", first.ElapsedS)
	}
	if first.TrialsPerS != 5 {
		t.Errorf("rate = %v, want 5", first.TrialsPerS)
	}
	if first.ETAS != 6 { // 30 remaining / 5 per second
		t.Errorf("eta = %v, want 6", first.ETAS)
	}
	final := got[2]
	if !final.Final {
		t.Error("final snapshot unmarked")
	}
	if final.ETAS >= 0 {
		t.Errorf("completed run eta = %v, want negative (unknown/none)", final.ETAS)
	}
}

func TestPublisherZeroElapsedNoDivideByZero(t *testing.T) {
	hub := NewHub()
	sub := hub.Subscribe()
	// Zero elapsed, zero done: rate 0, ETA unknown.
	s := Snapshot{Progress: Progress{Done: 0, Total: 0}, TrialsPerS: 7, ETAS: 7}
	s.Stamp(0)
	hub.Publish(s)
	got := drain(sub)
	if len(got) != 1 {
		t.Fatal("want one snapshot")
	}
	if got[0].TrialsPerS != 0 || got[0].ETAS != -1 {
		t.Errorf("zero-state snapshot = %+v, want rate 0 and eta -1", got[0])
	}
}

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

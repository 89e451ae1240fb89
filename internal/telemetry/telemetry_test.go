package telemetry

import (
	"encoding/json"
	"testing"
	"time"

	"wsncover/internal/experiment"
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
	hub.Publish(Snapshot{Fleet: experiment.Progress{Done: 1, Total: 10}})
	hub.Publish(Snapshot{Fleet: experiment.Progress{Done: 2, Total: 10}})

	got := drain(early)
	if len(got) != 2 || got[0].Fleet.Done != 1 || got[1].Fleet.Done != 2 {
		t.Fatalf("early subscriber got %+v", got)
	}
	// A late joiner replays the last event immediately.
	late := hub.Subscribe()
	got = drain(late)
	if len(got) != 1 || got[0].Fleet.Done != 2 {
		t.Fatalf("late subscriber got %+v, want the last event", got)
	}
	if hub.Last() == nil {
		t.Error("Last should hold the latest marshaled snapshot")
	}
	hub.Unsubscribe(early)
	hub.Unsubscribe(late)
}

func TestHubDropsOldestWhenSlow(t *testing.T) {
	hub := NewHub()
	sub := hub.Subscribe()
	// Overflow the buffer without draining; the newest events survive.
	for i := 1; i <= subscriberBuffer+5; i++ {
		hub.Publish(Snapshot{Fleet: experiment.Progress{Done: i, Total: 100}})
	}
	got := drain(sub)
	if len(got) != subscriberBuffer {
		t.Fatalf("buffered %d events, want %d", len(got), subscriberBuffer)
	}
	if last := got[len(got)-1].Fleet.Done; last != subscriberBuffer+5 {
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

func TestPublisherStamps(t *testing.T) {
	hub := NewHub()
	sub := hub.Subscribe()
	pub := NewPublisher(hub)
	clock := time.Unix(1000, 0)
	pub.SetClock(func() time.Time { return clock })

	clock = clock.Add(2 * time.Second)
	pub.Publish(experiment.Progress{Done: 10, Total: 40}, nil, false)
	// Every publication goes out: the progress sources throttle.
	clock = clock.Add(time.Millisecond)
	pub.Publish(experiment.Progress{Done: 11, Total: 40}, nil, false)
	pub.Publish(experiment.Progress{Done: 40, Total: 40}, nil, true)

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
	pub := NewPublisher(hub)
	now := time.Unix(0, 0)
	pub.SetClock(func() time.Time { return now })
	// Zero elapsed, zero done: rate 0, ETA unknown.
	pub.Publish(experiment.Progress{Done: 0, Total: 0}, nil, false)
	got := drain(sub)
	if len(got) != 1 {
		t.Fatal("want one snapshot")
	}
	if got[0].TrialsPerS != 0 || got[0].ETAS != -1 {
		t.Errorf("zero-state snapshot = %+v, want rate 0 and eta -1", got[0])
	}
}

func TestGroupTimerSpans(t *testing.T) {
	g := NewGroupTimer()
	clock := time.Unix(0, 0)
	g.now = func() time.Time { return clock }
	if g.Seconds() != nil {
		t.Error("empty timer should report nil")
	}
	g.Observe("a")
	clock = clock.Add(3 * time.Second)
	g.Observe("a")
	g.Observe("b")
	secs := g.Seconds()
	if secs["a"] != 3 || secs["b"] != 0 {
		t.Errorf("spans = %v", secs)
	}
}

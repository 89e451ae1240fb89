// Package telemetry is the observability layer of campaign runs: the
// progress snapshot every run emits (Snapshot), a broadcast hub that
// fans those snapshots out to any number of subscribers, the HTTP
// dashboard server that serves them as SSE / NDJSON plus a single-file
// HTML page (server.go), the append-only NDJSON run ledger recording
// every campaign run (ledger.go), and the env-var-configured slog
// construction every command shares (log.go).
//
// The package only observes: dispatch.LocalProgress builds each
// Snapshot from a run's ordered trial stream and stamps it with
// elapsed, rate and ETA (Snapshot.Stamp) off its own clock, and the hub renders the group heatmap and publishes it
// as it is. Telemetry never touches trial execution, so a campaign run
// with a dashboard attached writes a byte-identical manifest to one run
// dark — the differential tests in cmd/sweep pin that. Snapshots arrive
// throttled at their source, so the per-trial cost of a live dashboard
// is the source's, allocation-free between snapshots.
package telemetry

import (
	"encoding/json"
	"sync"
	"time"

	"wsncover/internal/visual"
)

// Snapshot is one observation of a running campaign: what the terminal
// meter draws and the payload of the dashboard's /events stream.
// Progress always carries the aggregate done/total; Groups is present
// when the run tracks it.
type Snapshot struct {
	// Progress is the aggregate progress of the whole run. Its JSON key
	// stays "fleet" for the dashboard and for existing stream readers.
	Progress Progress `json:"fleet"`
	// Groups is the per-group (curve) completion breakdown in job-space
	// order; nil when the run does not track it.
	Groups []GroupView `json:"groups,omitempty"`
	// ElapsedS is seconds since the run started.
	ElapsedS float64 `json:"elapsed_s"`
	// TrialsPerS is the aggregate completion rate so far (0 until the
	// first trial lands).
	TrialsPerS float64 `json:"trials_per_s"`
	// ETAS estimates seconds to completion; negative means unknown (no
	// rate yet, or nothing left to do).
	ETAS float64 `json:"eta_s"`
	// Heatmap is the per-group completion strip chart pre-rendered by
	// internal/visual when the hub publishes, empty when Groups is.
	Heatmap string `json:"heatmap,omitempty"`
	// Final marks the run's last snapshot.
	Final bool `json:"final,omitempty"`
}

// Stamp sets ElapsedS to elapsed and derives TrialsPerS and ETAS from
// Progress: the rate is 0 until time has passed, and the ETA is -1
// (unknown) with no rate yet or nothing left to do.
func (s *Snapshot) Stamp(elapsed time.Duration) {
	s.ElapsedS, s.TrialsPerS, s.ETAS = elapsed.Seconds(), 0, -1
	if s.ElapsedS > 0 {
		s.TrialsPerS = float64(s.Progress.Done) / s.ElapsedS
	}
	if s.TrialsPerS > 0 && s.Progress.Total > s.Progress.Done {
		s.ETAS = float64(s.Progress.Total-s.Progress.Done) / s.TrialsPerS
	}
}

// Progress is how many trials of a run are done out of how many it
// will execute, and (mid-run) the group of the trial that just
// completed — the "fleet" payload of a Snapshot:
//
//	{"done":12,"total":40,"group":"SR 16x16","group_done":3}
type Progress struct {
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Group string `json:"group,omitempty"`
	// GroupDone, when positive, is the completed-trial count within
	// Group — the fuel for per-group completion heatmaps.
	GroupDone int `json:"group_done,omitempty"`
}

// GroupView is one group's completion in a Snapshot.
type GroupView struct {
	Group string `json:"group"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// heatRows converts the group views for rendering.
func heatRows(groups []GroupView) []visual.HeatRow {
	rows := make([]visual.HeatRow, len(groups))
	for i, g := range groups {
		rows[i] = visual.HeatRow{Label: g.Group, Done: g.Done, Total: g.Total}
	}
	return rows
}

// Subscriber is one registered consumer of a Hub's event stream.
type Subscriber struct {
	ch chan []byte
}

// Events delivers marshaled snapshots, one JSON object per element (no
// trailing newline). The channel closes when the hub closes.
func (s *Subscriber) Events() <-chan []byte { return s.ch }

// Hub broadcasts marshaled snapshots to every subscriber. Publication
// never blocks: a slow subscriber's buffer drops its oldest event to
// make room, so the newest state always gets through — a dashboard
// wants the present, not a backlog. The zero value is not usable; call
// NewHub.
type Hub struct {
	mu     sync.Mutex
	subs   map[*Subscriber]struct{}
	last   []byte
	closed bool
}

// subscriberBuffer bounds each subscriber's unread backlog.
const subscriberBuffer = 16

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{subs: make(map[*Subscriber]struct{})}
}

// Publish renders the snapshot's group heatmap, marshals it and
// broadcasts it. The marshaled form is retained as the hub's last event, delivered immediately to future
// subscribers so a late-joining dashboard renders without waiting for
// the next publication.
func (h *Hub) Publish(snap Snapshot) {
	if len(snap.Groups) > 0 {
		snap.Heatmap = visual.Heatmap(heatRows(snap.Groups), 24)
	}
	b, err := json.Marshal(snap)
	if err != nil {
		return // no Snapshot field can fail to marshal
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.last = b
	for s := range h.subs {
		h.pushLocked(s, b)
	}
}

// pushLocked enqueues b on s, dropping the oldest buffered event when
// the subscriber is full.
func (h *Hub) pushLocked(s *Subscriber, b []byte) {
	for {
		select {
		case s.ch <- b:
			return
		default:
			select {
			case <-s.ch:
			default:
			}
		}
	}
}

// Subscribe registers a consumer. The hub's last published event, if
// any, is already enqueued on return.
func (h *Hub) Subscribe() *Subscriber {
	s := &Subscriber{ch: make(chan []byte, subscriberBuffer)}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		close(s.ch)
		return s
	}
	h.subs[s] = struct{}{}
	if h.last != nil {
		h.pushLocked(s, h.last)
	}
	return s
}

// Unsubscribe removes a consumer and closes its channel (idempotent;
// harmless after Close).
func (h *Hub) Unsubscribe(s *Subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[s]; !ok {
		return
	}
	delete(h.subs, s)
	close(s.ch)
}

// Last returns the most recently published marshaled snapshot (nil
// before the first publication).
func (h *Hub) Last() []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.last
}

// Close closes every subscriber channel after its buffered events; the
// hub accepts no further publications or subscriptions. Events already
// published are still drained by their subscribers, so a final snapshot
// published before Close always reaches connected clients.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for s := range h.subs {
		delete(h.subs, s)
		close(s.ch)
	}
}

// Package telemetry is the observability layer of campaign runs: a
// broadcast hub that fans live progress snapshots out to any number of
// subscribers, the HTTP dashboard server that serves them as SSE /
// NDJSON plus a single-file HTML page (server.go), the append-only
// NDJSON run ledger recording every campaign run (ledger.go), and the
// env-var-configured slog construction every command shares (log.go).
//
// The package only observes: it is fed the same ordered progress
// snapshots the terminal meter draws (dispatch.PublishFleet converts
// them) and never touches trial execution, so a campaign run with a
// dashboard attached writes a byte-identical manifest to one run dark —
// the differential tests in cmd/sweep pin that. Snapshots arrive
// throttled at their source (dispatch.LocalProgress), so the per-trial
// cost of a live dashboard is the source's, allocation-free between
// snapshots.
package telemetry

import (
	"encoding/json"
	"sync"
	"time"

	"wsncover/internal/experiment"
	"wsncover/internal/visual"
)

// Snapshot is one serialized observation of a running campaign — the
// payload of the dashboard's /events stream. Fleet always carries the
// aggregate done/total; Groups is present when the run tracks it.
type Snapshot struct {
	// Fleet is the aggregate progress of the whole run.
	Fleet experiment.Progress `json:"fleet"`
	// Groups is the per-group (curve) completion breakdown in job-space
	// order; nil when the run has a single group or does not track it.
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
	// internal/visual, empty when Groups is.
	Heatmap string `json:"heatmap,omitempty"`
	// Final marks the run's last snapshot.
	Final bool `json:"final,omitempty"`
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

// Publish marshals the snapshot and broadcasts it. The marshaled form
// is retained as the hub's last event, delivered immediately to future
// subscribers so a late-joining dashboard renders without waiting for
// the next publication.
func (h *Hub) Publish(snap Snapshot) {
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

// Publisher stamps snapshots with elapsed/rate/ETA from an injectable
// clock, renders the group heatmap, and publishes onto a hub — the
// dashboard end of dispatch.PublishFleet, for cmd/sweep and sweepd
// runs alike. It publishes every snapshot it is given: the progress
// sources throttle, so the dashboard does not. Callers are expected to
// be serialized (a progress callback); the Publisher itself does not
// lock.
type Publisher struct {
	hub   *Hub
	now   func() time.Time
	start time.Time
}

// NewPublisher returns a publisher anchored at the current time.
func NewPublisher(hub *Hub) *Publisher {
	p := &Publisher{hub: hub, now: time.Now}
	p.start = p.now()
	return p
}

// SetClock replaces the time source (tests); call before the first
// Publish. It re-anchors the start time.
func (p *Publisher) SetClock(now func() time.Time) {
	p.now = now
	p.start = now()
}

// Publish stamps and publishes one snapshot. fleet and groups are taken
// as-is; elapsed, rate, ETA, and the heatmap are computed here.
func (p *Publisher) Publish(fleet experiment.Progress, groups []GroupView, final bool) {
	now := p.now()
	snap := Snapshot{
		Fleet:    fleet,
		Groups:   groups,
		ElapsedS: now.Sub(p.start).Seconds(),
		ETAS:     -1,
		Final:    final,
	}
	if snap.ElapsedS > 0 {
		snap.TrialsPerS = float64(fleet.Done) / snap.ElapsedS
	}
	if snap.TrialsPerS > 0 && fleet.Total > fleet.Done {
		snap.ETAS = float64(fleet.Total-fleet.Done) / snap.TrialsPerS
	}
	if len(groups) > 0 {
		snap.Heatmap = visual.Heatmap(heatRows(groups), 24)
	}
	p.hub.Publish(snap)
}

// GroupTimer records wall-clock spans per group: the first and last
// observation of each group's activity. cmd/sweep feeds it the groups
// that advanced in each progress snapshot; the ledger records its
// Seconds. Observations are
// allocation-free once a group's entries exist.
type GroupTimer struct {
	now   func() time.Time
	first map[string]time.Time
	last  map[string]time.Time
}

// NewGroupTimer returns an empty timer on the real clock.
func NewGroupTimer() *GroupTimer {
	return &GroupTimer{now: time.Now, first: make(map[string]time.Time), last: make(map[string]time.Time)}
}

// Observe records activity in group at the current time.
func (g *GroupTimer) Observe(group string) {
	now := g.now()
	if _, ok := g.first[group]; !ok {
		g.first[group] = now
	}
	g.last[group] = now
}

// Seconds returns each observed group's active span in seconds. A group
// seen once spans zero; ordering is the map's (callers sort).
func (g *GroupTimer) Seconds() map[string]float64 {
	if len(g.first) == 0 {
		return nil
	}
	out := make(map[string]float64, len(g.first))
	for group, f := range g.first {
		out[group] = g.last[group].Sub(f).Seconds()
	}
	return out
}

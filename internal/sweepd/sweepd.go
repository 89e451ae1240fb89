package sweepd

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"slices"
	"sync"
	"time"

	"wsncover/internal/dispatch"
	"wsncover/internal/sim"
	"wsncover/internal/telemetry"
)

// Campaign lifecycle statuses, as served by the API. A campaign that
// ran ends with its ledger record's status: StatusCompleted, or
// telemetry.StatusFailed or telemetry.StatusAborted.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusCompleted = telemetry.StatusCompleted
	// StatusCached marks a submission answered straight from the store:
	// no trials ran, the manifest was already content-addressed.
	StatusCached = "cached"
)

// maxTerminalCampaigns bounds the terminal (cached, completed, failed,
// aborted) campaigns the daemon keeps pollable. Past it, the campaign
// that ended longest ago is dropped: its ID answers 404, while its
// manifest stays in the store. Queued and running campaigns are never
// dropped.
const maxTerminalCampaigns = 256

// Sentinel errors Submit returns; the HTTP layer maps them to status
// codes (400, 503, 429).
var (
	// ErrBadSpec wraps spec decode and validation failures.
	ErrBadSpec = errors.New("sweepd: bad campaign spec")
	// ErrDraining rejects submissions while the daemon shuts down.
	ErrDraining = errors.New("sweepd: draining, not accepting campaigns")
	// ErrQueueFull rejects submissions when the FIFO queue is at depth.
	ErrQueueFull = errors.New("sweepd: job queue full")
)

// Options configures a Daemon.
type Options struct {
	// Store is the content-addressed manifest store (required).
	Store *Store
	// Concurrency is how many campaigns run at once; the default is 1 —
	// a campaign already saturates the box via its own worker pool.
	Concurrency int
	// QueueDepth bounds the FIFO of accepted-but-not-started campaigns
	// (default 32). A full queue rejects with ErrQueueFull rather than
	// buffering without bound.
	QueueDepth int
	// Pprof opts the /debug/pprof endpoints into the API mux; off by
	// default because the service port is often reachable by more than
	// the operator.
	Pprof bool
	// Logger receives lifecycle events; nil discards them.
	Logger *slog.Logger
}

// Campaign is one submitted campaign's full state. The embedded View
// is its served state, kept once and guarded by the daemon's mutex
// (ID, Name and SpecHash never change after registration); it leaves
// the two URLs empty, which viewLocked adds.
type Campaign struct {
	View

	// jobs is the campaign's job space, validated once by Submit; the
	// run plans from it.
	jobs sim.JobSpace
	// hub streams the campaign's live progress snapshots; nil for
	// cache-hit campaigns, which never run.
	hub *telemetry.Hub
	// done closes when the campaign reaches a terminal status.
	done chan struct{}
}

// View is the JSON shape of one campaign in API responses.
type View struct {
	ID        int       `json:"id"`
	Name      string    `json:"name"`
	SpecHash  string    `json:"spec_hash"`
	Status    string    `json:"status"`
	Cached    bool      `json:"cached,omitempty"`
	Error     string    `json:"error,omitempty"`
	Manifest  string    `json:"manifest,omitempty"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
	// ManifestURL and EventsURL are the campaign's API affordances.
	ManifestURL string `json:"manifest_url,omitempty"`
	EventsURL   string `json:"events_url,omitempty"`
}

// Daemon is the campaign service: it owns the store, the job queue,
// and the runner goroutines. Create with New, serve its Handler, stop
// with Drain.
type Daemon struct {
	opts    Options
	store   *Store
	log     *slog.Logger
	started time.Time

	// ctx cancels in-flight campaigns on Drain.
	ctx    context.Context
	cancel context.CancelFunc

	queue chan *Campaign
	wg    sync.WaitGroup

	mu       sync.Mutex
	byID     map[int]*Campaign    // IDs count up in submission order
	inflight map[string]*Campaign // spec hash → queued or running campaign
	retired  []*Campaign          // terminal campaigns, in the order they ended
	draining bool
	nextID   int
}

// New starts a daemon's runner goroutines over the given store.
func New(opts Options) (*Daemon, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("sweepd: Options.Store is required")
	}
	if opts.Concurrency < 1 {
		opts.Concurrency = 1
	}
	if opts.QueueDepth < 1 {
		opts.QueueDepth = 32
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.DiscardHandler)
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &Daemon{
		opts:     opts,
		store:    opts.Store,
		log:      opts.Logger,
		started:  time.Now(),
		ctx:      ctx,
		cancel:   cancel,
		queue:    make(chan *Campaign, opts.QueueDepth),
		byID:     make(map[int]*Campaign),
		inflight: make(map[string]*Campaign),
	}
	for i := 0; i < opts.Concurrency; i++ {
		d.wg.Add(1)
		go d.runnerLoop()
	}
	return d, nil
}

// Submit accepts one campaign spec (strict JSON; unknown fields are an
// error), dedupes it against the store and the in-flight set, and
// queues it. It returns the campaign's view and whether a new run was
// actually created: false means the submission was answered by the
// cache or coalesced onto an identical queued/running campaign.
func (d *Daemon) Submit(specJSON []byte, name string) (View, bool, error) {
	var spec sim.CampaignSpec
	if err := sim.UnmarshalSpecJSON(specJSON, &spec); err != nil {
		return View{}, false, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	js, err := spec.JobSpace()
	if err != nil {
		return View{}, false, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	hash, err := telemetry.SpecHash(js.Spec())
	if err != nil {
		return View{}, false, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if name == "" {
		name = "campaign-" + strings8(hash)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return View{}, false, ErrDraining
	}
	// Coalesce onto an identical campaign already queued or running: the
	// submitter polls (or streams) the one in flight.
	if c, ok := d.inflight[hash]; ok {
		d.log.Info("submission coalesced onto in-flight campaign",
			"id", c.ID, "spec_hash", hash, "status", c.Status)
		return d.viewLocked(c), false, nil
	}
	// Cache hit: the store already holds this campaign's manifest.
	// Register a terminal "cached" campaign so the submission still has
	// a pollable identity, but run nothing.
	if path, _, ok := d.store.Get(hash); ok {
		c := d.registerLocked(name, hash, js)
		// The campaign is born terminal: it never occupies the in-flight
		// slot, so the next identical submission registers its own
		// cache-hit identity instead of coalescing onto this one.
		delete(d.inflight, hash)
		c.Status = StatusCached
		c.Cached = true
		c.Manifest = path
		c.Finished = c.Submitted
		close(c.done)
		d.retireLocked(c)
		d.log.Info("submission served from manifest store",
			"id", c.ID, "spec_hash", hash, "manifest", path)
		return d.viewLocked(c), false, nil
	}
	c := d.registerLocked(name, hash, js)
	c.hub = telemetry.NewHub()
	select {
	case d.queue <- c:
	default:
		// Undo the registration: a rejected submission must not occupy
		// an ID or shadow a later retry in the in-flight set.
		delete(d.byID, c.ID)
		delete(d.inflight, hash)
		return View{}, false, ErrQueueFull
	}
	d.log.Info("campaign queued", "id", c.ID, "name", name, "spec_hash", hash,
		"jobs", js.Len(), "queue_len", len(d.queue))
	return d.viewLocked(c), true, nil
}

// registerLocked allocates and indexes a campaign; callers hold d.mu.
func (d *Daemon) registerLocked(name, hash string, js sim.JobSpace) *Campaign {
	d.nextID++
	c := &Campaign{
		View: View{
			ID:        d.nextID,
			Name:      name,
			SpecHash:  hash,
			Status:    StatusQueued,
			Submitted: time.Now().UTC(),
		},
		jobs: js,
		done: make(chan struct{}),
	}
	d.byID[c.ID] = c
	d.inflight[hash] = c
	return c
}

// retireLocked records that c reached a terminal status and drops the
// campaign that ended longest ago once more than maxTerminalCampaigns
// have ended; callers hold d.mu.
func (d *Daemon) retireLocked(c *Campaign) {
	d.retired = append(d.retired, c)
	if len(d.retired) <= maxTerminalCampaigns {
		return
	}
	old := d.retired[0]
	d.retired = d.retired[1:]
	delete(d.byID, old.ID)
}

// strings8 is the short-hash suffix for default campaign names.
func strings8(hash string) string {
	hex := hash
	if h, err := hashHex(hash); err == nil {
		hex = h
	}
	if len(hex) > 8 {
		hex = hex[:8]
	}
	return hex
}

// Campaign returns one campaign's view by ID.
func (d *Daemon) Campaign(id int) (View, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.byID[id]
	if !ok {
		return View{}, false
	}
	return d.viewLocked(c), true
}

// Campaigns lists the campaigns the daemon keeps (every queued and
// running one, and the newest terminal ones) in submission order.
func (d *Daemon) Campaigns() []View {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := slices.Sorted(maps.Keys(d.byID))
	out := make([]View, len(ids))
	for i, id := range ids {
		out[i] = d.viewLocked(d.byID[id])
	}
	return out
}

// Hub returns the campaign's progress hub (nil for cached campaigns).
func (d *Daemon) Hub(id int) (*telemetry.Hub, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.byID[id]
	if !ok {
		return nil, false
	}
	return c.hub, true
}

// Draining reports whether Drain has begun (readiness goes false).
func (d *Daemon) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// Wait blocks until the campaign reaches a terminal status; it returns
// false for an unknown ID. Tests and synchronous clients use it.
func (d *Daemon) Wait(ctx context.Context, id int) bool {
	d.mu.Lock()
	c, ok := d.byID[id]
	d.mu.Unlock()
	if !ok {
		return false
	}
	select {
	case <-c.done:
		return true
	case <-ctx.Done():
		return false
	}
}

// viewLocked serves c's state with its API URLs; callers hold d.mu.
func (d *Daemon) viewLocked(c *Campaign) View {
	v := c.View
	if v.Manifest != "" {
		v.ManifestURL = "/api/v1/manifests/" + c.SpecHash
	}
	if c.hub != nil {
		v.EventsURL = fmt.Sprintf("/api/v1/campaigns/%d/events", c.ID)
	}
	return v
}

// errDrainedQueued ends a campaign the drain caught still queued: an
// abort, like the cancellation of a running one.
var errDrainedQueued = fmt.Errorf("queued campaign aborted by drain: %w", context.Canceled)

// runnerLoop is one execution slot: dequeue, run, record, repeat. It
// exits when Drain closes the queue; campaigns still queued at that
// point are recorded aborted without running.
func (d *Daemon) runnerLoop() {
	defer d.wg.Done()
	for c := range d.queue {
		if d.ctx.Err() != nil {
			// Submit hashed this spec, so the record's hash cannot fail.
			rec, _ := dispatch.RunRecord(c.jobs, nil, 0, 0, nil, errDrainedQueued)
			d.finish(c, rec, errDrainedQueued)
			continue
		}
		d.mu.Lock()
		c.Status = StatusRunning
		c.Started = time.Now().UTC()
		d.mu.Unlock()
		d.log.Info("campaign started", "id", c.ID, "name", c.Name, "spec_hash", c.SpecHash)
		rec, err := d.execute(c)
		d.finish(c, rec, err)
	}
}

// finish moves a campaign to its terminal status, the status of its
// ledger record rec (dispatch.RunRecord's, with the manifest path),
// releases its in-flight slot, closes its hub and done channel, and
// appends rec stamped with the campaign's name, mode "sweepd" and the
// time. The ledger gets every outcome — completed, failed, aborted — so
// the store's run history shows unhealthy runs too.
func (d *Daemon) finish(c *Campaign, rec telemetry.Record, runErr error) {
	// The record is appended before the terminal status is published, so
	// a client that sees the status (or the done channel) also sees the
	// run in the ledger.
	rec.Time, rec.Name, rec.Mode = time.Now().UTC(), c.Name, "sweepd"
	if err := telemetry.AppendRecord(d.store.LedgerPath(), rec); err != nil {
		d.log.Error("ledger append failed", "path", d.store.LedgerPath(), "err", err)
	}

	d.mu.Lock()
	c.Status = rec.Status
	c.Finished = rec.Time
	c.Manifest = rec.Manifest
	if runErr != nil {
		c.Error = runErr.Error()
	}
	delete(d.inflight, c.SpecHash)
	d.retireLocked(c)
	d.mu.Unlock()
	if c.hub != nil {
		c.hub.Close()
	}
	close(c.done)

	if rec.Status == StatusCompleted {
		d.log.Info("campaign completed", "id", c.ID, "name", c.Name, "manifest", rec.Manifest, "wall_s", rec.WallS)
	} else {
		d.log.Warn("campaign ended unhealthy", "id", c.ID, "name", c.Name, "status", rec.Status, "err", c.Error)
	}
}

// Drain shuts the daemon down gracefully: new submissions are refused,
// queued campaigns are recorded aborted, and in-flight campaigns are
// cancelled — their engines stop at the next trial boundary, and the
// cells they completed are already stored, so resubmitting the same
// spec after a restart computes only the rest. Drain blocks until every
// runner has exited.
func (d *Daemon) Drain() {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		d.wg.Wait()
		return
	}
	d.draining = true
	// Sends into d.queue happen under mu (Submit), so closing it here —
	// after draining flips — can never race a send.
	close(d.queue)
	d.mu.Unlock()
	d.log.Info("draining: refusing new campaigns, cancelling in-flight runs")
	d.cancel()
	d.wg.Wait()
}

package sim

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"wsncover/internal/async"
	"wsncover/internal/coverage"
	"wsncover/internal/geom"
	"wsncover/internal/grid"
	"wsncover/internal/hamilton"
	"wsncover/internal/metrics"
	"wsncover/internal/network"
	"wsncover/internal/randx"
)

// asyncPollInterval is the nominal poll period of the async runner in
// seconds; one schedule round maps to one poll period, and the round
// budget maps to MaxRounds poll periods.
const asyncPollInterval = 0.5

// Trial is one assembled simulation: a deployed network, a controller,
// and the workload's damage schedule, interleaved by Run's event loop.
// A Trial is single-use: assemble with NewTrial, execute with Run.
type Trial struct {
	cfg   TrialConfig
	net   *network.Network
	sched Schedule

	// Exactly one of scheme (sync runner) and actrl (async runner) is set.
	scheme Scheme
	actrl  *async.Controller

	// evRNG is the stateful parent of the per-firing damage streams:
	// applyDue splits one child stream off it per event firing, in
	// firing order. The firing sequence is a pure function of the
	// schedule, so equal (spec, seed) trials see equal streams — but
	// reordering a schedule's firings reorders every subsequent stream.
	evRNG *randx.Rand

	// cur walks sched's events as the event loop fires them. An arena's
	// trial keeps its buffers from one trial to the next.
	cur eventCursor
}

// NewTrial resolves the configured workload into its schedule, deploys
// the network, and attaches the controller, drawing from the seed with
// the fixed stream-split discipline (deployment streams first, then the
// scheme stream, then the event stream), so equal configurations
// assemble identical trials wherever they run.
func NewTrial(cfg TrialConfig) (*Trial, error) { return newTrial(cfg, nil) }

// newTrial is NewTrial with an optional arena. A nil arena builds every
// piece of the world fresh (the executable specification); a non-nil
// arena reuses its pooled network and collector where the configuration
// matches, replays the deployment bases its memo recorded, and
// reassembles its own Trial in place, so a warm arena's trial allocates
// nothing. The seed's stream-split discipline is identical on both
// paths, so the assembled trials are byte-identical.
func newTrial(cfg TrialConfig, arena *TrialArena) (*Trial, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	sched, err := resolveSchedule(&cfg)
	if err != nil {
		return nil, err
	}
	var rng *randx.Rand
	var net *network.Network
	var col *metrics.Collector
	var scr *schemeScratch
	var memo *baseMemo
	if arena != nil {
		// The root and every stream split off it are reseeded in place:
		// the previous trial's streams die here (see randx.Streams).
		arena.streams.Reset()
		rng = arena.streams.New(cfg.Seed)
		scr = &arena.scr
		// The workload may have installed its energy model into cfg
		// above, so pool compatibility is decided on the resolved config.
		if net, err = arena.networkFor(&cfg); err != nil {
			return nil, err
		}
		col = arena.col
		memo = &arena.memo
	} else {
		rng = randx.New(cfg.Seed)
		sys, err := grid.NewForCommRange(cfg.Cols, cfg.Rows, cfg.CommRange, geom.Pt(0, 0))
		if err != nil {
			return nil, err
		}
		net = network.New(sys, cfg.EnergyModel)
	}
	if err := sched.open.build(net, rng, cfg.Spares, memo, cfg.Seed); err != nil {
		return nil, err
	}
	var t *Trial
	if arena != nil {
		t = &arena.trial
		*t = Trial{cfg: cfg, net: net, sched: sched, cur: t.cur}
	} else {
		t = &Trial{cfg: cfg, net: net, sched: sched}
	}
	if cfg.Runner == RunAsync {
		topo, err := hamilton.Shared(net.System())
		if err != nil {
			return nil, err
		}
		var scratch *async.Scratch
		if scr != nil {
			scratch = scr.forAsync()
		}
		t.actrl, err = async.New(net, async.Config{
			Topology:     topo,
			RNG:          rng.Split(3),
			PollInterval: asyncPollInterval,
			Collector:    col,
			Scratch:      scratch,
		})
		if err != nil {
			return nil, err
		}
	} else {
		t.scheme, err = buildScheme(net, cfg, rng.Split(3), col, scr)
		if err != nil {
			return nil, err
		}
	}
	t.evRNG = rng.Split(4)
	if cfg.MessageLoss > 0 {
		// The loss stream splits last, and only when the radio is lossy,
		// so reliable-radio trials keep their legacy stream shape.
		if err := net.SetMessageLoss(cfg.MessageLoss, rng.Split(5)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// resolveSchedule resolves a normalized config's workload into its
// schedule, which installs the workload's knobs into cfg (lossy,
// byzantine), and checks those knobs against the scheme and the runner.
// The schedule has no Deploy: a trial deploys from its opening.
// NewTrial and CampaignSpec.JobSpace both call it, so a campaign
// validates exactly the pairings its trials accept. Its errors name the
// workload, the scheme and the runner.
func resolveSchedule(cfg *TrialConfig) (Schedule, error) {
	wl, err := BuildWorkload(cfg.Workload)
	if err != nil {
		return Schedule{}, err
	}
	sched, err := wl.schedule(cfg)
	if err == nil {
		err = validateEvents(sched.Events)
	}
	switch {
	case err != nil:
	case cfg.Runner == RunAsync && (cfg.ClaimTTL != 0 || cfg.MessageLoss != 0 || cfg.ByzantineFrac != 0):
		err = errors.New("sim: ClaimTTL, MessageLoss, and byzantine monitors require the sync runner")
	case cfg.Scheme == AR && cfg.ByzantineFrac != 0:
		err = errors.New("sim: the byzantine workload targets SR-family monitors; AR is unsupported")
	case cfg.Scheme == AR && cfg.ClaimTTL != 0:
		err = errors.New("sim: ClaimTTL is an SR-family knob; the AR baseline has no claim expiry")
	}
	if err != nil {
		return Schedule{}, fmt.Errorf("%w (workload %q, scheme %v, runner %v)",
			err, cfg.Workload.String(), cfg.Scheme, cfg.Runner)
	}
	return sched, nil
}

// Network exposes the trial's network for inspection after Run.
func (t *Trial) Network() *network.Network { return t.net }

// collector returns the attached controller's metrics collector.
func (t *Trial) collector() *metrics.Collector {
	if t.actrl != nil {
		return t.actrl.Collector()
	}
	return t.scheme.Collector()
}

// Run executes the trial's event loop — schedule events interleaved with
// controller stepping — until the scheme converges with no barrier event
// outstanding, or the round budget is exhausted, in which case
// still-active processes are failed.
func (t *Trial) Run() (TrialResult, error) {
	var rounds, holesBefore int
	var err error
	if t.actrl != nil {
		rounds, holesBefore, err = t.runAsync()
	} else {
		rounds, holesBefore, err = t.runSync()
	}
	if err != nil {
		return TrialResult{}, err
	}
	return TrialResult{
		Summary:     t.collector().Summarize(),
		Rounds:      rounds,
		HolesBefore: holesBefore,
		HolesAfter:  coverage.HoleCount(t.net),
		Complete:    coverage.Complete(t.net),
		Connected:   t.net.HeadGraphConnected(),
	}, nil
}

// validateEvents rejects schedule shapes the event loop cannot honor.
func validateEvents(events []Event) error {
	for _, ev := range events {
		if ev.Round < 0 || ev.Every < 0 {
			return fmt.Errorf("sim: schedule event with negative round/every: %+v", ev)
		}
		if ev.Every > 0 && ev.Barrier {
			return fmt.Errorf("sim: recurring schedule events cannot be barriers")
		}
		if ev.Apply == nil {
			return fmt.Errorf("sim: schedule event without Apply")
		}
	}
	return nil
}

// eventCursor walks a schedule's events in firing order without
// mutating the schedule: one-shot events by (round, declaration order),
// recurring events re-arming themselves every Every rounds — O(1)
// memory for any trial length. Within a round, one-shots fire before
// recurring events.
type eventCursor struct {
	oneShot []Event
	next    int
	// lastBarrier is the index of the last barrier one-shot; the trial
	// must not converge before it has fired.
	lastBarrier int
	recur       []Event
	fire        []int // next firing round per recurring event
	fired       []int // most recent firing round per recurring event
}

// reset points the cursor at the first firing of events, reusing its
// buffers.
func (c *eventCursor) reset(events []Event) {
	*c = eventCursor{
		oneShot:     c.oneShot[:0],
		lastBarrier: -1,
		recur:       c.recur[:0],
		fire:        c.fire[:0],
		fired:       c.fired[:0],
	}
	for _, ev := range events {
		if ev.Every > 0 {
			c.recur = append(c.recur, ev)
			c.fire = append(c.fire, ev.Round)
			c.fired = append(c.fired, -1)
		} else {
			c.oneShot = append(c.oneShot, ev)
		}
	}
	slices.SortStableFunc(c.oneShot, func(a, b Event) int { return cmp.Compare(a.Round, b.Round) })
	for i, ev := range c.oneShot {
		if ev.Barrier {
			c.lastBarrier = i
		}
	}
}

// pop returns the next event due at or before round, if any.
func (c *eventCursor) pop(round int) (Event, bool) {
	if c.next < len(c.oneShot) && c.oneShot[c.next].Round <= round {
		ev := c.oneShot[c.next]
		c.next++
		return ev, true
	}
	for i := range c.recur {
		if c.fire[i] <= round {
			c.fired[i] = c.fire[i]
			c.fire[i] += c.recur[i].Every
			return c.recur[i], true
		}
	}
	return Event{}, false
}

// nextDue returns the earliest round any event is due at.
func (c *eventCursor) nextDue() (int, bool) {
	due, ok := 0, false
	if c.next < len(c.oneShot) {
		due, ok = c.oneShot[c.next].Round, true
	}
	for i := range c.fire {
		if !ok || c.fire[i] < due {
			due, ok = c.fire[i], true
		}
	}
	return due, ok
}

// barrierPending reports whether a barrier event has not fired yet.
func (c *eventCursor) barrierPending() bool { return c.next <= c.lastBarrier }

// quiescent reports whether every recurring event has fired at least
// once at or after the given round. Convergence requires quiescence
// relative to the scheme's last active round: a recurring probe (a
// depletion check) observes state the scheme's activity may have
// changed, so each must get one look at the settled network before the
// trial may end — after that, re-firing on an idle network is a no-op,
// which is what lets the sync and async runners agree on outcomes.
func (c *eventCursor) quiescent(since int) bool {
	for i := range c.fired {
		if c.fired[i] < since {
			return false
		}
	}
	return true
}

// applyDue fires every event due at or before round. The per-firing RNG
// streams derive from evRNG sequentially; the firing order is a pure
// function of the schedule, so equal trials see equal streams. A firing's
// stream lives only for its Apply call: on an arena it is Released
// afterwards, so a trial of any length holds one event stream.
func (t *Trial) applyDue(round int) error {
	for {
		ev, ok := t.cur.pop(round)
		if !ok {
			return nil
		}
		rng := t.evRNG.Split(int64(round))
		err := ev.Apply(t.net, rng, round)
		rng.Release()
		if err != nil {
			return err
		}
		if ev.Rally {
			// Damage that restores resources (resupply) rallies the scheme:
			// holes it gave up on become eligible for detection again. A nil
			// or non-rallying scheme (async runner) fails the assertion and
			// the event degrades to plain damage.
			if r, ok := t.scheme.(interface{ ResetFailed() }); ok {
				r.ResetFailed()
			}
		}
	}
}

// runSync is the synchronous event loop, and the only one: RunSchedule
// drives hand-assembled schemes through it too. With an empty schedule
// (the holes and jam workloads, whose damage is all in the deployment)
// it steps the scheme until it has been idle for idleGrace consecutive
// rounds — detections can lag when a hole's monitor grid is itself
// vacant — or the round budget runs out, in which case still-active
// processes are failed.
func (t *Trial) runSync() (rounds, holesBefore int, err error) {
	const idleGrace = 3
	cur := &t.cur
	cur.reset(t.sched.Events)
	idle, lastActive := 0, 0
	for rounds < t.cfg.MaxRounds {
		if err := t.applyDue(rounds); err != nil {
			return rounds, holesBefore, err
		}
		if rounds == 0 {
			// The initial damage: deployment shape plus round-0 events.
			holesBefore = coverage.HoleCount(t.net)
		}
		if err := t.scheme.Step(); err != nil {
			return rounds, holesBefore, err
		}
		rounds++
		// Mid-run damage flips the network's vacancy journal; the
		// event-driven detectors pick it up in the step above, so Done
		// flips false the round after a wave lands. Convergence further
		// requires every recurring probe to have seen the network since
		// it last changed (quiescence) — otherwise a depletion check due
		// just past the idle grace would be skipped and the sync runner
		// would disagree with the async one.
		if !t.scheme.Done() {
			lastActive = rounds
		}
		if t.scheme.Done() && !cur.barrierPending() && cur.quiescent(lastActive) {
			idle++
			if idle >= idleGrace {
				return rounds, holesBefore, nil
			}
		} else {
			idle = 0
		}
	}
	t.scheme.Finalize()
	return rounds, holesBefore, nil
}

// runAsync drives the async controller between schedule events: each
// event's round maps to round*pollInterval seconds of simulated time,
// and the round budget to MaxRounds poll periods.
func (t *Trial) runAsync() (rounds, holesBefore int, err error) {
	cur := &t.cur
	cur.reset(t.sched.Events)
	// Round-0 events are part of the initial damage and fire before any
	// simulated time elapses.
	if err := t.applyDue(0); err != nil {
		return 0, 0, err
	}
	holesBefore = coverage.HoleCount(t.net)
	for {
		due, ok := cur.nextDue()
		if !ok || due >= t.cfg.MaxRounds {
			break
		}
		if _, err := t.actrl.RunUntil(float64(due) * asyncPollInterval); err != nil {
			return t.asyncRounds(), holesBefore, err
		}
		if err := t.applyDue(due); err != nil {
			return t.asyncRounds(), holesBefore, err
		}
	}
	if _, err := t.actrl.RunUntil(float64(t.cfg.MaxRounds) * asyncPollInterval); err != nil {
		return t.asyncRounds(), holesBefore, err
	}
	if !t.actrl.Done() {
		t.actrl.Finalize()
	}
	return t.asyncRounds(), holesBefore, nil
}

// asyncRounds converts the async controller's clock into nominal rounds
// for TrialResult, capped at the round budget.
func (t *Trial) asyncRounds() int {
	rounds := int(t.actrl.Now()/asyncPollInterval) + 1
	if rounds > t.cfg.MaxRounds {
		rounds = t.cfg.MaxRounds
	}
	return rounds
}

// RunSchedule steps an already-assembled scheme through a schedule's
// events until convergence: the event loop of Trial.Run exposed for
// callers that deployed their own network (the wsncover facade's
// Scenario). The schedule's Deploy is ignored — the caller's network is
// taken as already populated — and the schedule itself is not mutated.
// An empty Schedule, with a nil evRNG, just steps the scheme to
// convergence. It returns the number of rounds run.
func RunSchedule(s Scheme, net *network.Network, sched Schedule, evRNG *randx.Rand, maxRounds int) (int, error) {
	if err := validateEvents(sched.Events); err != nil {
		return 0, err
	}
	t := &Trial{
		cfg:    TrialConfig{MaxRounds: maxRounds},
		net:    net,
		sched:  sched,
		scheme: s,
		evRNG:  evRNG,
	}
	rounds, _, err := t.runSync()
	return rounds, err
}

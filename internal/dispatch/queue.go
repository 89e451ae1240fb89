package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"
)

// errLeaseExpired marks an attempt killed by the heartbeat watchdog: the
// worker produced no valid progress event within the lease deadline.
var errLeaseExpired = errors.New("lease expired: no progress heartbeat within the deadline")

// errShardExhausted marks a shard whose relaunch budget ran out.
var errShardExhausted = errors.New("shard out of retries")

// attempt is one worker launch against one shard — the unit the lease
// table tracks. A shard normally has one live attempt; an idle slot may
// open a second, speculative one against a straggler (work stealing),
// and the first attempt to complete wins. Fields below the comment are
// guarded by the owning queue's mutex.
type attempt struct {
	id          int
	shard       int // 0-based queue index
	slot        int // 1-based slot that holds the lease
	speculative bool
	// manifest is where this attempt's worker writes its manifest; the
	// driver fills it in (speculative attempts write into a spare
	// directory so they cannot clobber the primary's checkpoint).
	manifest string

	started  time.Time
	lastBeat time.Time
	deadline time.Time
	cancel   context.CancelFunc
	expired  bool
}

// finishOutcome is what the queue decided about a finished attempt.
type finishOutcome int

const (
	// finishRequeued: the attempt failed; the shard went back to pending
	// behind its backoff gate.
	finishRequeued finishOutcome = iota
	// finishFatal: the shard burned its whole relaunch budget; it is
	// terminally failed and the campaign cannot complete.
	finishFatal
	// finishDiscarded: a sibling attempt already completed the shard;
	// this one was a duplicate and its failure is irrelevant.
	finishDiscarded
	// finishReleased: a cancellation echo (fleet shutting down); the
	// shard returns to pending without burning budget or backoff.
	finishReleased
	// finishShadowed: this attempt failed but another live attempt is
	// still running the shard, so nothing was requeued.
	finishShadowed
)

// shardEntry is the queue's record of one shard (one cell block).
type shardEntry struct {
	state     ShardState
	attempts  int // worker launches, steals included
	fails     int // failed launches (burns the relaunch budget)
	notBefore time.Time
	live      []*attempt
	winner    string // manifest path of the completed attempt
	err       error
}

// shardQueue is the cell-granular work queue at the heart of the
// elastic scheduler: shards (cell blocks) move pending → running →
// done/failed, slots lease them one attempt at a time, heartbeats
// (valid progress events) renew leases, the watchdog expires silent
// ones, and idle slots open speculative duplicates of stragglers.
// Determinism makes the duplication safe: every attempt at a shard
// computes byte-identical results, so the first completion wins and the
// rest are discarded.
type shardQueue struct {
	lease       time.Duration // heartbeat deadline per attempt
	stealAfter  time.Duration // attempt age before a straggler may be duplicated; <0 disables
	retries     int           // relaunches allowed per shard after failures
	backoffBase time.Duration
	backoffMax  time.Duration
	now         func() time.Time

	mu     sync.Mutex
	shards []shardEntry
	nextID int
}

func newShardQueue(n int, lease, stealAfter time.Duration, retries int, now func() time.Time) *shardQueue {
	if now == nil {
		now = time.Now
	}
	return &shardQueue{
		lease:       lease,
		stealAfter:  stealAfter,
		retries:     retries,
		backoffBase: 200 * time.Millisecond,
		backoffMax:  10 * time.Second,
		now:         now,
		shards:      make([]shardEntry, n),
	}
}

// backoff is the requeue delay after the n-th failure of a shard: the
// first failure requeues immediately (a crashed box should not stall
// the campaign), later ones back off exponentially with jitter in
// [0.5, 1.5) so a fleet of failing workers does not relaunch in
// lockstep.
func (q *shardQueue) backoff(fails int) time.Duration {
	if fails <= 1 {
		return 0
	}
	d := q.backoffBase << (fails - 2)
	if d > q.backoffMax || d <= 0 {
		d = q.backoffMax
	}
	return d/2 + time.Duration(rand.Int64N(int64(d)))
}

// next hands slot its next attempt: the lowest pending shard whose
// backoff gate has passed, else a speculative duplicate of the stalest
// eligible straggler. A nil attempt with wait > 0 means "ask again in
// wait"; nil with wait == 0 means the queue is terminal (every shard
// done or failed) and the slot can retire.
func (q *shardQueue) next(slot int) (*attempt, time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	const poll = 100 * time.Millisecond
	wait := time.Duration(0)
	terminal := true
	for i := range q.shards {
		e := &q.shards[i]
		switch e.state {
		case ShardDone, ShardFailed:
			continue
		case ShardPending:
			terminal = false
			if d := e.notBefore.Sub(now); d > 0 {
				if wait == 0 || d < wait {
					wait = d
				}
				continue
			}
			return q.lendLocked(i, slot, false), 0
		case ShardRunning:
			terminal = false
		}
	}
	// Nothing pending: look for a straggler to duplicate. Eligible means
	// exactly one live attempt (duplication is capped at two) that has
	// been running at least stealAfter; the stalest heartbeat goes first.
	if q.stealAfter >= 0 {
		best, bestBeat := -1, time.Time{}
		for i := range q.shards {
			e := &q.shards[i]
			if e.state != ShardRunning || len(e.live) != 1 {
				continue
			}
			a := e.live[0]
			if age := now.Sub(a.started); age < q.stealAfter {
				if d := q.stealAfter - age; wait == 0 || d < wait {
					wait = d
				}
				continue
			}
			beat := a.lastBeat
			if beat.IsZero() {
				beat = a.started
			}
			if best < 0 || beat.Before(bestBeat) {
				best, bestBeat = i, beat
			}
		}
		if best >= 0 {
			return q.lendLocked(best, slot, true), 0
		}
	}
	if terminal {
		return nil, 0
	}
	if wait <= 0 || wait > poll {
		wait = poll
	}
	return nil, wait
}

// lendLocked opens a new attempt on shard i for slot.
func (q *shardQueue) lendLocked(i, slot int, speculative bool) *attempt {
	q.nextID++
	now := q.now()
	a := &attempt{
		id:          q.nextID,
		shard:       i,
		slot:        slot,
		speculative: speculative,
		started:     now,
		deadline:    now.Add(q.lease),
	}
	e := &q.shards[i]
	e.state = ShardRunning
	e.attempts++
	e.live = append(e.live, a)
	return a
}

// bind attaches the kill switch for the attempt's worker process, so
// the watchdog can enforce an expired lease.
func (q *shardQueue) bind(a *attempt, cancel context.CancelFunc) {
	q.mu.Lock()
	defer q.mu.Unlock()
	a.cancel = cancel
	if a.expired {
		// The watchdog fired between launch and bind; enforce it now.
		cancel()
	}
}

// beat renews the attempt's lease. Only valid progress events beat —
// malformed lines and chatter never reach here, so a worker emitting
// garbage burns its deadline.
func (q *shardQueue) beat(a *attempt) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	a.lastBeat = now
	a.deadline = now.Add(q.lease)
}

// expireStale kills every live attempt whose lease deadline has passed
// and returns them (for logging). The shard is NOT requeued here: the
// slot's supervision loop observes the killed process, reaps it, and
// calls finish — requeueing only after the worker is dead, so a zombie
// cannot corrupt its successor's checkpoint.
func (q *shardQueue) expireStale() []*attempt {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	var stale []*attempt
	for i := range q.shards {
		for _, a := range q.shards[i].live {
			if a.expired || now.Before(a.deadline) {
				continue
			}
			a.expired = true
			if a.cancel != nil {
				a.cancel()
			}
			stale = append(stale, a)
		}
	}
	return stale
}

// isExpired reports whether the watchdog expired the attempt's lease
// (safe against the watchdog's concurrent write).
func (q *shardQueue) isExpired(a *attempt) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return a.expired
}

// complete records a finished, validated manifest for the attempt's
// shard. The first completion wins: it installs the winner manifest and
// kills any sibling attempt. A later completion returns won=false with
// the winner's path so the caller can byte-compare the duplicate before
// discarding it — under deterministic seeding the two must be
// identical, and a mismatch is a reproducibility bug worth shouting
// about.
func (q *shardQueue) complete(a *attempt) (won bool, winner string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	e := &q.shards[a.shard]
	q.dropLocked(e, a)
	if e.state == ShardDone {
		return false, e.winner
	}
	e.state = ShardDone
	e.winner = a.manifest
	e.err = nil
	for _, sib := range e.live {
		if sib.cancel != nil {
			sib.cancel()
		}
	}
	return true, a.manifest
}

// finish retires a failed attempt and decides the shard's fate; err is
// the worker error (used only for the terminal record). Cancellation
// echoes — the fleet shutting down, or a sibling's win killing this
// attempt — never burn the relaunch budget.
func (q *shardQueue) finish(a *attempt, err error) finishOutcome {
	q.mu.Lock()
	defer q.mu.Unlock()
	e := &q.shards[a.shard]
	q.dropLocked(e, a)
	if e.state == ShardDone {
		return finishDiscarded
	}
	if !a.expired && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		// Shut-down echo: requeue without penalty (nobody will take it if
		// the campaign is over; a Resume rerun will).
		if len(e.live) == 0 {
			e.state = ShardPending
		}
		return finishReleased
	}
	e.fails++
	if len(e.live) > 0 {
		return finishShadowed
	}
	if e.fails > q.retries {
		e.state = ShardFailed
		e.err = fmt.Errorf("%w (%d attempts): %v", errShardExhausted, e.attempts, err)
		return finishFatal
	}
	e.state = ShardPending
	e.notBefore = q.now().Add(q.backoff(e.fails))
	return finishRequeued
}

func (q *shardQueue) dropLocked(e *shardEntry, a *attempt) {
	for i, sib := range e.live {
		if sib == a {
			e.live = append(e.live[:i], e.live[i+1:]...)
			return
		}
	}
}

// LeaseView is the observable lease state of one shard, exported into
// fleet snapshots for the meter, dashboard, and telemetry.
type LeaseView struct {
	State    ShardState
	Attempts int // worker launches, steals included
	Fails    int
	Live     int // running attempts (2 = a steal is in flight)
	Slot     int // slot of the most recent live attempt, 0 when idle
	// LastBeat is the freshest heartbeat over the live attempts (zero
	// until the first valid progress event of the current leases).
	LastBeat time.Time
	Err      error
	Winner   string
}

// view snapshots shard i's lease state.
func (q *shardQueue) view(i int) LeaseView {
	q.mu.Lock()
	defer q.mu.Unlock()
	e := &q.shards[i]
	v := LeaseView{
		State:    e.state,
		Attempts: e.attempts,
		Fails:    e.fails,
		Live:     len(e.live),
		Err:      e.err,
		Winner:   e.winner,
	}
	for _, a := range e.live {
		v.Slot = a.slot
		if a.lastBeat.After(v.LastBeat) {
			v.LastBeat = a.lastBeat
		}
	}
	return v
}

// terminal reports whether every shard is done or failed.
func (q *shardQueue) terminal() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := range q.shards {
		if s := q.shards[i].state; s != ShardDone && s != ShardFailed {
			return false
		}
	}
	return true
}

// failures collects the terminal shard errors, in shard order.
func (q *shardQueue) failures() []error {
	q.mu.Lock()
	defer q.mu.Unlock()
	var errs []error
	for i := range q.shards {
		if q.shards[i].state == ShardFailed {
			errs = append(errs, fmt.Errorf("shard %d: %w", i+1, q.shards[i].err))
		}
	}
	return errs
}

// winners returns each shard's winning manifest path, or an error if
// any shard is not done.
func (q *shardQueue) winners() ([]string, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]string, len(q.shards))
	for i := range q.shards {
		if q.shards[i].state != ShardDone {
			return nil, fmt.Errorf("shard %d is %s, not done", i+1, q.shards[i].state)
		}
		out[i] = q.shards[i].winner
	}
	return out, nil
}

// Package experiment is the deterministic parallel experiment engine.
// It executes batches of independent jobs — simulation trials, parameter
// points, replicates — across a pool of worker goroutines and returns
// their results in job order, so the output is bit-identical regardless
// of the worker count or the order in which jobs happen to finish.
//
// The engine is deliberately domain-agnostic: a job is just an index and
// a function. The domain layer (internal/sim's campaigns, which the
// figure generators, cmd/sweep and sweepd all run) enumerates its job
// space up front, fixes every job's random seed before dispatch (see
// Seeds), and folds the ordered results as RunStream delivers them.
// Determinism therefore never depends on scheduling.
//
// On top of the runner the package supplies an aggregation layer over
// the fixed set of per-trial metrics (Metric): Sample/Aggregate group
// replicate measurements into stats.Describe summaries with 95%
// confidence intervals, Table exports any metric as a plotdata table,
// and Manifest serializes a whole campaign as JSON.
// Accumulator folds RunStream's sample stream into online (Welford)
// per-group statistics, keeping memory independent of the replicate
// count. Progress is not the engine's concern: a caller that reports
// it folds the same ordered stream (dispatch.LocalProgress, into
// telemetry snapshots).
package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options configures a RunStream.
type Options struct {
	// Workers is the size of the goroutine pool; values below 1 mean
	// runtime.GOMAXPROCS(0). The pool never exceeds the job count.
	Workers int
}

// WorkerCount resolves the effective pool size for total jobs: the
// Workers field, defaulted to GOMAXPROCS and capped at the job count.
// Callers sizing per-worker state (sim's trial arenas) use it to
// allocate exactly one slot per goroutine the run will start.
func (o Options) WorkerCount(total int) int {
	w := o.Workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > total {
		w = total
	}
	return w
}

// RunStream executes fn(ctx, worker, i) for every index i in [0, total)
// on a worker pool and hands each result to sink exactly once, in
// strictly increasing index order, then drops it. Out-of-order
// completions are buffered until the gap closes, and a worker about to
// start a job too far ahead of the flush point blocks until the gap
// narrows (the window is a small multiple of the pool size), so the
// buffer is genuinely O(workers), not O(jobs) — even when one early job
// is pathologically slow and the rest are fast — which is what lets
// million-trial campaigns aggregate online.
//
// Each job must be a pure function of its index: it draws randomness
// only from state fixed before the call (for example a per-index seed
// from Seeds). worker is the index of the pool goroutine executing the
// job, a stable id in [0, Options.WorkerCount(total)) used by one
// goroutine for the whole run, so fn may mutate its worker slot without
// synchronization; worker-local state may only carry caches whose
// contents never change results (pooled arenas, scratch buffers).
// Because delivery order is the job order, a deterministic fold over
// the stream (for example the streaming Accumulator) is bit-identical
// at any worker count.
//
// sink calls are serialized (no locking needed inside) but may come
// from any worker goroutine. The first failing job cancels the context
// passed to in-flight jobs, stops unstarted work, and is returned; a
// sink error stops the run the same way. The reported error is
// deterministic: jobs are claimed in index order and in-flight jobs
// always finish, so the lowest failing index always runs and wins ties.
// Jobs interrupted by the cancellation should return ctx.Err(); such
// echoes are not mistaken for the root cause. When the parent context
// is cancelled first, RunStream returns its error. On any error, sink
// has received some prefix of the job space; no result after the
// failing index is ever delivered.
func RunStream[T any](ctx context.Context, total int, opts Options, fn func(ctx context.Context, worker, index int) (T, error), sink func(index int, result T) error) error {
	if fn == nil {
		return fmt.Errorf("experiment: nil job function")
	}
	if total < 0 {
		return fmt.Errorf("experiment: negative job count %d", total)
	}
	if sink == nil {
		return fmt.Errorf("experiment: nil sink")
	}
	if total == 0 {
		return ctx.Err()
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next      atomic.Int64      // next job index to claim
		mu        sync.Mutex        // guards everything below and sink
		pending   = make(map[int]T) // completed but not yet flushed
		nextFlush int               // lowest index not yet handed to sink
		firstErr  error
		errIndex  = total // lowest failing index seen so far
	)
	// Backpressure window: a worker holding index i waits until
	// i < nextFlush + window before starting the job, bounding pending to
	// the window size. The claimer of nextFlush itself never waits, so the
	// flush point always advances and the wait cannot deadlock.
	workers := opts.WorkerCount(total)
	window := 32 * workers
	if window < 64 {
		window = 64
	}
	gate := sync.NewCond(&mu)
	go func() {
		// Wake waiters when the run is cancelled (error or parent ctx).
		<-ctx.Done()
		mu.Lock()
		gate.Broadcast()
		mu.Unlock()
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				mu.Lock()
				for i >= nextFlush+window && ctx.Err() == nil {
					gate.Wait()
				}
				// After a failure only the jobs before the failing index
				// still run: every lower index is already claimed, so the
				// lowest failing job is the one reported, whichever worker
				// failed first. A parent cancellation stops everything.
				stop := parent.Err() != nil || ctx.Err() != nil && i > errIndex
				mu.Unlock()
				if stop {
					return
				}
				res, err := fn(ctx, worker, i)
				if err != nil {
					// A job unwinding with the cancellation error after
					// another job already failed is an echo, not a cause.
					echo := ctx.Err() != nil && errors.Is(err, ctx.Err())
					mu.Lock()
					if i < errIndex && !echo {
						firstErr = fmt.Errorf("experiment: job %d: %w", i, err)
						errIndex = i
					}
					mu.Unlock()
					cancel()
					return
				}
				mu.Lock()
				pending[i] = res
				failed := false
				advanced := false
				for {
					r, ok := pending[nextFlush]
					if !ok || nextFlush >= errIndex {
						break
					}
					delete(pending, nextFlush)
					if err := sink(nextFlush, r); err != nil {
						firstErr = fmt.Errorf("experiment: sink at job %d: %w", nextFlush, err)
						errIndex = nextFlush
						failed = true
						break
					}
					nextFlush++
					advanced = true
				}
				if advanced {
					gate.Broadcast()
				}
				mu.Unlock()
				if failed {
					cancel()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// The deferred cancel has not run yet, so a non-nil error here means
	// the parent context was cancelled mid-run.
	return ctx.Err()
}

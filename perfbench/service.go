package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"wsncover/internal/sim"
	"wsncover/internal/sweepd"
	"wsncover/internal/telemetry"
)

// service is an in-process sweepd over its own store. Every request is
// served by Daemon.Handler() without a socket.
type service struct {
	d     *sweepd.Daemon
	store *sweepd.Store
	h     http.Handler
}

func startService(dir string) (*service, error) {
	store, err := sweepd.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	d, err := sweepd.New(sweepd.Options{Store: store})
	if err != nil {
		return nil, err
	}
	return &service{d: d, store: store, h: d.Handler()}, nil
}

// serve sends one request through the handler and returns the response
// status and body; a non-2xx status is an error.
func (s *service) serve(method, target string, body []byte) ([]byte, error) {
	rw := httptest.NewRecorder()
	s.h.ServeHTTP(rw, httptest.NewRequest(method, target, bytes.NewReader(body)))
	if rw.Code/100 != 2 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, target, rw.Code, bytes.TrimSpace(rw.Body.Bytes()))
	}
	return rw.Body.Bytes(), nil
}

// submission is one answered campaign submission.
type submission struct {
	view     sweepd.View
	manifest []byte
	latency  time.Duration
}

// submit posts spec, waits for the campaign's terminal status, checks it
// is want, and fetches the manifest. The latency runs from the POST to
// the last manifest byte. With a recorder, every step is a span, and the
// spec hash and store probe the daemon performs inside Submit are also
// timed on their own.
func (s *service) submit(ctx context.Context, rec *recorder, spec sim.CampaignSpec, name, want string) (submission, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return submission{}, err
	}
	if rec != nil {
		var hash string
		if err := rec.do("telemetry.spec_hash", func() (err error) {
			hash, err = telemetry.SpecHash(spec.Normalized())
			return err
		}); err != nil {
			return submission{}, err
		}
		rec.do("sweepd.store_get", func() error { s.store.Get(hash); return nil })
	}
	var sub submission
	start := time.Now()
	err = rec.do("sweepd.submit", func() error {
		resp, err := s.serve("POST", "/api/v1/campaigns?name="+name, body)
		if err == nil {
			err = json.Unmarshal(resp, &sub.view)
		}
		return err
	})
	if err != nil {
		return sub, err
	}
	if !s.d.Wait(ctx, sub.view.ID) {
		return sub, fmt.Errorf("campaign %d (%s): no terminal status", sub.view.ID, name)
	}
	err = rec.do("sweepd.campaign_view", func() error {
		resp, err := s.serve("GET", fmt.Sprintf("/api/v1/campaigns/%d", sub.view.ID), nil)
		if err == nil {
			err = json.Unmarshal(resp, &sub.view)
		}
		return err
	})
	if err != nil {
		return sub, err
	}
	if sub.view.Status != want {
		return sub, fmt.Errorf("campaign %d (%s): status %q (%s), want %q",
			sub.view.ID, name, sub.view.Status, sub.view.Error, want)
	}
	err = rec.do("sweepd.manifest_fetch", func() (err error) {
		sub.manifest, err = s.serve("GET", "/api/v1/manifests/"+sub.view.SpecHash, nil)
		return err
	})
	sub.latency = time.Since(start)
	return sub, err
}

// round is one closed-loop round of the service workload: a cold base
// campaign, its widened copy, and exact resubmissions of the base.
type round struct {
	base, widen     sim.CampaignSpec
	cold, wide      submission
	coldErr, widErr error
	hits            []time.Duration
	trials          int
	elapsed         time.Duration
}

// runRound submits round r. Hits alternate the worker count between 1
// and 2, a field the spec hash strips, and must return the cold
// manifest's bytes.
// Operation outcomes other than the reference checks of the cold and
// widened manifests (made later, untimed) go into t.
func (s *service) runRound(ctx context.Context, rec *recorder, w *workloadDef, seed int64, r int, t *tally) (round, error) {
	base, err := w.campaignSpec(seed, r)
	if err != nil {
		return round{}, err
	}
	widen := base
	widen.Spares = w.WidenSpares
	rd := round{base: base, widen: widen}
	start := time.Now()

	id := rec.beginTrial("sweepd.request")
	rd.cold, rd.coldErr = s.submit(ctx, rec, base, fmt.Sprintf("base-%d", r), sweepd.StatusCompleted)
	rec.end(id)
	id = rec.beginTrial("sweepd.request")
	rd.wide, rd.widErr = s.submit(ctx, rec, widen, fmt.Sprintf("widen-%d", r), sweepd.StatusCompleted)
	rec.end(id)
	if rd.coldErr == nil {
		rd.trials += base.NumJobs()
	}
	if rd.widErr == nil {
		rd.trials += widen.NumJobs()
	}
	for h := 0; h < w.Hits; h++ {
		hit := base
		if h%2 == 1 {
			hit.Workers = base.Workers%2 + 1
		}
		id := rec.beginTrial("sweepd.request")
		sub, err := s.submit(ctx, rec, hit, fmt.Sprintf("hit-%d-%d", r, h), sweepd.StatusCached)
		rec.end(id)
		t.record(err == nil && rd.coldErr == nil && bytes.Equal(sub.manifest, rd.cold.manifest))
		if err == nil {
			rd.hits = append(rd.hits, sub.latency)
		}
	}
	rd.elapsed = time.Since(start)
	return rd, nil
}

// checkRound compares the round's cold and widened manifests with a
// direct in-process engine run of the same spec, records both outcomes,
// and returns the wall time of each engine run.
func checkRound(ctx context.Context, rd round, r int, t *tally) []time.Duration {
	var engine []time.Duration
	for _, c := range []struct {
		spec sim.CampaignSpec
		name string
		sub  submission
		err  error
	}{
		{rd.base, fmt.Sprintf("base-%d", r), rd.cold, rd.coldErr},
		{rd.widen, fmt.Sprintf("widen-%d", r), rd.wide, rd.widErr},
	} {
		if c.err != nil {
			t.record(false)
			continue
		}
		start := time.Now()
		want, err := campaignManifest(ctx, c.name, c.spec, c.spec)
		engine = append(engine, time.Since(start))
		t.record(err == nil && bytes.Equal(c.sub.manifest, want))
	}
	return engine
}

// runService measures the service workload: a closed loop of rounds
// from one client, in blocks of BlockRounds rounds, each block against a
// fresh daemon and store, until the time is up. Resolving a manifest
// scans the whole store, so a round costs more the more the store holds;
// fixed blocks give every run the same store sizes, however many rounds
// fit in its time. trials_per_s is the median over rounds of each round's
// trials per second, normalised by the host speed read right before the
// round (see hostSpeed). Each block's outputs are checked, untimed,
// before the next block starts.
func runService(ctx context.Context, f *benchFile, w *workloadDef, seed int64, seconds float64, scratch string) (*result, error) {
	first, err := w.campaignSpec(seed, 0)
	if err != nil {
		return nil, err
	}
	if w.BlockRounds < 1 {
		return nil, fmt.Errorf("workload %s: block_rounds must be at least 1", w.Name)
	}
	// Set-up: daemon and store start plus the engine world at the
	// workload's grid.
	var started []*service
	setup, err := medianSetup(f.SetupReps, func(rep int) error {
		s, err := startService(filepath.Join(scratch, fmt.Sprintf("store-%d", rep)))
		if err != nil {
			return err
		}
		started = append(started, s)
		for _, g := range first.Normalized().Grids {
			if err := buildWorld(g, first.CommRange, rep == 0); err != nil {
				return err
			}
		}
		return nil
	})
	for _, s := range started {
		s.d.Drain()
	}
	if err != nil {
		return nil, err
	}

	res := newResult()
	var cold, wide, hits, rates, walls, speeds []float64
	trials, rounds := 0, 0
	var timed time.Duration
	var allocated uint64
	for b := 0; b == 0 || timed.Seconds() < seconds; b++ {
		dir := filepath.Join(scratch, fmt.Sprintf("block-%d", b))
		svc, err := startService(dir)
		if err != nil {
			return nil, err
		}
		block := make([]round, 0, w.BlockRounds)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for r := rounds; r < rounds+w.BlockRounds; r++ {
			speed := hostSpeed()
			rd, err := svc.runRound(ctx, nil, w, seed, r, &res.tally)
			if err != nil {
				svc.d.Drain()
				return nil, err
			}
			block = append(block, rd)
			speeds = append(speeds, speed)
		}
		timed += time.Since(start)
		runtime.ReadMemStats(&after)
		allocated += after.TotalAlloc - before.TotalAlloc
		svc.d.Drain()

		for i, rd := range block {
			trials += rd.trials
			wall := float64(rd.trials) / rd.elapsed.Seconds()
			walls = append(walls, wall)
			rates = append(rates, wall*speeds[rounds+i])
			if rd.coldErr == nil {
				cold = append(cold, ms(rd.cold.latency))
			}
			if rd.widErr == nil {
				wide = append(wide, ms(rd.wide.latency))
			}
			for _, h := range rd.hits {
				hits = append(hits, ms(h))
			}
			checkRound(ctx, rd, rounds+i, &res.tally)
			for _, err := range []error{rd.coldErr, rd.widErr} {
				if err != nil {
					res.note("round %d: %v", rounds+i, err)
				}
			}
		}
		rounds += len(block)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	rss := maxRSSMiB()
	if trials == 0 {
		return nil, fmt.Errorf("workload %s: no campaign completed", w.Name)
	}
	elapsed := timed.Seconds()
	submissions := rounds * (2 + w.Hits)
	res.note("workload %s: %d rounds in blocks of %d, %d submissions, %d trials in %.3f s",
		w.Name, rounds, w.BlockRounds, submissions, trials, elapsed)
	res.metric("setup_s", setup, "s")
	res.metric("trials_per_s", median(rates), "trials/s")
	res.report("trials_per_s.wall", median(walls), "trials/s",
		fmt.Sprintf("not normalised; host speed reading %.3f (median)", median(speeds)))
	res.metric("alloc_kb_per_trial", float64(allocated)/1024/float64(trials), "KiB")
	res.metric("max_rss_mb", rss, "MiB")
	res.percentiles("cold_ms", cold, "ms", 0.50, 0.75)
	res.percentiles("widen_ms", wide, "ms", 0.50, 0.75)
	res.percentiles("hit_ms", hits, "ms", 0.50, 0.95)
	res.report("campaigns_per_s", float64(submissions)/elapsed, "campaigns/s", "closed loop, 1 client")
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

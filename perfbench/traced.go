package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"wsncover/internal/ar"
	"wsncover/internal/async"
	"wsncover/internal/core"
	"wsncover/internal/coverage"
	"wsncover/internal/deploy"
	"wsncover/internal/geom"
	"wsncover/internal/grid"
	"wsncover/internal/hamilton"
	"wsncover/internal/metrics"
	"wsncover/internal/network"
	"wsncover/internal/node"
	"wsncover/internal/randx"
	"wsncover/internal/sim"
	"wsncover/internal/sweepd"
)

// asyncPollInterval is the async runner's poll period in seconds; one
// schedule round maps to one period (sim's trial assembly uses the same).
const asyncPollInterval = 0.5

// tracer rebuilds trials from public calls, with a span around each
// call into a layer. Like sim.TrialArena it pools one network (Reset
// between trials of the same geometry), one collector and the
// controllers' scratch state, so a rebuilt trial does the same work as
// an arena trial.
type tracer struct {
	rec *recorder

	net        *network.Network
	cols, rows int
	commRange  float64
	energy     node.EnergyModel

	col *metrics.Collector
	sr  core.Scratch
	ar  ar.Scratch
	as  async.Scratch
}

func newTracer(rec *recorder) *tracer { return &tracer{rec: rec, col: metrics.NewCollector()} }

// trialCounts are the protocol counters of one rebuilt trial.
type trialCounts struct {
	steps       int // Step calls (sync runner)
	events      int // schedule events applied
	asyncEvents int // events RunUntil processed (async runner)
}

// trialConfig resolves a campaign job into its trial configuration, as
// the engine does for every job.
func trialConfig(spec sim.CampaignSpec, j sim.TrialJob) sim.TrialConfig {
	return sim.TrialConfig{
		Cols:            j.Grid.Cols,
		Rows:            j.Grid.Rows,
		CommRange:       spec.CommRange,
		Spares:          j.Spares,
		Holes:           j.Holes,
		AdjacentHolesOK: spec.AdjacentHolesOK,
		Workload:        j.Workload,
		Runner:          j.Runner,
		ClaimTTL:        j.ClaimTTL,
		JamRadius:       spec.JamRadius,
		Scheme:          j.Scheme,
		Seed:            j.Seed,
		ARInitProb:      spec.ARInitProb,
		ARMaxHops:       spec.ARMaxHops,
	}
}

// network returns a pristine network for cfg: the pooled one, Reset,
// when the geometry matches; a new one otherwise.
func (t *tracer) network(cfg *sim.TrialConfig) (*network.Network, error) {
	if t.net != nil && t.cols == cfg.Cols && t.rows == cfg.Rows &&
		t.commRange == cfg.CommRange && t.energy == cfg.EnergyModel {
		return t.net, t.rec.do("network.reset", func() error { t.net.Reset(); return nil })
	}
	err := t.rec.do("network.new", func() error {
		sys, err := grid.NewForCommRange(cfg.Cols, cfg.Rows, cfg.CommRange, geom.Pt(0, 0))
		if err != nil {
			return err
		}
		t.net = network.New(sys, cfg.EnergyModel)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.cols, t.rows, t.commRange, t.energy = cfg.Cols, cfg.Rows, cfg.CommRange, cfg.EnergyModel
	return t.net, nil
}

// run rebuilds and runs one trial: the schedule, the deployment, the
// controller and the event loop of sim's trial assembly, call for call
// and random stream for random stream.
func (t *tracer) run(cfg sim.TrialConfig) (sim.TrialResult, trialCounts, error) {
	root := t.rec.beginTrial("sim.trial")
	defer t.rec.end(root)
	var counts trialCounts
	if cfg.CommRange == 0 {
		cfg.CommRange = sim.PaperCommRange
	}
	if cfg.Holes == 0 {
		cfg.Holes = 1
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 2*cfg.Cols*cfg.Rows + 16
	}
	if cfg.Workload.Kind == "" {
		cfg.Workload.Kind = sim.WorkloadHoles
	}
	if cfg.MessageLoss != 0 || cfg.LegacyAssembly {
		return sim.TrialResult{}, counts, fmt.Errorf("tracer: lossy radio and legacy assembly are not rebuilt")
	}

	var sched sim.Schedule
	err := t.rec.do("sim.schedule", func() error {
		wl, err := sim.BuildWorkload(cfg.Workload)
		if err != nil {
			return err
		}
		sched, err = wl.Schedule(&cfg)
		return err
	})
	if err != nil {
		return sim.TrialResult{}, counts, err
	}
	rng := randx.New(cfg.Seed)
	net, err := t.network(&cfg)
	if err != nil {
		return sim.TrialResult{}, counts, err
	}
	if err := t.deploy(cfg, sched, net, rng); err != nil {
		return sim.TrialResult{}, counts, err
	}

	var scheme sim.Scheme
	var actrl *async.Controller
	var prefix string
	var topo *hamilton.Topology
	if cfg.Runner == sim.RunAsync || cfg.Scheme != sim.AR {
		err = t.rec.do("hamilton.shared", func() (err error) {
			topo, err = hamilton.Shared(net.System())
			return err
		})
		if err != nil {
			return sim.TrialResult{}, counts, err
		}
	}
	switch {
	case cfg.Runner == sim.RunAsync:
		prefix = "async"
		err = t.rec.do("async.new", func() (err error) {
			actrl, err = async.New(net, async.Config{
				Topology:     topo,
				RNG:          rng.Split(3),
				PollInterval: asyncPollInterval,
				Collector:    t.col,
				Scratch:      &t.as,
			})
			return err
		})
	case cfg.Scheme == sim.AR:
		prefix = "ar"
		err = t.rec.do("ar.new", func() error {
			scheme = ar.New(net, ar.Config{
				RNG:            rng.Split(3),
				InitProb:       cfg.ARInitProb,
				MaxHops:        cfg.ARMaxHops,
				FullScanDetect: cfg.LegacyDetect,
				Collector:      t.col,
				Scratch:        &t.ar,
			})
			return nil
		})
	default:
		prefix = "core"
		err = t.rec.do("core.new", func() (err error) {
			scheme, err = core.New(net, core.Config{
				Topology:         topo,
				RNG:              rng.Split(3),
				NeighborShortcut: cfg.Scheme == sim.SRShortcut,
				FullScanDetect:   cfg.LegacyDetect,
				ClaimTTL:         cfg.ClaimTTL,
				ByzantineFrac:    cfg.ByzantineFrac,
				ByzantineProb:    cfg.ByzantineProb,
				ByzantineLies:    cfg.ByzantineLies,
				Collector:        t.col,
				Scratch:          &t.sr,
			})
			return err
		})
	}
	if err != nil {
		return sim.TrialResult{}, counts, err
	}
	evRNG := rng.Split(4)

	var res sim.TrialResult
	loop := &eventLoop{t: t, net: net, scheme: scheme, evRNG: evRNG, cur: newCursor(sched.Events), counts: &counts}
	if actrl != nil {
		res.Rounds, res.HolesBefore, err = loop.runAsync(actrl, cfg.MaxRounds)
	} else {
		res.Rounds, res.HolesBefore, err = loop.runSync(prefix, cfg.MaxRounds)
	}
	if err != nil {
		return sim.TrialResult{}, counts, err
	}
	t.rec.do("metrics.summarize", func() error { res.Summary = t.col.Summarize(); return nil })
	t.rec.do("coverage.hole_count", func() error { res.HolesAfter = coverage.HoleCount(net); return nil })
	t.rec.do("coverage.complete", func() error { res.Complete = coverage.Complete(net); return nil })
	t.rec.do("network.head_graph", func() error { res.Connected = net.HeadGraphConnected(); return nil })
	return res, counts, nil
}

// deploy populates the network. The holes and churn deployments are
// unrolled into their deploy calls (same calls, same random streams as
// their schedules' Deploy) so each gets its own span; any other kind runs
// its schedule's Deploy as one span.
func (t *tracer) deploy(cfg sim.TrialConfig, sched sim.Schedule, net *network.Network, rng *randx.Rand) error {
	switch cfg.Workload.Kind {
	case sim.WorkloadHoles:
		holes := cfg.Workload.Holes
		if holes == 0 {
			holes = cfg.Holes
		}
		var cells []grid.Coord
		err := t.rec.do("deploy.pick_holes", func() (err error) {
			cells, err = deploy.PickHoleCells(net.System(), holes, !cfg.AdjacentHolesOK, rng.Split(1))
			return err
		})
		if err != nil {
			return err
		}
		return t.rec.do("deploy.controlled", func() error {
			return deploy.Controlled(net, cfg.Spares, cells, rng.Split(2))
		})
	case sim.WorkloadChurn:
		return t.rec.do("deploy.controlled", func() error {
			return deploy.Controlled(net, cfg.Spares, nil, rng.Split(2))
		})
	}
	if sched.Deploy == nil {
		return nil
	}
	return t.rec.do("sim.deploy", func() error { return sched.Deploy(net, rng) })
}

// eventLoop is sim's trial event loop: schedule events interleaved with
// controller steps until convergence or the round budget.
type eventLoop struct {
	t      *tracer
	net    *network.Network
	scheme sim.Scheme // nil on the async runner
	evRNG  *randx.Rand
	cur    *cursor
	counts *trialCounts
}

// applyDue fires every event due at or before round, each with its own
// child stream of the event stream.
func (l *eventLoop) applyDue(round int) error {
	for {
		ev, ok := l.cur.pop(round)
		if !ok {
			return nil
		}
		err := l.t.rec.do("sim.event_apply", func() error {
			return ev.Apply(l.net, l.evRNG.Split(int64(round)), round)
		})
		if err != nil {
			return err
		}
		l.counts.events++
		if ev.Rally {
			if r, ok := l.scheme.(interface{ ResetFailed() }); ok {
				r.ResetFailed()
			}
		}
	}
}

func (l *eventLoop) holeCount() (n int) {
	l.t.rec.do("coverage.hole_count", func() error { n = coverage.HoleCount(l.net); return nil })
	return n
}

func (l *eventLoop) runSync(prefix string, maxRounds int) (rounds, holesBefore int, err error) {
	const idleGrace = 3
	idle, lastActive := 0, 0
	for rounds < maxRounds {
		if err := l.applyDue(rounds); err != nil {
			return rounds, holesBefore, err
		}
		if rounds == 0 {
			holesBefore = l.holeCount()
		}
		if err := l.t.rec.do(prefix+".step", l.scheme.Step); err != nil {
			return rounds, holesBefore, err
		}
		l.counts.steps++
		rounds++
		if !l.scheme.Done() {
			lastActive = rounds
		}
		if l.scheme.Done() && !l.cur.barrierPending() && l.cur.quiescent(lastActive) {
			idle++
			if idle >= idleGrace {
				return rounds, holesBefore, nil
			}
		} else {
			idle = 0
		}
	}
	l.t.rec.do(prefix+".finalize", func() error { l.scheme.Finalize(); return nil })
	return rounds, holesBefore, nil
}

func (l *eventLoop) runAsync(c *async.Controller, maxRounds int) (rounds, holesBefore int, err error) {
	runUntil := func(deadline float64) error {
		return l.t.rec.do("async.run_until", func() error {
			n, err := c.RunUntil(deadline)
			l.counts.asyncEvents += n
			return err
		})
	}
	asyncRounds := func() int { return min(int(c.Now()/asyncPollInterval)+1, maxRounds) }
	if err := l.applyDue(0); err != nil {
		return 0, 0, err
	}
	holesBefore = l.holeCount()
	for {
		due, ok := l.cur.nextDue()
		if !ok || due >= maxRounds {
			break
		}
		if err := runUntil(float64(due) * asyncPollInterval); err != nil {
			return asyncRounds(), holesBefore, err
		}
		if err := l.applyDue(due); err != nil {
			return asyncRounds(), holesBefore, err
		}
	}
	if err := runUntil(float64(maxRounds) * asyncPollInterval); err != nil {
		return asyncRounds(), holesBefore, err
	}
	if !c.Done() {
		l.t.rec.do("async.finalize", func() error { c.Finalize(); return nil })
	}
	return asyncRounds(), holesBefore, nil
}

// cursor walks a schedule's events in firing order: one-shot events by
// (round, declaration order), recurring events re-arming every Every
// rounds; within a round one-shots fire first.
type cursor struct {
	oneShot     []sim.Event
	next        int
	lastBarrier int // index of the last barrier one-shot, -1 if none
	recur       []sim.Event
	fire, fired []int // next and most recent firing round per recurring event
}

func newCursor(events []sim.Event) *cursor {
	c := &cursor{lastBarrier: -1}
	for _, ev := range events {
		if ev.Every > 0 {
			c.recur = append(c.recur, ev)
			c.fire = append(c.fire, ev.Round)
			c.fired = append(c.fired, -1)
		} else {
			c.oneShot = append(c.oneShot, ev)
		}
	}
	sort.SliceStable(c.oneShot, func(i, j int) bool { return c.oneShot[i].Round < c.oneShot[j].Round })
	for i, ev := range c.oneShot {
		if ev.Barrier {
			c.lastBarrier = i
		}
	}
	return c
}

func (c *cursor) pop(round int) (sim.Event, bool) {
	if c.next < len(c.oneShot) && c.oneShot[c.next].Round <= round {
		c.next++
		return c.oneShot[c.next-1], true
	}
	for i := range c.recur {
		if c.fire[i] <= round {
			c.fired[i] = c.fire[i]
			c.fire[i] += c.recur[i].Every
			return c.recur[i], true
		}
	}
	return sim.Event{}, false
}

func (c *cursor) nextDue() (int, bool) {
	due, ok := 0, false
	if c.next < len(c.oneShot) {
		due, ok = c.oneShot[c.next].Round, true
	}
	for _, f := range c.fire {
		if !ok || f < due {
			due, ok = f, true
		}
	}
	return due, ok
}

func (c *cursor) barrierPending() bool { return c.next <= c.lastBarrier }

func (c *cursor) quiescent(since int) bool {
	for _, f := range c.fired {
		if f < since {
			return false
		}
	}
	return true
}

// sampledTrial is one traced trial with its untraced twin.
type sampledTrial struct {
	cfg              sim.TrialConfig
	res              sim.TrialResult
	counts           trialCounts
	traced, untraced time.Duration
}

// traceCampaign re-runs the first TraceReplicates replicates of every
// cell of the workload's first campaign, each twice on one worker: once
// through a sim.TrialArena (untraced) and once rebuilt by the tracer.
// A rebuilt result that differs from the arena's is a failed operation.
// It returns the sample and its trial id range in the recorder.
func traceCampaign(rec *recorder, w *workloadDef, seed int64, t *tally) ([]sampledTrial, [2]int, error) {
	spec, err := w.campaignSpec(seed, 0)
	if err != nil {
		return nil, [2]int{}, err
	}
	var jobs []sim.TrialJob
	spec.ExecutedJobs(func(j sim.TrialJob) bool { return j.Replicate < w.TraceReplicates },
		func(j sim.TrialJob) { jobs = append(jobs, j) })
	arena, tr := sim.NewTrialArena(), newTracer(rec)
	ids := [2]int{rec.trial + 1, rec.trial + len(jobs)}
	var out []sampledTrial
	for i, j := range jobs {
		s := sampledTrial{cfg: trialConfig(spec, j)}
		var want sim.TrialResult
		var errU, errT error
		untraced := func() {
			start := time.Now()
			want, errU = arena.RunTrial(s.cfg)
			s.untraced = time.Since(start)
		}
		traced := func() {
			start := time.Now()
			s.res, s.counts, errT = tr.run(s.cfg)
			s.traced = time.Since(start)
		}
		// Alternate which twin runs first, so neither always inherits the
		// other's garbage and cache state.
		if i%2 == 0 {
			untraced()
			traced()
		} else {
			traced()
			untraced()
		}
		if err := errors.Join(errU, errT); err != nil {
			return nil, ids, fmt.Errorf("%s: %s seed %d: %w", w.Name, j.Group(), j.Seed, err)
		}
		t.record(s.res == want)
		out = append(out, s)
	}
	return out, ids, nil
}

// protocolStats averages the counters of the sampled trials that match.
type protocolStats struct {
	trials                           int
	steps, events, asyncEvents, msgs float64
	initiated, converged, moves      float64
}

func statsOf(sample []sampledTrial, keep func(sampledTrial) bool) protocolStats {
	var p protocolStats
	for _, s := range sample {
		if !keep(s) {
			continue
		}
		p.trials++
		p.steps += float64(s.counts.steps)
		p.events += float64(s.counts.events)
		p.asyncEvents += float64(s.counts.asyncEvents)
		p.msgs += float64(s.res.Summary.Messages)
		p.initiated += float64(s.res.Summary.Initiated)
		p.converged += float64(s.res.Summary.Converged)
		p.moves += float64(s.res.Summary.Moves)
	}
	return p
}

func (p protocolStats) per(x float64) float64 {
	if p.trials == 0 {
		return 0
	}
	return x / float64(p.trials)
}

func (p protocolStats) successRatio() float64 {
	if p.initiated == 0 {
		return 1
	}
	return p.converged / p.initiated
}

// runTraced is the per-layer run. It traces a sample of every workload
// (whatever --workload names), so each per-layer metric is measured on
// the workload where that layer matters; workloads.json maps them.
func runTraced(ctx context.Context, f *benchFile, seed int64, scratch, out string) (*result, error) {
	rec := newRecorder()
	res := newResult()
	samples := make(map[string][]sampledTrial)
	ranges := make(map[string][2]int)
	var svcName string
	for _, w := range f.Workloads {
		if w.Service {
			svcName = w.Name
			continue
		}
		s, ids, err := traceCampaign(rec, &w, seed, &res.tally)
		if err != nil {
			return nil, err
		}
		samples[w.Name], ranges[w.Name] = s, ids
	}
	svcW, err := f.workload(svcName)
	if err != nil {
		return nil, err
	}
	svc, err := traceService(ctx, rec, svcW, seed, filepath.Join(scratch, "traced-store"), &res.tally)
	if err != nil {
		return nil, err
	}
	ranges[svcName] = svc.ids

	// A cold topology build at the largest grid, uncached.
	var buildS float64
	for _, w := range f.Workloads {
		spec, err := w.campaignSpec(seed, 0)
		if err != nil {
			return nil, err
		}
		for _, g := range spec.Normalized().Grids {
			sys, err := grid.NewForCommRange(g.Cols, g.Rows, sim.PaperCommRange, geom.Pt(0, 0))
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if _, err := hamilton.Build(sys); err != nil {
				return nil, err
			}
			buildS = max(buildS, time.Since(start).Seconds())
		}
	}

	trialUS, err := arenaTrialTimes(svcW, seed)
	if err != nil {
		return nil, err
	}

	path, err := writeSpans(rec.spans, filepath.Join(out, "traces"), seed)
	if err != nil {
		return nil, err
	}
	self := selfTimes(rec.spans)
	layer := func(workload, name string) float64 {
		r := ranges[workload]
		return layers(rec.spans, self, r[0], r[1])[name].perTrialUS()
	}

	const field, churn, asy = "field-1024", "churn-64", "async-32"
	for _, n := range []string{"network.reset", "network.new", "network.head_graph", "deploy.pick_holes",
		"deploy.controlled", "core.new", "hamilton.shared", "coverage.hole_count", "metrics.summarize"} {
		res.metric(n+"_us", layer(field, n), "us")
	}
	res.metric("hamilton.build_s", buildS, "s")

	isSR := func(s sampledTrial) bool { return s.cfg.Scheme == sim.SR }
	isAR := func(s sampledTrial) bool { return s.cfg.Scheme == sim.AR }
	all := func(sampledTrial) bool { return true }
	for _, p := range []struct {
		prefix string
		keep   func(sampledTrial) bool
	}{{"core", isSR}, {"ar", isAR}} {
		st := statsOf(samples[churn], p.keep)
		if p.prefix == "ar" {
			res.metric("ar.new_us", layer(churn, "ar.new"), "us")
		}
		res.metric(p.prefix+".step_us", layer(churn, p.prefix+".step"), "us")
		res.metric(p.prefix+".rounds", st.per(st.steps), "count")
		res.metric(p.prefix+".processes", st.per(st.initiated), "count")
		res.metric(p.prefix+".success_ratio", st.successRatio(), "ratio")
		res.metric(p.prefix+".moves", st.per(st.moves), "count")
	}
	churnAll := statsOf(samples[churn], all)
	res.metric("sim.schedule_us", layer(churn, "sim.schedule"), "us")
	res.metric("sim.event_apply_us", layer(churn, "sim.event_apply"), "us")
	res.metric("sim.events", churnAll.per(churnAll.events), "count")
	res.metric("network.messages", churnAll.per(churnAll.msgs), "count")

	asyncAll := statsOf(samples[asy], all)
	res.metric("async.new_us", layer(asy, "async.new"), "us")
	res.metric("async.run_until_us", layer(asy, "async.run_until"), "us")
	res.metric("async.events", asyncAll.per(asyncAll.asyncEvents), "count")
	res.metric("async.processes", asyncAll.per(asyncAll.initiated), "count")

	for _, n := range []string{"sweepd.submit", "telemetry.spec_hash", "sweepd.store_get", "sweepd.manifest_fetch"} {
		res.metric(n+"_us", layer(svcName, n), "us")
	}
	res.metric("sweepd.queue_wait_ms", mean(svc.queueWaitMS), "ms")
	res.metric("sweepd.run_ms", mean(svc.runMS), "ms")
	res.metric("sweepd.engine_ms", mean(svc.engineMS), "ms")
	res.metric("sweepd.hit_ratio", float64(svc.cached)/float64(svc.requests), "ratio")

	p50, _ := percentile(trialUS, 0.5)
	res.metrics["sim.trial_us.p50"] = metricValue{p50, "us"}
	res.percentiles("sim.trial_us", trialUS, "us", 0.5, 0.75)

	var traced, untraced time.Duration
	for _, name := range []string{field, churn, asy} {
		var tr, un time.Duration
		for _, s := range samples[name] {
			tr += s.traced
			un += s.untraced
		}
		res.report(name+".trials_per_s", float64(len(samples[name]))/un.Seconds(), "trials/s",
			fmt.Sprintf("untraced, 1 worker, %d trials; traced %.4f trials/s",
				len(samples[name]), float64(len(samples[name]))/tr.Seconds()))
		traced += tr
		untraced += un
	}
	res.metric("trace.overhead_ratio", traced.Seconds()/untraced.Seconds(), "ratio")
	res.note("spans: %d written to %s", len(rec.spans), path)
	return res, nil
}

// arenaTrialTimes times every trial of the service workload's base
// campaign (the paper's 16x16 configuration) through one TrialArena,
// untraced, in µs.
func arenaTrialTimes(w *workloadDef, seed int64) ([]float64, error) {
	spec, err := w.campaignSpec(seed, 0)
	if err != nil {
		return nil, err
	}
	var jobs []sim.TrialJob
	spec.ExecutedJobs(nil, func(j sim.TrialJob) { jobs = append(jobs, j) })
	arena := sim.NewTrialArena()
	out := make([]float64, 0, len(jobs))
	for _, j := range jobs {
		start := time.Now()
		if _, err := arena.RunTrial(trialConfig(spec, j)); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(start))/float64(time.Microsecond))
	}
	return out, nil
}

// serviceTrace is the traced service sample.
type serviceTrace struct {
	ids                          [2]int
	requests, cached             int
	queueWaitMS, runMS, engineMS []float64
}

// traceService runs TraceRounds service rounds against a fresh daemon
// with spans around every request step. The reference check of each
// round times the bare engine on the same cold and widened specs.
func traceService(ctx context.Context, rec *recorder, w *workloadDef, seed int64, dir string, t *tally) (serviceTrace, error) {
	var st serviceTrace
	svc, err := startService(dir)
	if err != nil {
		return st, err
	}
	defer svc.d.Drain()
	st.ids[0] = rec.trial + 1
	for r := 0; r < w.TraceRounds; r++ {
		rd, err := svc.runRound(ctx, rec, w, seed, r, t)
		if err != nil {
			return st, err
		}
		if err := errors.Join(rd.coldErr, rd.widErr); err != nil {
			return st, err
		}
		for _, d := range checkRound(ctx, rd, r, t) {
			st.engineMS = append(st.engineMS, ms(d))
		}
		st.requests += 2 + w.Hits
		st.cached += len(rd.hits)
		for _, v := range []sweepd.View{rd.cold.view, rd.wide.view} {
			st.queueWaitMS = append(st.queueWaitMS, ms(v.Started.Sub(v.Submitted)))
			st.runMS = append(st.runMS, ms(v.Finished.Sub(v.Started)))
		}
	}
	st.ids[1] = rec.trial
	return st, nil
}

// writeSpans writes the spans as JSON lines to dir/spans-seed<seed>.ndjson.
func writeSpans(spans []span, dir string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-seed%d.ndjson", seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

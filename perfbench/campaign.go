package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"wsncover/internal/experiment"
	"wsncover/internal/geom"
	"wsncover/internal/grid"
	"wsncover/internal/hamilton"
	"wsncover/internal/network"
	"wsncover/internal/node"
	"wsncover/internal/sim"
)

// campaignManifest runs exec on the engine and returns the manifest
// bytes cmd/sweep would write for it, labelled with label's spec (so a
// fresh_build reference run yields the same bytes as the pooled run).
func campaignManifest(ctx context.Context, name string, exec, label sim.CampaignSpec) ([]byte, error) {
	acc := experiment.NewAccumulator()
	err := sim.RunCampaignStream(ctx, exec, experiment.Options{Workers: exec.Workers},
		func(_ sim.TrialJob, s experiment.Sample) error {
			acc.Add(s)
			return nil
		})
	if err != nil {
		return nil, err
	}
	label = label.Normalized()
	m, err := experiment.NewManifest(name, label, label.NumJobs(), label.Workers, acc.Points())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// buildWorld is the per-process set-up of one grid geometry: the Hamilton
// topology (through the process-wide cache on the first call, uncached
// after it, so every repetition pays the cold build) and the network a
// trial arena pools.
func buildWorld(g sim.GridSize, commRange float64, first bool) error {
	if commRange == 0 {
		commRange = sim.PaperCommRange
	}
	sys, err := grid.NewForCommRange(g.Cols, g.Rows, commRange, geom.Pt(0, 0))
	if err != nil {
		return err
	}
	if first {
		_, err = hamilton.Shared(sys)
	} else {
		_, err = hamilton.Build(sys)
	}
	network.New(sys, node.EnergyModel{})
	return err
}

// medianSetup runs setup reps times and returns the median wall time in
// seconds. setup receives the repetition index.
func medianSetup(reps int, setup func(rep int) error) (float64, error) {
	times := make([]float64, reps)
	for rep := range times {
		start := time.Now()
		if err := setup(rep); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		times[rep] = time.Since(start).Seconds()
	}
	return median(times), nil
}

// refWorkers is the worker count of the untimed reference runs. The
// engine's output does not depend on it, so the reference also checks
// that the timed run's manifest is independent of its worker count.
const refWorkers = 2

// campaignRun is one timed campaign and its manifest.
type campaignRun struct {
	spec     sim.CampaignSpec
	manifest []byte
	err      error
}

// runCampaigns measures a campaign workload: consecutive campaigns of
// the workload's spec (seeds 1000*seed + k) until the time is up, each
// on its own engine run with the spec's worker count. After the timed
// phase every campaign's manifest is compared with a fresh_build
// reference run of the same spec on refWorkers workers. trials_per_s is
// the median over campaigns of each campaign's trials per second,
// normalised by the mean of the host speed read right before and right
// after the campaign (see hostSpeed), since a campaign lasts seconds.
func runCampaigns(ctx context.Context, f *benchFile, w *workloadDef, seed int64, seconds float64) (*result, error) {
	first, err := w.campaignSpec(seed, 0)
	if err != nil {
		return nil, err
	}
	setup, err := medianSetup(f.SetupReps, func(rep int) error {
		for _, g := range first.Normalized().Grids {
			if err := buildWorld(g, first.CommRange, rep == 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var runs []campaignRun
	var rates, walls, speeds []float64
	trials := 0
	for k := 0; k == 0 || time.Since(start).Seconds() < seconds; k++ {
		spec, err := w.campaignSpec(seed, k)
		if err != nil {
			return nil, err
		}
		speed := hostSpeed()
		t0 := time.Now()
		m, err := campaignManifest(ctx, w.Name, spec, spec)
		wall := float64(spec.NumJobs()) / time.Since(t0).Seconds()
		speed = (speed + hostSpeed()) / 2
		runs = append(runs, campaignRun{spec, m, err})
		if err == nil {
			trials += spec.NumJobs()
			walls = append(walls, wall)
			speeds = append(speeds, speed)
			rates = append(rates, wall*speed)
		}
	}
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	rss := maxRSSMiB()

	res := newResult()
	for _, c := range runs {
		if c.err != nil {
			res.note("campaign seed %d: %v", c.spec.BaseSeed, c.err)
			res.record(false)
			continue
		}
		ref := c.spec
		ref.FreshBuild = true
		ref.Workers = refWorkers
		want, err := campaignManifest(ctx, w.Name, ref, c.spec)
		ok := err == nil && bytes.Equal(c.manifest, want)
		if !ok {
			res.note("campaign seed %d: manifest differs from the fresh_build reference (err %v)", c.spec.BaseSeed, err)
		}
		res.record(ok)
	}
	if trials == 0 {
		return nil, fmt.Errorf("workload %s: no campaign completed", w.Name)
	}
	res.note("workload %s: %d campaigns, %d trials in %.3f s (%d workers)",
		w.Name, len(runs), trials, elapsed, first.Workers)
	res.metric("setup_s", setup, "s")
	res.metric("trials_per_s", median(rates), "trials/s")
	res.report("trials_per_s.wall", median(walls), "trials/s",
		fmt.Sprintf("not normalised; host speed reading %.3f (median)", median(speeds)))
	res.metric("alloc_kb_per_trial", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(trials), "KiB")
	res.metric("max_rss_mb", rss, "MiB")
	return res, nil
}

package sweepd

import (
	"wsncover/internal/dispatch"
	"wsncover/internal/sim"
	"wsncover/internal/telemetry"
)

// execute runs one campaign on the embedded engine — no subprocess, the
// daemon is the worker — through the same dispatch.LocalRun as
// cmd/sweep, over the store's cells, so the stored manifest is
// byte-identical to what the CLI writes for the same submission, and
// installs the manifest in the store. Cells the store already holds and
// verifies are not computed again; every cell this run completes is
// stored the moment it completes. It returns the run's part of the
// ledger record: the stored manifest path and its point count, the
// trials this run executed as Jobs (a run is not credited with the
// cells it reused), and the run's group spans. Progress snapshots
// publish on the campaign's hub. Cancellation (drain) surfaces as
// context.Canceled; the cells completed by then are stored, so the next
// submission of the same spec computes only the rest.
func (d *Daemon) execute(c *Campaign) (telemetry.Record, error) {
	run, err := dispatch.PlanLocal(c.jobs, c.Name, d.store.cells)
	if err != nil {
		return telemetry.Record{}, err
	}
	if run.Reused > 0 {
		d.log.Info("reusing stored cells", "cells", run.Reused, "of", run.Cells)
	}
	run.OnProgress = c.hub.Publish
	m, ran, err := run.Run(d.ctx, func(_ sim.TrialJob, ran int) error {
		if testTrialHook != nil {
			testTrialHook(c, ran)
		}
		return nil
	})
	rec := telemetry.Record{Jobs: ran, GroupSeconds: run.GroupSeconds}
	if err != nil {
		return rec, err
	}
	if rec.Manifest, err = d.store.Install(c.SpecHash, m); err != nil {
		return rec, err
	}
	rec.Points = len(m.Points)
	return rec, nil
}

// testTrialHook, when non-nil, observes every completed trial of a
// campaign after its cell, if it completed one, is stored. Tests block
// in it to hold a campaign mid-run deterministically — trials are far
// too fast for wall-clock racing.
var testTrialHook func(c *Campaign, ran int)

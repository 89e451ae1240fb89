package sweepd

import (
	"time"

	"wsncover/internal/dispatch"
	"wsncover/internal/experiment"
	"wsncover/internal/sim"
	"wsncover/internal/telemetry"
)

// execute runs one campaign on the embedded engine — no subprocess, the
// daemon is the worker — through the same dispatch.LocalRun as
// cmd/sweep, over the store's cells, so the stored manifest is
// byte-identical to what the CLI writes for the same submission, and
// installs the manifest in the store. Cells the store already holds and
// verifies are not computed again; every cell this run completes is
// stored the moment it completes. It returns the run's ledger record,
// built by dispatch.RunRecord over a span that covers the plan, the
// run and the install, with the stored manifest's path, and how the run
// ended. Progress snapshots publish on the campaign's hub. Cancellation
// (drain) surfaces as context.Canceled; the cells completed by then
// are stored, so the next submission of the same spec computes only
// the rest.
func (d *Daemon) execute(c *Campaign) (telemetry.Record, error) {
	start := time.Now()
	var (
		m      *experiment.Manifest
		ran    int
		groupS map[string]float64
		path   string
	)
	run, err := dispatch.PlanLocal(c.jobs, c.Name, d.store.cells)
	if err == nil {
		if run.Reused > 0 {
			d.log.Info("reusing stored cells", "cells", run.Reused, "of", run.Cells)
		}
		run.OnProgress = c.hub.Publish
		m, ran, err = run.Run(d.ctx, func(_ sim.TrialJob, ran int) error {
			if testTrialHook != nil {
				testTrialHook(c, ran)
			}
			return nil
		})
		groupS = run.GroupSeconds
	}
	if err == nil {
		path, err = d.store.Install(c.SpecHash, m)
	}
	// Submit hashed this spec, so the record's hash cannot fail.
	rec, _ := dispatch.RunRecord(c.jobs, m, ran, time.Since(start), groupS, err)
	rec.Manifest = path
	return rec, err
}

// testTrialHook, when non-nil, observes every completed trial of a
// campaign after its cell, if it completed one, is stored. Tests block
// in it to hold a campaign mid-run deterministically — trials are far
// too fast for wall-clock racing.
var testTrialHook func(c *Campaign, ran int)

package sweepd

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"

	"wsncover/internal/dispatch"
	"wsncover/internal/experiment"
	"wsncover/internal/sim"
	"wsncover/internal/telemetry"
)

// execute runs one campaign on the embedded engine — no subprocess, the
// daemon is the worker — through the same dispatch.LocalRun as
// cmd/sweep, so the stored manifest is byte-identical to what the CLI
// writes for the same submission, and installs the manifest in the
// store. Cells the cell store already holds and verifies are not
// computed again: with the cells of an interrupted run's checkpoint
// they are the run's prior, which LocalRun skips and carries. It
// returns the stored manifest path, the manifest's point count, and
// how many trials this run executed (for the ledger; a run is not
// credited with the cells it reused or resumed). Progress snapshots
// publish on the campaign's hub. Cancellation (drain) surfaces as
// context.Canceled; the checkpoint log left in the campaign's run
// directory seeds the next submission of the same spec. The manifest
// goes from memory into the store in one atomic write, the cells this
// run added to the cell store in one append; the run directory is then
// spent and removed.
func (d *Daemon) execute(c *Campaign) (path string, points, ran int, err error) {
	runDir, err := d.store.RunDir(c.SpecHash)
	if err != nil {
		return "", 0, 0, err
	}
	cells, err := campaignCells(c.Spec)
	if err != nil {
		return "", 0, 0, err
	}
	reusable, fresh := d.store.storedCells(cells)
	ckPath := filepath.Join(runDir, "checkpoint.ndjson")
	prior, reused := withStoredCells(d.loadCheckpoint(ckPath, c.SpecHash), reusable)
	run := dispatch.PlanLocal(c.Spec, c.Name, prior, ckPath)
	if reused > 0 {
		d.log.Info("reusing stored cells", "cells", reused, "of", len(cells))
	}
	if resumed := run.Resumed - reused; resumed > 0 {
		d.log.Info("resuming from checkpoint", "path", ckPath, "cells", resumed)
	}
	pub := telemetry.NewPublisher(c.hub)
	run.OnProgress = func(s dispatch.FleetSnapshot) { dispatch.PublishFleet(pub, s) }
	m, ran, err := run.Run(d.ctx, func(_ sim.TrialJob, ran int) error {
		if testTrialHook != nil {
			testTrialHook(c, ran)
		}
		return nil
	})
	if err != nil {
		return "", 0, ran, err
	}
	stored, err := d.store.Install(c.SpecHash, m, fresh)
	if err != nil {
		return "", 0, ran, err
	}
	if err := os.RemoveAll(runDir); err != nil {
		// The manifest is safe in the store; a leftover directory only
		// costs disk, and the next run of the spec reuses it.
		d.log.Warn("removing spent run directory", "dir", runDir, "err", err)
	}
	return stored, len(m.Points), ran, nil
}

// withStoredCells adds to the checkpoint's prior manifest (nil when
// there is none) the stored cell points it does not already hold, and
// returns the prior and how many stored cells it took.
func withStoredCells(ck *experiment.Manifest, stored []experiment.Point) (*experiment.Manifest, int) {
	if len(stored) == 0 {
		return ck, 0
	}
	if ck == nil {
		return &experiment.Manifest{Points: stored}, len(stored)
	}
	have := make(map[cellID]bool, len(ck.Points))
	for _, p := range ck.Points {
		have[cellID{p.Group, p.X}] = true
	}
	prior := &experiment.Manifest{Points: ck.Points}
	for _, p := range stored {
		if !have[cellID{p.Group, p.X}] {
			prior.Points = append(prior.Points, p)
		}
	}
	return prior, len(prior.Points) - len(ck.Points)
}

// testTrialHook, when non-nil, observes every completed trial of a
// campaign after its checkpoint lands. Tests block in it to hold a
// campaign mid-run deterministically — trials are far too fast for
// wall-clock racing.
var testTrialHook func(c *Campaign, ran int)

// loadCheckpoint reads this campaign's prior checkpoint log as the
// manifest of its completed cells, verified like a store hit: the
// header's spec must re-hash to the campaign's key. A missing,
// unreadable, or foreign log yields nil rather than a merge; a torn
// tail only drops the cells it held.
func (d *Daemon) loadCheckpoint(path, wantHash string) *experiment.Manifest {
	prior, err := experiment.ReadCellLog(path)
	if err == nil {
		err = checkSpecHash(prior, path, wantHash)
	}
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			d.log.Warn("ignoring checkpoint", "err", err)
		}
		return nil
	}
	return prior
}

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
// store. It returns the stored manifest path, the manifest's point
// count, and how many trials this run executed (for the ledger; a
// resumed run is not credited with cells its checkpoint already
// carried). Progress snapshots publish on the campaign's hub.
// Cancellation (drain) surfaces as context.Canceled; the checkpoint log
// left in the campaign's run directory seeds the next submission of the
// same spec. The manifest goes from memory into the store in one atomic
// write; the run directory is then spent and removed.
func (d *Daemon) execute(c *Campaign) (path string, points, ran int, err error) {
	runDir, err := d.store.RunDir(c.SpecHash)
	if err != nil {
		return "", 0, 0, err
	}
	ckPath := filepath.Join(runDir, "checkpoint.ndjson")
	run := dispatch.PlanLocal(c.Spec, c.Name, d.loadCheckpoint(ckPath, c.SpecHash), ckPath)
	if run.Resumed > 0 {
		d.log.Info("resuming from checkpoint", "path", ckPath, "cells", run.Resumed)
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
	stored, err := d.store.Install(c.SpecHash, m)
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

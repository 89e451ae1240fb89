// Package dispatch runs campaigns in this process and assembles their
// results.
//
// LocalRun is the one runner behind every run that computes trials:
// cmd/sweep's plain, -shard, -resume and -checkpoint runs, and sweepd's
// campaigns. It owns checkpoint, resume and point merging.
// LocalProgress folds its ordered trial stream into FleetSnapshot
// values, the one progress shape the meter (FleetMeter), the dashboard
// (PublishFleet) and the ledger's group spans read.
//
// MergeShardManifests unions the manifests of -shard runs into the
// campaign manifest, byte-identical to the in-process run's, and
// DiffManifests compares two manifests. Together with -checkpoint and
// -resume they are how one campaign spans many boxes: any launcher
// (xargs -P, an ssh loop, a batch array job) starts "-shard i/n
// -checkpoint" on each box, a box that died is rerun with -resume, and
// one -merge assembles the result.
package dispatch

import "wsncover/internal/experiment"

// GroupProgress counts one campaign group's completed trials against
// the group's total in the run.
type GroupProgress struct {
	Group string
	Done  int
	Total int
}

// FleetSnapshot is one observation of an in-process run, delivered to
// LocalRun.OnProgress.
type FleetSnapshot struct {
	// Fleet is the run's progress: done/total, plus the group of the
	// latest trial and that group's done count.
	Fleet experiment.Progress
	// Groups breaks the progress down by campaign group, in job order.
	Groups []GroupProgress
	// final marks the run's last snapshot.
	final bool
}

// Terminal reports whether this is the run's last snapshot.
func (s FleetSnapshot) Terminal() bool { return s.final }

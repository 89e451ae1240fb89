// Package dispatch runs campaigns in this process and keeps their
// cells.
//
// LocalRun is the one runner behind every run that computes trials:
// cmd/sweep's plain and -shard runs, and sweepd's campaigns. CellStore
// is the one place a computed cell is kept: a run looks up every cell
// of its spec before it starts and appends each cell as it completes.
// Resume, the cache and shard assembly are all that lookup. A killed
// run is resumed by running it again over the same store. One campaign
// spans many boxes when any launcher (xargs -P, an ssh loop, a batch
// array job) starts "-shard i/n -store S" on each box, and one
// unsharded run over S, or over the segments copied into it, computes
// nothing and writes the manifest.
//
// LocalProgress folds a run's ordered trial stream into FleetSnapshot
// values, the one progress shape the meter (FleetMeter), the dashboard
// (PublishFleet) and the ledger's group spans read. DiffManifests
// compares two manifests.
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

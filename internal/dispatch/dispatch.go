// Package dispatch runs campaigns in this process and keeps their
// cells.
//
// LocalRun is the one runner behind every run that computes trials:
// cmd/sweep's plain and -shard runs, and sweepd's campaigns. Each plans
// from the campaign's sim.JobSpace, which its caller validated once.
// CellStore is the one place a computed cell is kept: a run visits every
// cell of its job space once, looks it up before it starts, hands the
// missing cells' indices to JobSpace.RunCells, and appends each cell as
// it completes.
// Resume, the cache and shard assembly are all that lookup. A killed
// run is resumed by running it again over the same store. One campaign
// spans many boxes when any launcher (xargs -P, an ssh loop, a batch
// array job) starts "-shard i/n -store S" on each box, and one
// unsharded run over S, or over the segments copied into it, computes
// nothing and writes the manifest.
//
// LocalProgress folds a run's ordered trial stream into
// telemetry.Snapshot values, stamped once with elapsed time, rate and
// ETA, and times each group from its first trial to its last. The
// meter (Meter) renders those snapshots, a dashboard hub publishes them
// as they are, and LocalRun hands the group spans to the ledger.
// RunRecord is the one builder of a run's ledger record: cmd/sweep and
// sweepd both call it and add only their own name, mode and manifest.
// DiffManifests compares two manifests.
package dispatch

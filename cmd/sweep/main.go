// Command sweep runs a multi-dimensional Monte-Carlo campaign on the
// parallel experiment engine: the cross product of control schemes, grid
// sizes, spare counts, hole counts, workloads, and runners, replicated
// and aggregated into mean/CI95 summaries. It writes a JSON manifest
// plus one CSV/gnuplot table per exported metric.
//
// Usage:
//
//	sweep [-schemes SR,AR] [-grids 16x16] [-spares 10,55,200]
//	      [-holes 1] [-workloads holes,jam,churn]
//	      [-runners sync,async] [-replicates 20] [-seed s]
//	      [-workers w] [-metrics moves,success_rate|all] [-out dir]
//	      [-name sweep] [-shard i/n] [-store dir]
//	      [-ascii] [-quiet]
//	      [-dash addr [-pprof] [-dash-linger d]] [-ledger path|none]
//	sweep -spec campaign.json [-out dir] [-name sweep] ...
//
// A spec file is the JSON form of sim.CampaignSpec and replaces the
// dimension flags; workload parameters ({"kind": "churn", "every": 5})
// are available only there — the -workloads flag names bare kinds
// (default holes, the paper's random vacant cells). Spec files and
// manifests that list damage the older way, "failures": ["holes",
// "jam"], still decode, as the equivalent workloads.
// Results are bit-identical for any -workers value.
//
// -store names a cell store directory (dispatch.CellStore: the cells/
// half of a sweepd store, so the two can share one directory). A cell
// is one (group, N) pair with all its replicates; it depends only on
// its own dimension values, the seed and the replicate count, and the
// store keys it by exactly those. The run looks up every cell of its
// spec before it starts and computes only the cells the store lacks;
// each cell it computes is appended to the run's own segment,
// <dir>/cells/<writer>.ndjson, the moment the cell completes (one
// O_APPEND write, no fsync: it survives a killed process, not a power
// cut). So a killed run is resumed by running the same command again,
// a campaign grows in stages (rerun with added spare counts, schemes,
// grids or workloads, and only the new cells compute), and a run whose
// cells are all stored computes nothing. Every run still ends the same
// way: manifest, metric tables, summary and one ledger record. A changed
// seed, replicate count or trial parameter addresses other cells, so
// such a rerun computes every cell.
//
// -shard i/n runs only the i-th of n contiguous blocks of the
// campaign's cells (1-based). Every shard computes its cells byte for
// byte as the unsharded campaign would, so one campaign splits across
// boxes under any launcher (xargs -P, an ssh loop, a batch array job):
// every box runs the spec with its own "-shard i/n -store S", a box
// that died reruns its command, and one unsharded "-store S" run
// computes nothing and writes the campaign's manifest, byte-identical
// to an unsharded run's. Boxes without a shared filesystem copy their
// segments into one S/cells/ first.
//
// Progress shows as one self-overwriting line on stderr; -quiet turns
// it off. The meter and the dashboard draw from one stream of
// telemetry.Snapshot values, stamped and throttled once at their source
// (dispatch.LocalProgress): the first snapshot is done 0 of the total,
// and every group's first and last trial and the run's last trial
// always produce one. The ledger's group spans come from the same fold.
//
// Observability: -dash addr serves the live telemetry dashboard
// (internal/telemetry) while the campaign runs — an HTML page at /, the
// snapshot stream at /events (SSE, or NDJSON with ?format=ndjson),
// liveness at /healthz, and net/http/pprof under -pprof. -dash-linger
// keeps it serving after completion so a human can see the final state.
// Every run appends one record to the run ledger when it ends —
// completed, failed, or aborted, the status says which
// (<out>/ledger.ndjson, or -ledger path; -ledger none disables), the
// NDJSON history cmd/runlog queries. Structured logs go to stderr via
// log/slog; WSNSWEEP_LOG sets the level and WSNSWEEP_LOG_FORMAT=json
// makes them machine-parseable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wsncover/internal/dispatch"
	"wsncover/internal/experiment"
	"wsncover/internal/sim"
	"wsncover/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// dashNotify is a test hook: when set, it runs with the dashboard's
// bound address (and its hub) after the server starts and before the
// campaign does, so a test can subscribe ahead of the first event.
var dashNotify func(addr string, hub *telemetry.Hub)

// dashAddrFileEnv, when set, names a file the bound dashboard address is
// written to — the hook CI's smoke test uses to find a ":0" port.
const dashAddrFileEnv = "WSNSWEEP_DASH_ADDR_FILE"

// dashRig bundles the live-dashboard pieces -dash turns on: the hub the
// campaign publishes into and the HTTP server over it.
type dashRig struct {
	hub    *telemetry.Hub
	server *telemetry.Server
	addr   string
	linger time.Duration
}

func startDash(addr string, pprof bool, linger time.Duration, logger *slog.Logger) (*dashRig, error) {
	hub := telemetry.NewHub()
	srv := telemetry.NewServer(hub)
	srv.Pprof = pprof
	bound, err := srv.Start(addr)
	if err != nil {
		return nil, err
	}
	logger.Info("dashboard serving", "addr", bound, "url", "http://"+bound+"/", "pprof", pprof)
	if path := os.Getenv(dashAddrFileEnv); path != "" {
		if err := os.WriteFile(path, []byte(bound), 0o644); err != nil {
			srv.Close()
			return nil, err
		}
	}
	if dashNotify != nil {
		dashNotify(bound, hub)
	}
	return &dashRig{hub: hub, server: srv, addr: bound, linger: linger}, nil
}

// finish shuts the dashboard down; after a successful campaign it first
// lingers (-dash-linger) so a human — or a smoke test — can still read
// the final state. Nil-safe, so call sites need no -dash conditionals.
func (d *dashRig) finish(runErr error) {
	if d == nil {
		return
	}
	if runErr == nil && d.linger > 0 {
		time.Sleep(d.linger)
	}
	d.server.Close()
}

// resolveLedger turns the -ledger flag into a path: the default is
// <out>/ledger.ndjson, "none" disables (empty return).
func resolveLedger(flagVal, outDir string) string {
	switch flagVal {
	case "none":
		return ""
	case "":
		return filepath.Join(outDir, "ledger.ndjson")
	}
	return flagVal
}

// output is where a campaign's results go.
type output struct {
	dir, name, metrics string
	ascii              bool
	ledger             string // run-ledger path; empty disables
	logger             *slog.Logger
}

// finish ends every campaign run. A failed or drained run only records
// itself in the ledger, with the status saying how it ended, so
// cmd/runlog surfaces unhealthy history. A completed run saves its
// artifacts and then records itself; when an artifact write fails, the
// run has failed: its record says so, with the trials it executed, and
// finish returns the write's error. m, ran and groupS are what the run
// returned and set, and wall spans the run without the artifact writes:
// dispatch.RunRecord builds the record from them, and finish stamps
// this process's name, mode, manifest path and CPU time on it. A
// ledger failure is logged but never fails a campaign.
func (o *output) finish(mode string, js sim.JobSpace, m *experiment.Manifest, ran int, wall time.Duration, groupS map[string]float64, runErr error) error {
	path := ""
	if runErr == nil {
		path, runErr = o.save(js, m)
	}
	if o.ledger == "" {
		return runErr
	}
	rec, err := dispatch.RunRecord(js, m, ran, wall, groupS, runErr)
	if err != nil {
		o.logger.Error("ledger: hashing spec", "err", err)
		return runErr
	}
	rec.Name, rec.Mode, rec.Manifest, rec.CPUS = o.name, mode, path, telemetry.CPUSeconds()
	if err := telemetry.AppendRecord(o.ledger, rec); err != nil {
		o.logger.Error("ledger append failed", "path", o.ledger, "err", err)
		return runErr
	}
	o.logger.Debug("ledger appended", "path", o.ledger, "mode", mode, "spec_hash", rec.SpecHash)
	return runErr
}

// save writes a completed run's artifacts: the manifest, whose path it
// returns once written, then the metric tables and the summary.
func (o *output) save(js sim.JobSpace, m *experiment.Manifest) (string, error) {
	path, err := m.Save(o.dir)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(os.Stdout, "wrote %s (%d jobs, %d points)\n", path, m.Jobs, len(m.Points))
	if err := writeTables(os.Stdout, m.Points, o.metrics, o.dir, o.name, js.Spec().Replicates, o.ascii); err != nil {
		return path, err
	}
	printSummary(os.Stdout, m.Points)
	return path, nil
}

// writeTables exports one CSV/gnuplot table per requested metric,
// logging to w.
func writeTables(w io.Writer, points []experiment.Point, metricsS, outDir, name string, replicates int, ascii bool) error {
	metrics := splitList(metricsS)
	if len(metrics) == 1 && metrics[0] == "all" {
		metrics = experiment.MetricNames(points)
	}
	sort.Strings(metrics)
	for _, metric := range metrics {
		tb, err := experiment.Table(points, metric,
			fmt.Sprintf("%s: mean %s per trial (%d replicates/cell)", name, metric, replicates),
			"N", metric)
		if err != nil {
			return err
		}
		paths, err := tb.SaveAll(outDir, name+"-"+metric)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", strings.Join(paths, ", "))
		if ascii {
			fmt.Fprintln(w, tb.ASCII(72, 16))
		}
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// parseList parses each entry of a comma-separated flag value.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, f := range splitList(s) {
		v, err := parse(f)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// atoi is strconv.Atoi with an error naming the entry.
func atoi(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", s)
	}
	return n, nil
}

// parseWorkload resolves a bare workload kind, which must exist.
func parseWorkload(s string) (sim.WorkloadSpec, error) {
	spec := sim.WorkloadSpec{Kind: strings.ToLower(s)}
	_, err := sim.BuildWorkload(spec)
	return spec, err
}

// parseShard resolves "-shard i/n" (1-based) into the contiguous cell
// block [first, first+count) of shard i; the even-split math is
// sim.ShardRange.
func parseShard(s string, cells int) (first, count int, err error) {
	is, ns, ok := strings.Cut(strings.TrimSpace(s), "/")
	i, errI := strconv.Atoi(is)
	n, errN := strconv.Atoi(ns)
	if !ok || errI != nil || errN != nil {
		return 0, 0, fmt.Errorf("bad shard %q (want i/n, e.g. 2/4)", s)
	}
	return sim.ShardRange(i, n, cells)
}

func loadSpec(path string) (sim.CampaignSpec, error) {
	var spec sim.CampaignSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := sim.UnmarshalSpecJSON(data, &spec); err != nil {
		return spec, fmt.Errorf("spec %s: %w", path, err)
	}
	return spec, nil
}

// signalContext cancels the returned context on the first SIGINT or
// SIGTERM, so campaigns drain gracefully — a -store keeps every
// completed cell, the ledger records the abort — and exits
// immediately on the second signal for the human leaning on Ctrl-C.
func signalContext(logger *slog.Logger) (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig, ok := <-ch
		if !ok {
			return
		}
		logger.Warn("signal received: draining (completed cells are already stored, ledger records the abort); second signal exits immediately",
			"signal", sig.String())
		cancel()
		if sig, ok := <-ch; ok {
			logger.Error("second signal: exiting immediately", "signal", sig.String())
			os.Exit(130)
		}
	}()
	return ctx, func() {
		signal.Stop(ch)
		close(ch)
		cancel()
	}
}

// printSummary renders the per-point digest shown after every
// successful campaign.
func printSummary(w io.Writer, points []experiment.Point) {
	for _, p := range points {
		fmt.Fprintf(w, "%-24s N=%-5g moves=%6.1f±%-5.1f dist=%7.1f success=%5.1f%% recovered=%5.1f%%\n",
			p.Group, p.X,
			p.Metrics["moves"].Mean, p.Metrics["moves"].CI95,
			p.Metrics["distance"].Mean,
			p.Metrics["success_rate"].Mean,
			100*p.Metrics["recovered"].Mean)
	}
}

func run(args []string) (err error) {
	var dash *dashRig
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		specPath   = fs.String("spec", "", "JSON campaign spec file (replaces the dimension flags)")
		schemesS   = fs.String("schemes", "SR,AR", "comma-separated schemes: SR, SR+shortcut, AR")
		gridsS     = fs.String("grids", "16x16", "comma-separated grid sizes, CxR")
		sparesS    = fs.String("spares", "", "comma-separated spare counts N (default: the paper's x axis)")
		holesS     = fs.String("holes", "1", "comma-separated simultaneous hole counts")
		workloadsS = fs.String("workloads", "", "comma-separated workload kinds (default holes): "+strings.Join(sim.WorkloadKinds(), ", ")+" (parameters via -spec)")
		listWk     = fs.Bool("list-workloads", false, "print the workload kinds with parameters and exit")
		ttlsS      = fs.String("ttls", "", "comma-separated claim TTLs in rounds (adds a campaign dimension; SR-family sync runs only, 0 = claims never expire)")
		runnersS   = fs.String("runners", "", "comma-separated trial runners: sync, async (default sync)")
		shardS     = fs.String("shard", "", "cell shard i/n: run only the i-th of n contiguous blocks of campaign cells")
		storeS     = fs.String("store", "", "cell store directory: compute only the cells it lacks and store each cell as it completes")
		replicates = fs.Int("replicates", 20, "trials per campaign cell")
		seed       = fs.Int64("seed", 1, "base random seed")
		workers    = fs.Int("workers", 0, "parallel trial workers (0 = all cores)")
		jamRadius  = fs.Float64("jam-radius", 0, "jammed disc radius in meters (0 = 1.5 cells)")
		adjacent   = fs.Bool("adjacent", false, "allow adjacent hole cells")
		metricsS   = fs.String("metrics", "moves,distance,success_rate,recovered", "metrics to export as tables, or \"all\"")
		outDir     = fs.String("out", "out", "output directory for artifacts")
		name       = fs.String("name", "sweep", "campaign name (artifact base name)")
		ascii      = fs.Bool("ascii", false, "print ASCII previews of exported tables")
		quiet      = fs.Bool("quiet", false, "suppress the progress meter")
		dashS      = fs.String("dash", "", "serve the live telemetry dashboard at this address (host:port; port 0 picks a free one)")
		dashLinger = fs.Duration("dash-linger", 0, "keep the dashboard serving this long after a successful campaign")
		pprofF     = fs.Bool("pprof", false, "expose net/http/pprof on the dashboard server (requires -dash)")
		ledgerS    = fs.String("ledger", "", "run-ledger NDJSON path (default <out>/ledger.ndjson; \"none\" disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	if *listWk {
		for _, info := range sim.WorkloadInfos() {
			fmt.Fprintf(os.Stdout, "%-10s %s\n", info.Kind, info.Help)
			if len(info.Params) > 0 {
				fmt.Fprintf(os.Stdout, "%-10s params: %s\n", "", strings.Join(info.Params, ", "))
			}
		}
		return nil
	}

	logger := telemetry.NewLogger(os.Stderr)

	if *pprofF && *dashS == "" {
		return fmt.Errorf("-pprof rides the dashboard server; it requires -dash")
	}
	out := &output{
		dir: *outDir, name: *name, metrics: *metricsS, ascii: *ascii,
		ledger: resolveLedger(*ledgerS, *outDir),
		logger: logger,
	}

	var spec sim.CampaignSpec
	if *specPath != "" {
		loaded, err := loadSpec(*specPath)
		if err != nil {
			return err
		}
		spec = loaded
	} else {
		var errs [7]error
		spec.Schemes, errs[0] = parseList(*schemesS, sim.ParseSchemeKind)
		spec.Grids, errs[1] = parseList(*gridsS, sim.ParseGridSize)
		spec.Spares, errs[2] = parseList(*sparesS, atoi)
		spec.Holes, errs[3] = parseList(*holesS, atoi)
		spec.ClaimTTLs, errs[4] = parseList(*ttlsS, atoi)
		spec.Workloads, errs[5] = parseList(*workloadsS, parseWorkload)
		spec.Runners, errs[6] = parseList(*runnersS, sim.ParseRunnerKind)
		if err := errors.Join(errs[:]...); err != nil {
			return err
		}
		spec.Replicates = *replicates
		spec.BaseSeed = *seed
		spec.JamRadius = *jamRadius
		spec.AdjacentHolesOK = *adjacent
	}
	// Workers only changes wall clock, never results: an explicit flag
	// beats a value pinned in the spec file.
	workersFlagSet := false
	fs.Visit(func(f *flag.Flag) { workersFlagSet = workersFlagSet || f.Name == "workers" })
	if workersFlagSet || spec.Workers == 0 {
		spec.Workers = *workers
	}
	if *shardS != "" {
		if spec.CellCount > 0 {
			return fmt.Errorf("the spec file already pins a cell range; drop -shard or the spec fields")
		}
		first, count, err := parseShard(*shardS, spec.NumCells())
		if err != nil {
			return err
		}
		spec.CellFirst, spec.CellCount = first, count
	}
	// The one validation of the run: the job space carries the campaign
	// from here to its last trial.
	jobs, err := spec.JobSpace()
	if err != nil {
		return err
	}
	spec = jobs.Spec()

	if *dashS != "" {
		rig, derr := startDash(*dashS, *pprofF, *dashLinger, logger)
		if derr != nil {
			return derr
		}
		// The dashboard outlives the campaign by -dash-linger on success
		// and shuts down immediately on failure, whichever path returns.
		defer func() { rig.finish(err) }()
		dash = rig
	}
	var store *dispatch.CellStore
	if *storeS != "" {
		store = dispatch.OpenCellStore(*storeS)
	}
	// Progress counts only the trials that will actually run (after the
	// shard range and the stored cells): under -shard the total is the
	// shard's own trial count, never the full campaign's.
	local, err := dispatch.PlanLocal(jobs, *name, store)
	if err != nil {
		return err
	}
	var meter *dispatch.Meter
	if !*quiet {
		meter = dispatch.NewMeter(os.Stderr)
	}
	local.OnProgress = func(s telemetry.Snapshot) {
		if meter != nil {
			meter.Update(s)
		}
		if dash != nil {
			dash.hub.Publish(s)
		}
	}
	if local.Reused > 0 {
		logger.Info("reusing stored cells", "cells", local.Reused, "of", local.Cells, "store", *storeS)
	}
	// Test-only crash hook: WSNSWEEP_EXIT_AFTER=k kills the process
	// with exit code 7 after k completed trials (a cell they complete is
	// stored first), simulating a box dying mid-run for the
	// kill-and-rerun tests.
	exitAfter := 0
	if s := os.Getenv("WSNSWEEP_EXIT_AFTER"); s != "" {
		exitAfter, _ = strconv.Atoi(s)
	}
	ctx, stop := signalContext(logger)
	defer stop()
	start := time.Now()
	manifest, ran, err := local.Run(ctx, func(_ sim.TrialJob, ran int) error {
		if exitAfter > 0 && ran == exitAfter {
			os.Exit(7)
		}
		return nil
	})
	mode := "run"
	if spec.CellCount > 0 {
		mode = "shard"
	}
	return out.finish(mode, jobs, manifest, ran, time.Since(start), local.GroupSeconds, err)
}

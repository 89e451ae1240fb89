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
//	      [-name sweep] [-resume] [-shard i/n] [-checkpoint]
//	      [-progress meter|none] [-ascii] [-quiet]
//	      [-dash addr [-pprof] [-dash-linger d]] [-ledger path|none]
//	      [-if-cached store-dir]
//	sweep -spec campaign.json [-out dir] [-name sweep] ...
//	sweep -merge shard1.json shard2.json ... [-out dir] [-name merged]
//	      [-metrics ...] [-ascii] [-ledger path|none] [-if-cached store-dir]
//
// A spec file is the JSON form of sim.CampaignSpec and replaces the
// dimension flags; workload parameters ({"kind": "churn", "every": 5})
// are available only there — the -workloads flag names bare kinds
// (default holes, the paper's random vacant cells). Spec files and
// manifests that list damage the older way, "failures": ["holes",
// "jam"], still decode, as the equivalent workloads.
// Results are bit-identical for any -workers value.
//
// -resume merges into an existing manifest and into the cell log a
// -checkpoint run left beside it: every (group, N) cell either holds is
// skipped, freshly run cells are added, and the merged manifest plus
// its metric tables are rewritten. Manifests are written on successful
// completion, so -resume grows a campaign in stages: run a narrow spec
// first, then rerun with added spare counts, schemes, grids, or
// workloads and only the new cells compute. The seed, replicate count,
// and pass-through trial parameters must match the prior manifest's and
// the log's; cells of dimension values the current spec no longer lists
// are dropped from the merged output.
//
// -shard i/n runs only the i-th of n contiguous blocks of the
// campaign's cells (1-based; a cell is one (group, N) pair with all its
// replicates), so one campaign splits across boxes: each box runs the
// same spec with its own -shard and -name. A cell's trials depend only
// on its own dimension values, the seed and the replicate count, so
// every shard computes its cells byte for byte as the unsharded
// campaign would. -merge unions the resulting shard manifests into one
// campaign manifest plus metric tables, byte-identical to the unsharded
// run's: it recomputes no statistic, and it fails if the inputs are not
// one campaign, if a file is given twice, or if any cell is missing or
// held by two files. A merge ends like every run: it writes the metric
// tables, prints the summary, appends a ledger record (mode "merge"),
// and under -if-cached installs the manifest in the store.
//
// That is the whole multi-box story, under any launcher (xargs -P, an
// ssh loop, a batch array job): every box runs the spec with its own
// "-shard i/n -checkpoint -name s<i>", a box that died reruns its
// command with -resume added (its checkpointed cells are kept), and one
// -merge assembles the campaign.
//
// -if-cached names a sweepd manifest store (internal/sweepd): when the
// store already holds a manifest for this spec's hash — execution-only
// fields like -workers never affect the hash — the run is skipped and
// the cached manifest's path prints on stdout; otherwise the campaign
// runs and its manifest is installed, so scripts and CI get exactly the
// dedupe the daemon performs. It takes in-process runs and -merge
// alike, since a merged manifest equals the in-process one byte for
// byte, but not -shard: a shard is not the whole campaign. It works on
// whole manifests only: the daemon's per-cell store is neither read nor
// written.
//
// -progress selects the progress display: "meter" is the human line on
// stderr and "none" is silent. The meter, the dashboard and the
// ledger's group spans all draw from one stream of
// dispatch.FleetSnapshot values, throttled once at its source
// (dispatch.LocalProgress): the first snapshot is done 0 of the total,
// and every group's first and last trial and the run's last trial
// always produce one.
//
// -checkpoint appends one line to <out>/<name>.cells.ndjson every time
// a campaign cell completes (experiment.CellLog: a single O_APPEND
// write, no fsync, so it survives a killed process but not a power
// cut), and a later -resume picks those cells up; a torn last line only
// means its cell reruns. The log is removed once the manifest lands.
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
	"encoding/json"
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
	"wsncover/internal/sweepd"
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
// campaign publishes into, the HTTP server over it, and the publisher
// that stamps snapshots with elapsed/rate/ETA.
type dashRig struct {
	hub    *telemetry.Hub
	server *telemetry.Server
	pub    *telemetry.Publisher
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
	return &dashRig{hub: hub, server: srv, pub: telemetry.NewPublisher(hub), addr: bound, linger: linger}, nil
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

// fleetStats rides the progress stream and captures what the ledger
// records about a run: each group's active wall span, from the first
// snapshot where the group shows progress to the last where its count
// advanced. A run snapshots every group's first and last trial, so the
// spans are exact.
type fleetStats struct {
	prevDone  map[string]int
	groupSpan *telemetry.GroupTimer
}

func newFleetStats() *fleetStats {
	return &fleetStats{prevDone: make(map[string]int), groupSpan: telemetry.NewGroupTimer()}
}

func (f *fleetStats) update(s dispatch.FleetSnapshot) {
	for _, g := range s.Groups {
		if g.Done > f.prevDone[g.Group] {
			f.prevDone[g.Group] = g.Done
			f.groupSpan.Observe(g.Group)
		}
	}
}

// progressSinks builds the one observer a run hands its snapshots to:
// the -progress display, the dashboard, and the ledger's stats.
func progressSinks(mode string, rig *dashRig, stats *fleetStats) func(dispatch.FleetSnapshot) {
	sinks := []func(dispatch.FleetSnapshot){stats.update}
	if mode == "meter" {
		sinks = append(sinks, dispatch.NewFleetMeter(os.Stderr).Update)
	}
	if rig != nil {
		sinks = append(sinks, func(s dispatch.FleetSnapshot) { dispatch.PublishFleet(rig.pub, s) })
	}
	return func(s dispatch.FleetSnapshot) {
		for _, sink := range sinks {
			sink(s)
		}
	}
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

// output is where a campaign's results go, whichever mode computed
// them.
type output struct {
	dir, name, metrics string
	ascii              bool
	ledger             string // run-ledger path; empty disables
	store              *sweepd.Store
	hash               string // the spec's hash in store (nil store: unused)
	logger             *slog.Logger
}

// useCache resolves -if-cached for the unsharded spec: on a store hit
// it prints the stored manifest's path on stdout, for scripts to
// capture, and reports true; on a miss it arms finish to install the
// finished manifest, so the next caller hits. The worker count doesn't
// participate in the hash, so any completed run of the same science is
// a hit.
func (o *output) useCache(dir string, spec sim.CampaignSpec) (bool, error) {
	if err := spec.ValidateUnsharded(); err != nil {
		return false, fmt.Errorf("-if-cached: %w", err)
	}
	store, err := sweepd.OpenStore(dir)
	if err != nil {
		return false, err
	}
	hash, err := telemetry.SpecHash(spec)
	if err != nil {
		return false, err
	}
	if path, ok := store.Get(hash); ok {
		o.logger.Info("spec already in store; skipping the run", "hash", hash, "manifest", path)
		fmt.Fprintln(os.Stdout, path)
		return true, nil
	}
	o.store, o.hash = store, hash
	return false, nil
}

// finish ends every campaign run, -merge included. A failed or drained
// run only records itself in the ledger, with the status saying how it
// ended, so cmd/runlog surfaces unhealthy history. A completed run
// saves the manifest, removes the spent cell log, installs the manifest
// in the -if-cached store, writes the metric tables, prints the
// summary, and then records itself. ran counts the trials this process
// executed: the rate is never credited with resumed or merged cells.
func (o *output) finish(mode string, spec sim.CampaignSpec, m *experiment.Manifest, ran int, wall time.Duration, stats *fleetStats, runErr error) error {
	rec := telemetry.Record{
		Name:      o.name,
		Mode:      mode,
		Status:    telemetry.StatusCompleted,
		Jobs:      ran,
		Workers:   spec.Workers,
		CellFirst: spec.CellFirst,
		CellCount: spec.CellCount,
		WallS:     wall.Seconds(),
	}
	if wall > 0 {
		rec.TrialsPerS = float64(ran) / wall.Seconds()
	}
	if runErr != nil {
		rec.Status = runStatus(runErr)
		o.record(rec, spec)
		return runErr
	}
	path, err := m.Save(o.dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stdout, "wrote %s (%d jobs, %d points)\n", path, m.Jobs, len(m.Points))
	// The manifest now holds every cell the log did; a leftover log
	// would only be unioned back in by a later -resume.
	logPath := experiment.CellLogPath(o.dir, o.name)
	if err := os.Remove(logPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		o.logger.Warn("removing spent cell log", "path", logPath, "err", err)
	}
	if o.store != nil {
		stored, err := o.store.Install(o.hash, m, nil)
		if err != nil {
			return fmt.Errorf("installing manifest in store: %w", err)
		}
		o.logger.Info("manifest installed in store", "hash", o.hash, "path", stored)
	}
	if err := writeTables(os.Stdout, m.Points, o.metrics, o.dir, o.name, spec.Replicates, o.ascii); err != nil {
		return err
	}
	printSummary(os.Stdout, m.Points)
	rec.Manifest, rec.Jobs, rec.Points = path, m.Jobs, len(m.Points)
	rec.GroupSeconds = stats.groupSpan.Seconds()
	o.record(rec, spec)
	return nil
}

// record stamps the spec hash and CPU time on rec and appends it to
// the ledger, if one is enabled; a ledger failure is logged but never
// fails a campaign.
func (o *output) record(rec telemetry.Record, spec sim.CampaignSpec) {
	if o.ledger == "" {
		return
	}
	hash, err := telemetry.SpecHash(spec)
	if err != nil {
		o.logger.Error("ledger: hashing spec", "err", err)
		return
	}
	rec.SpecHash = hash
	rec.CPUS = telemetry.CPUSeconds()
	if err := telemetry.AppendRecord(o.ledger, rec); err != nil {
		o.logger.Error("ledger append failed", "path", o.ledger, "err", err)
		return
	}
	o.logger.Debug("ledger appended", "path", o.ledger, "mode", rec.Mode, "spec_hash", hash)
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

// resumeCompatible rejects a resume whose prior manifest was produced
// under different trial physics or seeding: dimension lists may differ
// freely (extending the campaign is the point of -resume, and the
// dimensions are encoded in each point's group/X identity), and so may
// the cell range (a cell is exact under any shard layout), but the
// seed, replicate count, and pass-through trial parameters must match —
// they change results without changing any (group, N) label, so a merge
// would silently mix incomparable points and break the paired-seed
// methodology.
func resumeCompatible(priorSpec json.RawMessage, spec sim.CampaignSpec) error {
	if len(priorSpec) == 0 {
		return nil
	}
	var prev sim.CampaignSpec
	if err := sim.UnmarshalSpecJSON(priorSpec, &prev); err != nil {
		return fmt.Errorf("unreadable spec in manifest: %w", err)
	}
	type pinned struct {
		seed            int64
		replicates      int
		commRange       float64
		jamRadius       float64
		adjacentHolesOK bool
		arInitProb      float64
		arMaxHops       int
	}
	pin := func(s sim.CampaignSpec) pinned {
		s = s.Normalized()
		// Resolve trial-level defaults an explicit spec may spell out,
		// so "comm_range: 10" and an omitted comm_range compare equal.
		if s.CommRange == 0 {
			s.CommRange = sim.PaperCommRange
		}
		return pinned{
			seed:            s.BaseSeed,
			replicates:      s.Replicates,
			commRange:       s.CommRange,
			jamRadius:       s.JamRadius,
			adjacentHolesOK: s.AdjacentHolesOK,
			arInitProb:      s.ARInitProb,
			arMaxHops:       s.ARMaxHops,
		}
	}
	if a, b := pin(prev), pin(spec); a != b {
		return fmt.Errorf("produced with %+v, current campaign has %+v; "+
			"rerun with matching parameters or a fresh -name", a, b)
	}
	return nil
}

// loadResumeState reads what a -resume run extends: the union of the
// prior manifest and the checkpoint log, each vetted by
// resumeCompatible. Either or both may be missing; with neither there
// is nothing to resume from, so the full campaign runs. A cell both
// hold is taken from the manifest (the bytes are identical by
// determinism).
func loadResumeState(manifestPath, logPath string, spec sim.CampaignSpec) (*experiment.Manifest, error) {
	prior, err := loadResumeManifest(manifestPath, spec)
	if err != nil {
		return nil, err
	}
	log, err := experiment.ReadCellLog(logPath)
	if errors.Is(err, os.ErrNotExist) {
		return prior, nil
	}
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	if err := resumeCompatible(log.Spec, spec); err != nil {
		return nil, fmt.Errorf("resume log %s: %w", logPath, err)
	}
	if prior == nil {
		return log, nil
	}
	type cell struct {
		group string
		x     float64
	}
	have := make(map[cell]bool, len(prior.Points))
	for _, p := range prior.Points {
		have[cell{p.Group, p.X}] = true
	}
	for _, p := range log.Points {
		if !have[cell{p.Group, p.X}] {
			prior.Points = append(prior.Points, p)
		}
	}
	return prior, nil
}

// loadResumeManifest reads the manifest a -resume run extends and
// vets it with resumeCompatible; a missing file yields nil.
func loadResumeManifest(path string, spec sim.CampaignSpec) (*experiment.Manifest, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var prior experiment.Manifest
	if err := json.Unmarshal(data, &prior); err != nil {
		return nil, fmt.Errorf("resume manifest %s: %w", path, err)
	}
	if err := resumeCompatible(prior.Spec, spec); err != nil {
		return nil, fmt.Errorf("resume manifest %s: %w", path, err)
	}
	return &prior, nil
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

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseSchemes(s string) ([]sim.SchemeKind, error) {
	var out []sim.SchemeKind
	for _, f := range splitList(s) {
		k, err := sim.ParseSchemeKind(f)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

func parseGrids(s string) ([]sim.GridSize, error) {
	var out []sim.GridSize
	for _, f := range splitList(s) {
		g, err := sim.ParseGridSize(f)
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}

func parseWorkloads(s string) ([]sim.WorkloadSpec, error) {
	var out []sim.WorkloadSpec
	for _, f := range splitList(s) {
		spec := sim.WorkloadSpec{Kind: strings.ToLower(f)}
		if _, err := sim.BuildWorkload(spec); err != nil {
			return nil, err
		}
		out = append(out, spec)
	}
	return out, nil
}

func parseRunners(s string) ([]sim.RunnerKind, error) {
	var out []sim.RunnerKind
	for _, f := range splitList(s) {
		r, err := sim.ParseRunnerKind(f)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
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

// runStatus classifies how a run ended for the ledger: a context
// cancellation (SIGINT/SIGTERM drain, a second Ctrl-C racing the first)
// is an abort; anything else is a failure.
func runStatus(err error) string {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return telemetry.StatusAborted
	}
	return telemetry.StatusFailed
}

// signalContext cancels the returned context on the first SIGINT or
// SIGTERM, so campaigns drain gracefully — the checkpoint log keeps
// every completed cell, the ledger records the abort — and exits
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
		logger.Warn("signal received: draining (checkpoints flush, ledger records the abort); second signal exits immediately",
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
		listWk     = fs.Bool("list-workloads", false, "print the registered workload kinds with parameters and exit")
		ttlsS      = fs.String("ttls", "", "comma-separated claim TTLs in rounds (adds a campaign dimension; SR-family sync runs only, 0 = claims never expire)")
		runnersS   = fs.String("runners", "", "comma-separated trial runners: sync, async (default sync)")
		resume     = fs.Bool("resume", false, "skip (group, N) cells already in the output manifest and merge new results into it")
		shardS     = fs.String("shard", "", "cell shard i/n: run only the i-th of n contiguous blocks of campaign cells (union with -merge)")
		merge      = fs.Bool("merge", false, "merge the shard manifests given as arguments into one campaign manifest instead of running trials")
		progressS  = fs.String("progress", "meter", "progress display: meter, none")
		checkpoint = fs.Bool("checkpoint", false, "append every completed cell to <out>/<name>.cells.ndjson (one line, no fsync) so a killed run can -resume; removed once the manifest lands")
		replicates = fs.Int("replicates", 20, "trials per campaign cell")
		seed       = fs.Int64("seed", 1, "base random seed")
		workers    = fs.Int("workers", 0, "parallel trial workers (0 = all cores)")
		jamRadius  = fs.Float64("jam-radius", 0, "jammed disc radius in meters (0 = 1.5 cells)")
		adjacent   = fs.Bool("adjacent", false, "allow adjacent hole cells")
		metricsS   = fs.String("metrics", "moves,distance,success_rate,recovered", "metrics to export as tables, or \"all\"")
		outDir     = fs.String("out", "out", "output directory for artifacts")
		name       = fs.String("name", "sweep", "campaign name (artifact base name)")
		ascii      = fs.Bool("ascii", false, "print ASCII previews of exported tables")
		quiet      = fs.Bool("quiet", false, "suppress the progress meter (alias for -progress none)")
		dashS      = fs.String("dash", "", "serve the live telemetry dashboard at this address (host:port; port 0 picks a free one)")
		dashLinger = fs.Duration("dash-linger", 0, "keep the dashboard serving this long after a successful campaign")
		pprofF     = fs.Bool("pprof", false, "expose net/http/pprof on the dashboard server (requires -dash)")
		ledgerS    = fs.String("ledger", "", "run-ledger NDJSON path (default <out>/ledger.ndjson; \"none\" disables)")
		ifCachedS  = fs.String("if-cached", "", "sweepd manifest store directory: on a spec-hash hit print the cached manifest path and exit without running; on a miss run and install the result")
	)
	// Collect positional arguments (the -merge shard manifests) while
	// allowing flags to follow them: the flag package stops at the first
	// positional, so re-parse the remainder until everything is consumed
	// ("sweep -merge a.json b.json -out dir" works either way around).
	var positional []string
	for rest := args; ; {
		if err := fs.Parse(rest); err != nil {
			return err
		}
		rest = fs.Args()
		// A lone "-" is a positional too (flag.Parse stops at it without
		// consuming it); collecting it keeps this loop making progress.
		for len(rest) > 0 && (rest[0] == "-" || !strings.HasPrefix(rest[0], "-")) {
			positional = append(positional, rest[0])
			rest = rest[1:]
		}
		if len(rest) == 0 {
			break
		}
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

	progressMode := *progressS
	if *quiet && progressMode == "meter" {
		progressMode = "none"
	}
	switch progressMode {
	case "meter", "none":
	default:
		return fmt.Errorf("unknown -progress mode %q (want meter or none)", progressMode)
	}
	if *pprofF && *dashS == "" {
		return fmt.Errorf("-pprof rides the dashboard server; it requires -dash")
	}
	out := &output{
		dir: *outDir, name: *name, metrics: *metricsS, ascii: *ascii,
		ledger: resolveLedger(*ledgerS, *outDir),
		logger: logger,
	}

	if *merge {
		// Only output-shaping flags combine with -merge; any campaign
		// dimension flag would be silently ignored, so reject it instead.
		allowed := map[string]bool{
			"merge": true, "out": true, "name": true, "metrics": true, "ascii": true,
			"ledger": true, "if-cached": true,
		}
		var stray []string
		fs.Visit(func(f *flag.Flag) {
			if !allowed[f.Name] {
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			return fmt.Errorf("-merge takes shard manifests as arguments and no campaign flags (got %s)",
				strings.Join(stray, ", "))
		}
		// Bad inputs fail before anything is recorded, like a campaign
		// spec that fails validation. All checks — spec drift, the same
		// file passed twice, a cell missing or held twice — live in
		// dispatch.MergeShardManifests; a silent bad merge would corrupt
		// the paired-seed methodology the campaign layer guarantees.
		start := time.Now()
		manifest, spec, err := dispatch.MergeShardManifests(positional, *name)
		if err != nil {
			return err
		}
		if *ifCachedS != "" {
			if hit, err := out.useCache(*ifCachedS, spec); hit || err != nil {
				return err
			}
		}
		return out.finish("merge", spec, manifest, 0, time.Since(start), newFleetStats(), nil)
	}
	if len(positional) > 0 {
		return fmt.Errorf("unexpected arguments %v (only -merge takes manifests)", positional)
	}

	var spec sim.CampaignSpec
	if *specPath != "" {
		loaded, err := loadSpec(*specPath)
		if err != nil {
			return err
		}
		spec = loaded
	} else {
		var err error
		if spec.Schemes, err = parseSchemes(*schemesS); err != nil {
			return err
		}
		if spec.Grids, err = parseGrids(*gridsS); err != nil {
			return err
		}
		if spec.Spares, err = parseInts(*sparesS); err != nil {
			return err
		}
		if spec.Holes, err = parseInts(*holesS); err != nil {
			return err
		}
		if spec.ClaimTTLs, err = parseInts(*ttlsS); err != nil {
			return err
		}
		if spec.Workloads, err = parseWorkloads(*workloadsS); err != nil {
			return err
		}
		if spec.Runners, err = parseRunners(*runnersS); err != nil {
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
	spec = spec.Normalized()
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
	if err := spec.Validate(); err != nil {
		return err
	}

	// -if-cached is the CLI flavor of sweepd's dedupe: a store hit by
	// spec hash short-circuits the whole run.
	if *ifCachedS != "" {
		if hit, err := out.useCache(*ifCachedS, spec); hit || err != nil {
			return err
		}
	}

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
	stats := newFleetStats()
	onProgress := progressSinks(progressMode, dash, stats)

	// -resume: the existing manifest (if any) seeds the run; its cells
	// inside the current job space are skipped and carried over.
	manifestPath := filepath.Join(*outDir, *name+".json")
	logPath := experiment.CellLogPath(*outDir, *name)
	var prior *experiment.Manifest
	if *resume {
		if prior, err = loadResumeState(manifestPath, logPath, spec); err != nil {
			return err
		}
	}
	ckPath := ""
	if *checkpoint {
		ckPath = logPath
	}
	// Progress counts only the trials that will actually run (after the
	// shard and resume filters): under -shard the total is the shard's
	// own trial count, never the full campaign's.
	local := dispatch.PlanLocal(spec, *name, prior, ckPath)
	local.OnProgress = onProgress
	if local.Orphans > 0 {
		logger.Info("resume: dropping cells outside the current spec",
			"manifest", manifestPath, "orphans", local.Orphans)
	}
	// Test-only crash hook: WSNSWEEP_EXIT_AFTER=k kills the process
	// with exit code 7 after k completed trials (a cell they complete is
	// logged first), simulating a box dying mid-run for the
	// kill-and-resume tests.
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
	wall := time.Since(start)
	if err == nil && local.Resumed > 0 {
		logger.Info("resume: skipped completed cells",
			"manifest", manifestPath, "cells", local.Resumed, "new_trials", ran)
	}
	mode := "run"
	if spec.CellCount > 0 {
		mode = "shard"
	}
	return out.finish(mode, spec, manifest, ran, wall, stats, err)
}

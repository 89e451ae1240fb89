// Command runlog queries the run ledger — the append-only NDJSON
// history cmd/sweep writes one record into per campaign run (plain
// or -shard), completed or not: list's status column shows FAILED and
// ABORTED runs so unhealthy runs are visible from the run history
// (internal/telemetry, default <out>/ledger.ndjson). Records of the
// retired "merge" and "dispatch" modes, the latter with its "shards"
// and "retries" keys, still read.
//
// Usage:
//
//	runlog [-ledger out/ledger.ndjson | -store dir] [-json] list
//	runlog [-ledger ... | -store dir] show <ref>
//	runlog [-ledger ...] diff [-tol t] <refA> <refB>
//	runlog bench [-baseline BENCH_trial.json] [-metric ns_op]
//
// A <ref> names one record: a 1-based index into the ledger (append
// order, so 1 is the oldest), a spec-hash prefix (with or without the
// "sha256:" prefix), or a campaign name — the latest matching record
// wins for hashes and names, so "runlog show churn" is the most recent
// churn campaign.
//
// -store points at a sweepd manifest store (internal/sweepd) instead
// of a bare ledger file: list reads the store's own ledger — sweepd
// records every campaign there, so daemon history browses exactly like
// CLI history — and adds a table of the stored manifests (hash, size,
// newest record), including ones no ledger line mentions. show falls
// back to resolving <ref> as a store hash prefix when no ledger record
// matches, printing the store entry. -json switches list to a JSON
// object {"records": [...], "manifests": [...]} for scripting (show is
// always JSON; manifests appears only with -store).
//
// diff compares two records' manifests the way cmd/manifestdiff does
// (dispatch.DiffManifests): because
// the engine is deterministic, two runs with equal spec hashes must
// produce equivalent manifests, and diff proves it — across machines
// and shard layouts. Exit status 1 means the manifests
// differ, 2 usage or read errors.
//
// bench is the wall-clock companion: it tabulates each benchmark's
// metric across the BENCH_trial.json history (newest first), the trend
// table CI prints next to the gated alloc checks.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"wsncover/internal/dispatch"
	"wsncover/internal/sweepd"
	"wsncover/internal/telemetry"
)

// errDiffs marks a successful comparison that found differences, so
// main can exit 1 (differ) rather than 2 (broken).
var errDiffs = errors.New("manifests differ")

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil:
	case errors.Is(err, errDiffs):
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "runlog:", err)
		os.Exit(2)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("runlog", flag.ContinueOnError)
	ledgerPath := fs.String("ledger", "out/ledger.ndjson", "run-ledger NDJSON file")
	storeDir := fs.String("store", "", "sweepd manifest store directory (implies its ledger; list adds the stored manifests)")
	jsonOut := fs.Bool("json", false, "list: emit a JSON object instead of the table")
	tol := fs.Float64("tol", 1e-9, "diff: relative tolerance for mean/stddev/CI95")
	baseline := fs.String("baseline", "BENCH_trial.json", "bench: benchmark history file")
	metric := fs.String("metric", "ns_op", "bench: metric to tabulate (ns_op, bytes_op, allocs_op)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: runlog [flags] list | show <ref> | diff <refA> <refB> | bench")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	// -store implies the store's own ledger; an explicit -ledger beats it.
	if *storeDir != "" {
		ledgerSet := false
		fs.Visit(func(f *flag.Flag) { ledgerSet = ledgerSet || f.Name == "ledger" })
		if !ledgerSet {
			*ledgerPath = filepath.Join(*storeDir, "ledger.ndjson")
		}
	}
	sub := fs.Arg(0)
	rest := fs.Args()
	if len(rest) > 0 {
		rest = rest[1:]
	}
	switch sub {
	case "", "list":
		return runList(w, *ledgerPath, *storeDir, *jsonOut)
	case "show":
		if len(rest) != 1 {
			return fmt.Errorf("show takes one record ref")
		}
		return runShow(w, *ledgerPath, *storeDir, rest[0])
	case "diff":
		if len(rest) != 2 {
			return fmt.Errorf("diff takes two record refs")
		}
		return runDiff(w, *ledgerPath, rest[0], rest[1], *tol)
	case "bench":
		return runBench(w, *baseline, *metric)
	}
	return fmt.Errorf("unknown subcommand %q (want list, show, diff, or bench)", sub)
}

// resolve finds the record a ref names: a 1-based ledger index, a
// spec-hash prefix, or a campaign name (latest match wins for the
// latter two). The returned index is 0-based.
func resolve(recs []telemetry.Record, ref string) (int, error) {
	if n, err := strconv.Atoi(ref); err == nil {
		if n < 1 || n > len(recs) {
			return 0, fmt.Errorf("record %d out of range (ledger has %d)", n, len(recs))
		}
		return n - 1, nil
	}
	hashRef := ref
	if !strings.HasPrefix(hashRef, "sha256:") {
		hashRef = "sha256:" + hashRef
	}
	for i := len(recs) - 1; i >= 0; i-- {
		if strings.HasPrefix(recs[i].SpecHash, hashRef) {
			return i, nil
		}
	}
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Name == ref {
			return i, nil
		}
	}
	return 0, fmt.Errorf("no record matches %q (not an index, spec-hash prefix, or campaign name)", ref)
}

// shortHash abbreviates "sha256:<64 hex>" for the list table.
func shortHash(h string) string {
	h = strings.TrimPrefix(h, "sha256:")
	if len(h) > 12 {
		h = h[:12]
	}
	return h
}

// readLedgerLenient loads the ledger, treating a missing file as empty
// in store mode — a store freshly populated by hand has manifests but
// no ledger yet, and that is browsable history, not an error.
func readLedgerLenient(path string, lenient bool) ([]telemetry.Record, error) {
	recs, err := telemetry.ReadLedger(path)
	if err != nil && lenient && errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	return recs, err
}

func runList(w io.Writer, path, storeDir string, jsonOut bool) error {
	recs, err := readLedgerLenient(path, storeDir != "")
	if err != nil {
		return err
	}
	var entries []sweepd.Entry
	if storeDir != "" {
		store, err := sweepd.OpenStore(storeDir)
		if err != nil {
			return err
		}
		if entries, err = store.List(); err != nil {
			return err
		}
	}
	if jsonOut {
		out := struct {
			Records   []telemetry.Record `json:"records"`
			Manifests []sweepd.Entry     `json:"manifests,omitempty"`
		}{Records: recs, Manifests: entries}
		if out.Records == nil {
			out.Records = []telemetry.Record{}
		}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", b)
		return nil
	}
	fmt.Fprintf(w, "%-4s %-20s %-16s %-9s %-9s %6s %6s %9s %10s  %s\n",
		"#", "time", "name", "mode", "status", "jobs", "pts", "wall_s", "trials/s", "spec")
	for i, r := range recs {
		fmt.Fprintf(w, "%-4d %-20s %-16s %-9s %-9s %6d %6d %9.2f %10.1f  %s\n",
			i+1, r.Time.Format("2006-01-02 15:04:05"), r.Name, r.Mode, listStatus(r),
			r.Jobs, r.Points, r.WallS, r.TrialsPerS, shortHash(r.SpecHash))
	}
	if storeDir != "" {
		fmt.Fprintf(w, "\nstore %s: %d manifest(s)\n", storeDir, len(entries))
		fmt.Fprintf(w, "%-14s %10s %-16s %-9s  %s\n", "spec", "bytes", "name", "status", "path")
		for _, e := range entries {
			name, status := "(unledgered)", "-"
			if e.Record != nil {
				name, status = e.Record.Name, listStatus(*e.Record)
			}
			fmt.Fprintf(w, "%-14s %10d %-16s %-9s  %s\n",
				shortHash(e.SpecHash), e.Bytes, name, status, e.Path)
		}
	}
	return nil
}

// listStatus renders a record's outcome; records written before the
// status field existed are completed (only successful runs were
// recorded then). Unhealthy outcomes render uppercase so they jump out
// of a long history.
func listStatus(r telemetry.Record) string {
	switch r.Status {
	case "", telemetry.StatusCompleted:
		return telemetry.StatusCompleted
	case telemetry.StatusFailed, telemetry.StatusAborted:
		return strings.ToUpper(r.Status)
	}
	return r.Status
}

func runShow(w io.Writer, path, storeDir, ref string) error {
	recs, err := readLedgerLenient(path, storeDir != "")
	if err != nil {
		return err
	}
	i, err := resolve(recs, ref)
	if err != nil {
		// In store mode a ref no ledger record matches may still name a
		// stored manifest (e.g. installed by hand); show its entry.
		if storeDir == "" {
			return err
		}
		store, serr := sweepd.OpenStore(storeDir)
		if serr != nil {
			return serr
		}
		hash, manifest, data, serr := store.Resolve(ref)
		if serr != nil {
			return err // the original, more helpful resolution error
		}
		b, serr := json.MarshalIndent(sweepd.Entry{SpecHash: hash, Path: manifest, Bytes: int64(len(data))}, "", "  ")
		if serr != nil {
			return serr
		}
		fmt.Fprintf(w, "%s\n", b)
		return nil
	}
	b, err := json.MarshalIndent(recs[i], "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", b)
	return nil
}

func runDiff(w io.Writer, path, refA, refB string, tol float64) error {
	recs, err := telemetry.ReadLedger(path)
	if err != nil {
		return err
	}
	ia, err := resolve(recs, refA)
	if err != nil {
		return err
	}
	ib, err := resolve(recs, refB)
	if err != nil {
		return err
	}
	a, b := recs[ia], recs[ib]
	if a.SpecHash != b.SpecHash {
		fmt.Fprintf(w, "spec hashes differ (%s vs %s); comparing anyway\n",
			shortHash(a.SpecHash), shortHash(b.SpecHash))
	}
	diffs, err := dispatch.DiffManifests(a.Manifest, b.Manifest, tol)
	if err != nil {
		return err
	}
	if len(diffs) > 0 {
		for _, d := range diffs {
			fmt.Fprintln(w, d)
		}
		fmt.Fprintf(w, "%d difference(s) between %s and %s\n", len(diffs), a.Manifest, b.Manifest)
		return errDiffs
	}
	fmt.Fprintf(w, "%s and %s are equivalent (modulo estimated medians and execution metadata)\n",
		a.Manifest, b.Manifest)
	return nil
}

// benchHistory mirrors the slice of BENCH_trial.json runlog needs.
type benchHistory struct {
	History []struct {
		PR         int                           `json:"pr"`
		Date       string                        `json:"date"`
		Benchmarks map[string]map[string]float64 `json:"benchmarks"`
	} `json:"history"`
}

// runBench prints one row per benchmark, one column per history entry
// (newest first), for the chosen metric — the per-PR trend table.
func runBench(w io.Writer, path, metric string) error {
	switch metric {
	case "ns_op", "bytes_op", "allocs_op":
	default:
		return fmt.Errorf("bad -metric %q (want ns_op, bytes_op, or allocs_op)", metric)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var hist benchHistory
	if err := json.Unmarshal(data, &hist); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(hist.History) == 0 {
		return fmt.Errorf("%s has no history entries", path)
	}
	names := map[string]bool{}
	for _, e := range hist.History {
		for n := range e.Benchmarks {
			names[n] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	fmt.Fprintf(w, "%-44s", metric)
	for _, e := range hist.History {
		fmt.Fprintf(w, " %12s", fmt.Sprintf("pr%d", e.PR))
	}
	fmt.Fprintln(w)
	for _, n := range sorted {
		fmt.Fprintf(w, "%-44s", n)
		for _, e := range hist.History {
			if v, ok := e.Benchmarks[n][metric]; ok {
				fmt.Fprintf(w, " %12.0f", v)
			} else {
				fmt.Fprintf(w, " %12s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

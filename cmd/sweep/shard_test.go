package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wsncover/internal/dispatch"
	"wsncover/internal/experiment"
	"wsncover/internal/sim"
	"wsncover/internal/telemetry"
)

// TestMain doubles as the entry point of the kill-and-rerun tests: they
// re-execute the current binary, which under `go test` is the test
// binary. With WSNSWEEP_WORKER=1 set, this process behaves exactly like
// cmd/sweep, so a killed run exercises the real code path without
// building a separate binary.
func TestMain(m *testing.M) {
	if os.Getenv("WSNSWEEP_WORKER") == "1" {
		if err := run(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// watchDash subscribes to the dashboard hub of the next run started
// with -dash and collects every snapshot the run publishes. The
// returned function waits for the run's dashboard to close and returns
// the snapshots in publication order.
func watchDash(t *testing.T) func() []telemetry.Snapshot {
	t.Helper()
	type result struct {
		snaps []telemetry.Snapshot
		err   error
	}
	done := make(chan result, 1)
	dashNotify = func(_ string, hub *telemetry.Hub) {
		sub := hub.Subscribe()
		go func() {
			var res result
			for b := range sub.Events() {
				var s telemetry.Snapshot
				if err := json.Unmarshal(b, &s); err != nil && res.err == nil {
					res.err = fmt.Errorf("bad snapshot %s: %w", b, err)
				}
				res.snaps = append(res.snaps, s)
			}
			done <- res
		}()
	}
	t.Cleanup(func() { dashNotify = nil })
	return func() []telemetry.Snapshot {
		t.Helper()
		select {
		case res := <-done:
			if res.err != nil {
				t.Fatal(res.err)
			}
			return res.snaps
		case <-time.After(10 * time.Second):
			t.Fatal("the run's dashboard never closed")
			return nil
		}
	}
}

// TestShardProgressJSONTotals is the shard-meter regression test: under
// -shard i/n every progress total in the dashboard's JSON snapshots —
// the denominator the meter computes its ETA from — must be the shard's
// own trial count, never the full campaign's.
func TestShardProgressJSONTotals(t *testing.T) {
	snapshots := watchDash(t)
	dir := t.TempDir()
	// Full campaign: 1 scheme x 2 spares x 4 replicates = 8 trials in 2
	// cells. Shard 2/2 owns the N=24 cell: 4 trials.
	err := run([]string{
		"-schemes", "SR", "-grids", "8x8", "-spares", "8,24",
		"-replicates", "4", "-seed", "5", "-shard", "2/2", "-quiet",
		"-dash", "127.0.0.1:0", "-out", dir, "-name", "s", "-metrics", "",
	})
	if err != nil {
		t.Fatal(err)
	}
	snaps := snapshots()
	if len(snaps) < 2 {
		t.Fatalf("got %d snapshots, want at least the initial and final ones: %+v", len(snaps), snaps)
	}
	if first := snaps[0].Progress; first.Done != 0 || first.Total != 4 {
		t.Errorf("initial snapshot %+v, want 0/4 (the shard's own count)", first)
	}
	last := snaps[len(snaps)-1]
	if !last.Final || last.Progress.Done != 4 || last.Progress.Total != 4 {
		t.Errorf("final snapshot %+v, want a final 4/4", last)
	}
	for _, s := range snaps {
		if s.Progress.Total != 4 {
			t.Errorf("snapshot %+v does not carry the shard total 4", s.Progress)
		}
	}
}

// TestLocalProgressJSONGroupBoundaries: a local run's snapshot stream
// opens with 0/total, never goes backwards, ends with a final
// done == total, and every group's first and last trial emit a snapshot
// whatever the throttle does — the ledger's group spans and the
// dashboard's heatmap depend on it. A rerun over a store that holds
// every cell emits only its terminal snapshot.
func TestLocalProgressJSONGroupBoundaries(t *testing.T) {
	snapshots := watchDash(t)
	dir := t.TempDir()
	// 2 schemes x 2 grids = 4 groups, each 2 spares x 3 replicates = 6 trials.
	args := []string{
		"-schemes", "SR,AR", "-grids", "8x8,10x10", "-spares", "8,24",
		"-replicates", "3", "-seed", "5", "-quiet", "-dash", "127.0.0.1:0",
		"-out", dir, "-name", "g", "-metrics", "", "-ledger", "none",
		"-store", filepath.Join(dir, "store"),
	}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	snaps := snapshots()
	if len(snaps) < 2 {
		t.Fatalf("got %d snapshots: %+v", len(snaps), snaps)
	}
	if first := snaps[0].Progress; first.Done != 0 || first.Total != 24 {
		t.Errorf("initial snapshot %+v, want 0/24", first)
	}
	if last := snaps[len(snaps)-1]; !last.Final || last.Progress.Done != 24 || last.Progress.Total != 24 {
		t.Errorf("final snapshot %+v, want a final 24/24", last)
	}
	byDone := make(map[int]telemetry.Snapshot, len(snaps))
	prev := -1
	for _, s := range snaps {
		if s.Progress.Done < prev {
			t.Errorf("stream regressed: done %d after %d", s.Progress.Done, prev)
		}
		prev = s.Progress.Done
		byDone[s.Progress.Done] = s
	}

	// Where each group's first and last trial fall in the run's trial
	// order, from the spec the manifest records.
	_, spec, err := dispatch.LoadManifest(filepath.Join(dir, "g.json"))
	if err != nil {
		t.Fatal(err)
	}
	firstAt, lastAt, total := map[string]int{}, map[string]int{}, map[string]int{}
	ran := 0
	spec.Normalized().ExecutedJobs(nil, func(j sim.TrialJob) {
		ran++
		g := j.Group()
		if _, ok := firstAt[g]; !ok {
			firstAt[g] = ran
		}
		lastAt[g] = ran
		total[g]++
	})
	if len(firstAt) != 4 {
		t.Fatalf("campaign has groups %v, want 4", firstAt)
	}
	groupDone := func(s telemetry.Snapshot, g string) int {
		for _, v := range s.Groups {
			if v.Group == g {
				return v.Done
			}
		}
		return -1
	}
	for g := range firstAt {
		if s, ok := byDone[firstAt[g]]; !ok || groupDone(s, g) != 1 {
			t.Errorf("group %q: no snapshot at its first trial (trial %d)", g, firstAt[g])
		}
		if s, ok := byDone[lastAt[g]]; !ok || groupDone(s, g) != total[g] {
			t.Errorf("group %q: no snapshot at its last trial (trial %d)", g, lastAt[g])
		}
	}

	snapshots = watchDash(t)
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	if snaps := snapshots(); len(snaps) != 1 || !snaps[0].Final || snaps[0].Progress.Total != 0 {
		t.Errorf("a rerun with nothing to execute published %+v, want only a final 0/0", snaps)
	}
}

// TestShardResumeJobsAccounting pins the Jobs bookkeeping: a shard
// manifest grown over a store must count the trials its points
// represent (reused cells included), exactly like the same shard run in
// one go.
func TestShardResumeJobsAccounting(t *testing.T) {
	dir := t.TempDir()
	base := []string{
		"-schemes", "SR", "-grids", "8x8", "-replicates", "4",
		"-seed", "5", "-shard", "2/2", "-out", dir, "-name", "sh",
		"-metrics", "", "-quiet", "-store", filepath.Join(dir, "store"),
	}
	// Shard 2/2 of 2 cells is the N=24 cell; of 4 cells it is N=24 and
	// N=40, so the second run reuses one cell and computes one.
	if err := run(append([]string{"-spares", "8,24"}, base...)); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-spares", "8,16,24,40"}, base...)); err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(filepath.Join(dir, "sh.json"))
	if err != nil {
		t.Fatal(err)
	}

	refDir := t.TempDir()
	ref := []string{
		"-schemes", "SR", "-grids", "8x8", "-replicates", "4",
		"-seed", "5", "-shard", "2/2", "-out", refDir, "-name", "sh",
		"-metrics", "", "-quiet", "-spares", "8,16,24,40",
	}
	if err := run(ref); err != nil {
		t.Fatal(err)
	}
	direct, err := os.ReadFile(filepath.Join(refDir, "sh.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, direct) {
		t.Errorf("shard manifest over the store differs from the direct run:\n%s\nvs\n%s", resumed, direct)
	}
	var m experiment.Manifest
	if err := json.Unmarshal(resumed, &m); err != nil {
		t.Fatal(err)
	}
	if m.Jobs != 8 {
		t.Errorf("shard manifest jobs = %d, want 8 (4 reused + 4 new)", m.Jobs)
	}
}

// TestResumeUnshardedAfterShard: a cell is exact under any layout, so
// an unsharded run over the store a shard filled computes only the
// other shard's cells and lands on the cold unsharded run's bytes.
func TestResumeUnshardedAfterShard(t *testing.T) {
	dir := t.TempDir()
	// SR,AR x {8, 24}: 4 cells of 3 trials; shard 1/2 holds 2 of them.
	campaign := []string{
		"-schemes", "SR,AR", "-grids", "8x8", "-spares", "8,24",
		"-replicates", "3", "-seed", "13", "-metrics", "", "-ledger", "none",
		"-store", filepath.Join(dir, "store"),
	}
	if err := run(append([]string{"-out", dir, "-name", "c", "-shard", "1/2", "-quiet"}, campaign...)); err != nil {
		t.Fatal(err)
	}
	snapshots := watchDash(t)
	if err := run(append([]string{"-out", dir, "-name", "c", "-quiet", "-dash", "127.0.0.1:0"}, campaign...)); err != nil {
		t.Fatal(err)
	}
	snaps := snapshots()
	if len(snaps) == 0 || snaps[0].Progress.Total != 6 || snaps[len(snaps)-1].Progress.Done != 6 {
		t.Errorf("unsharded run's snapshots %+v, want 6 trials: only the other shard's 2 cells", snaps)
	}
	coldDir := t.TempDir()
	if err := run(append([]string{"-out", coldDir, "-name", "c", "-quiet"}, campaign[:len(campaign)-2]...)); err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, filepath.Join(dir, "c.json"), filepath.Join(coldDir, "c.json"))
}

// TestCheckpointResumeAfterKill is the failure path of a multi-box
// campaign: a run killed mid-way leaves no manifest and a store holding
// exactly its completed cells, and running the same command again
// finishes only the missing cells, with a manifest byte-identical to an
// uninterrupted run.
func TestCheckpointResumeAfterKill(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	args := []string{
		"-schemes", "SR", "-grids", "8x8", "-spares", "8,24",
		"-replicates", "3", "-seed", "9", "-out", dir, "-name", "ck",
		"-metrics", "", "-store", store, "-quiet",
	}
	// Re-exec this test binary as a run that dies (exit 7) right after
	// its third trial — the moment the first cell completes and is
	// stored.
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "WSNSWEEP_WORKER=1", "WSNSWEEP_EXIT_AFTER=3")
	out, err := cmd.CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 7 {
		t.Fatalf("killed run = %v (output %q), want exit code 7", err, out)
	}
	if _, err := os.Stat(filepath.Join(dir, "ck.json")); !os.IsNotExist(err) {
		t.Fatalf("the killed run wrote a manifest (stat err %v)", err)
	}

	// The store holds exactly the completed cell: one segment, one line.
	segs, err := filepath.Glob(filepath.Join(store, "cells", "*.ndjson"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("store holds segments %v (%v), want one", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	var line struct {
		Point  experiment.Point `json:"point"`
		Trials int              `json:"trials"`
	}
	if bytes.Count(data, []byte("\n")) != 1 || !bytes.HasSuffix(data, []byte("\n")) ||
		json.Unmarshal(data, &line) != nil || line.Point.X != 8 || line.Trials != 3 {
		t.Fatalf("store segment %q, want one whole line: the N=8 cell over 3 trials", data)
	}

	// Run the same command again, in-process, and compare with an
	// uninterrupted run.
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(filepath.Join(dir, "ck.json"))
	if err != nil {
		t.Fatal(err)
	}
	refDir := t.TempDir()
	refArgs := []string{
		"-schemes", "SR", "-grids", "8x8", "-spares", "8,24",
		"-replicates", "3", "-seed", "9", "-out", refDir, "-name", "ck",
		"-metrics", "", "-quiet",
	}
	if err := run(refArgs); err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(filepath.Join(refDir, "ck.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, ref) {
		t.Errorf("rerun-after-kill manifest differs from uninterrupted run:\n%s\nvs\n%s", resumed, ref)
	}
	if got := executed(t, filepath.Join(dir, "ledger.ndjson")); len(got) != 1 || got[0] != 3 {
		t.Errorf("the rerun executed %v trials, want only the missing cell's 3", got)
	}
}

// assertSameBytes fails the test unless the two files are identical.
func assertSameBytes(t *testing.T, gotPath, wantPath string) {
	t.Helper()
	got, err := os.ReadFile(gotPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(wantPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from %s:\n%s\nvs\n%s", gotPath, wantPath, got, want)
	}
}

// TestFlagConflicts: flags that cannot compose say so, and the flags
// of the retired fleet supervisor, of the modes -store replaced and the
// -progress spelling of -quiet are unknown.
func TestFlagConflicts(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-progress", "none"}, "flag provided but not defined: -progress"},
		{[]string{"-pprof"}, "requires -dash"},
		{[]string{"-dispatch", "2"}, "flag provided but not defined: -dispatch"},
		{[]string{"-exec", "ssh box --"}, "flag provided but not defined: -exec"},
		{[]string{"-fleet", "inv.txt"}, "flag provided but not defined: -fleet"},
		{[]string{"-lease-timeout", "30s"}, "flag provided but not defined: -lease-timeout"},
		{[]string{"-max-retries", "5"}, "flag provided but not defined: -max-retries"},
		{[]string{"-checkpoint"}, "flag provided but not defined: -checkpoint"},
		{[]string{"-resume"}, "flag provided but not defined: -resume"},
		{[]string{"-merge"}, "flag provided but not defined: -merge"},
		{[]string{"-if-cached", "store"}, "flag provided but not defined: -if-cached"},
	}
	for _, c := range cases {
		err := run(append(c.args, "-schemes", "SR", "-grids", "8x8", "-spares", "8,24",
			"-replicates", "4", "-out", dir, "-quiet"))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %v, want error containing %q", c.args, err, c.want)
		}
	}
}

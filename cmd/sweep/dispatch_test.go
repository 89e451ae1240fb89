package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"wsncover/internal/dispatch"
	"wsncover/internal/experiment"
	"wsncover/internal/sim"
)

// TestMain doubles as the dispatch worker entry point: the dispatch
// driver re-executes the current binary, which under `go test` is the
// test binary. With WSNSWEEP_WORKER=1 set, this process behaves exactly
// like cmd/sweep, so the dispatch tests exercise the real worker code
// path without building a separate binary.
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

// captureProgress redirects the -progress=json stream for one test.
func captureProgress(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	old := progressOut
	progressOut = &buf
	t.Cleanup(func() { progressOut = old })
	return &buf
}

// parseEvents decodes every protocol line in the captured stream.
func parseEvents(t *testing.T, raw []byte) []experiment.Progress {
	t.Helper()
	var events []experiment.Progress
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if ev, kind := experiment.ClassifyProgressLine(line); kind == experiment.LineEvent {
			events = append(events, ev)
		}
	}
	return events
}

// TestShardProgressJSONTotals is the shard-meter regression test: under
// -shard i/n every progress total — the denominator the meter and any
// supervisor computes ETA from — must be the shard's own trial count,
// never the full campaign's.
func TestShardProgressJSONTotals(t *testing.T) {
	buf := captureProgress(t)
	dir := t.TempDir()
	// Full campaign: 1 scheme x 2 spares x 4 replicates = 8 trials in 2
	// cells. Shard 2/2 owns the N=24 cell: 4 trials.
	err := run([]string{
		"-schemes", "SR", "-grids", "8x8", "-spares", "8,24",
		"-replicates", "4", "-seed", "5", "-shard", "2/2",
		"-progress", "json", "-out", dir, "-name", "s", "-metrics", "",
	})
	if err != nil {
		t.Fatal(err)
	}
	events := parseEvents(t, buf.Bytes())
	if len(events) < 2 {
		t.Fatalf("got %d events, want at least the initial and final ones:\n%s", len(events), buf.String())
	}
	if first := events[0]; first.Done != 0 || first.Total != 4 {
		t.Errorf("initial event %+v, want 0/4 (the shard's own count)", first)
	}
	last := events[len(events)-1]
	if last.Done != 4 || last.Total != 4 {
		t.Errorf("final event %+v, want 4/4", last)
	}
	for _, ev := range events {
		if ev.Total == 8 {
			t.Errorf("event %+v leaked the full campaign total 8", ev)
		}
	}
}

// TestLocalProgressJSONGroupBoundaries: a local run speaking the JSON
// protocol opens with 0/total, ends with done == total, and every
// group's completing trial emits an event carrying that group at its
// full count — the fleet driver's per-group ledger and heatmap depend
// on it under throttling. A resumed run with nothing left to execute
// emits nothing: the protocol has no zero-total event.
func TestLocalProgressJSONGroupBoundaries(t *testing.T) {
	buf := captureProgress(t)
	dir := t.TempDir()
	// 2 schemes x 2 grids = 4 groups, each 2 spares x 3 replicates = 6 trials.
	args := []string{
		"-schemes", "SR,AR", "-grids", "8x8,10x10", "-spares", "8,24",
		"-replicates", "3", "-seed", "5", "-progress", "json",
		"-out", dir, "-name", "g", "-metrics", "", "-ledger", "none",
	}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	events := parseEvents(t, buf.Bytes())
	if len(events) < 2 {
		t.Fatalf("got %d events:\n%s", len(events), buf.String())
	}
	if first := events[0]; first.Done != 0 || first.Total != 24 {
		t.Errorf("initial event %+v, want 0/24", first)
	}
	if last := events[len(events)-1]; last.Done != 24 || last.Total != 24 {
		t.Errorf("final event %+v, want 24/24", last)
	}
	completed := make(map[string]bool)
	for _, ev := range events {
		if ev.GroupDone == 6 {
			completed[ev.Group] = true
		}
	}
	var m experiment.Manifest
	data, err := os.ReadFile(filepath.Join(dir, "g.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	groups := make(map[string]bool)
	for _, p := range m.Points {
		groups[p.Group] = true
	}
	if len(groups) != 4 {
		t.Fatalf("manifest has groups %v, want 4", groups)
	}
	for g := range groups {
		if !completed[g] {
			t.Errorf("no event carried group %q at its total 6:\n%s", g, buf.String())
		}
	}

	buf.Reset()
	if err := run(append(args, "-resume")); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("a resumed run with nothing to execute emitted %q", buf.String())
	}
}

// TestShardResumeJobsAccounting pins the Jobs bookkeeping fix: a shard
// manifest grown by -resume must count the trials its points represent
// (prior retained cells included), exactly like the same shard run in
// one go — otherwise -merge under-reports the campaign's job count.
func TestShardResumeJobsAccounting(t *testing.T) {
	dir := t.TempDir()
	base := []string{
		"-schemes", "SR", "-grids", "8x8", "-replicates", "4",
		"-seed", "5", "-shard", "2/2", "-out", dir, "-name", "sh",
		"-metrics", "", "-quiet",
	}
	// Shard 2/2 of 2 cells is the N=24 cell; of 4 cells it is N=24 and
	// N=40, so the resume keeps one cell and computes one.
	if err := run(append([]string{"-spares", "8,24"}, base...)); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-spares", "8,16,24,40", "-resume"}, base...)); err != nil {
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
		t.Errorf("resumed shard manifest differs from the direct run:\n%s\nvs\n%s", resumed, direct)
	}
	var m experiment.Manifest
	if err := json.Unmarshal(resumed, &m); err != nil {
		t.Fatal(err)
	}
	if m.Jobs != 8 {
		t.Errorf("resumed shard manifest jobs = %d, want 8 (4 prior + 4 new)", m.Jobs)
	}
}

// TestResumeUnshardedAfterShard: a cell is exact under any layout, so
// -resume without -shard extends a shard's manifest to the whole
// campaign, computing only the other shard's cells, and lands on the
// cold unsharded run's bytes.
func TestResumeUnshardedAfterShard(t *testing.T) {
	dir := t.TempDir()
	// SR,AR x {8, 24}: 4 cells of 3 trials; shard 1/2 holds 2 of them.
	campaign := []string{
		"-schemes", "SR,AR", "-grids", "8x8", "-spares", "8,24",
		"-replicates", "3", "-seed", "13", "-metrics", "", "-ledger", "none",
	}
	if err := run(append([]string{"-out", dir, "-name", "c", "-shard", "1/2", "-quiet"}, campaign...)); err != nil {
		t.Fatal(err)
	}
	buf := captureProgress(t)
	if err := run(append([]string{"-out", dir, "-name", "c", "-resume", "-progress", "json"}, campaign...)); err != nil {
		t.Fatal(err)
	}
	events := parseEvents(t, buf.Bytes())
	if len(events) == 0 || events[0].Total != 6 || events[len(events)-1].Done != 6 {
		t.Errorf("resume events %+v, want 6 trials: only the other shard's 2 cells", events)
	}
	coldDir := t.TempDir()
	if err := run(append([]string{"-out", coldDir, "-name", "c", "-quiet"}, campaign...)); err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, filepath.Join(dir, "c.json"), filepath.Join(coldDir, "c.json"))
}

// TestCheckpointResumeAfterKill is the worker failure-path satellite: a
// shard worker killed mid-run leaves a checkpoint log of its completed
// cells, a -resume rerun finishes only the missing cells, and the final
// manifest is byte-identical to an uninterrupted run.
func TestCheckpointResumeAfterKill(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-schemes", "SR", "-grids", "8x8", "-spares", "8,24",
		"-replicates", "3", "-seed", "9", "-out", dir, "-name", "ck",
		"-metrics", "", "-checkpoint", "-quiet",
	}
	// Re-exec this test binary as a worker that dies (exit 7) right
	// after its third trial — the moment the first cell completes and
	// checkpoints.
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "WSNSWEEP_WORKER=1", "WSNSWEEP_EXIT_AFTER=3")
	out, err := cmd.CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 7 {
		t.Fatalf("worker = %v (output %q), want exit code 7", err, out)
	}

	// The checkpoint log holds exactly the completed cell.
	pm, err := experiment.ReadCellLog(filepath.Join(dir, "ck.cells.ndjson"))
	if err != nil {
		t.Fatalf("no checkpoint log after the kill: %v", err)
	}
	if len(pm.Points) != 1 || pm.Points[0].X != 8 || pm.Jobs != 3 {
		t.Fatalf("checkpoint = %d points (X=%g) %d jobs, want the completed N=8 cell and 3 jobs",
			len(pm.Points), pm.Points[0].X, pm.Jobs)
	}

	// Resume in-process and compare with an uninterrupted run.
	if err := run(append(append([]string{}, args...), "-resume")); err != nil {
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
		t.Errorf("resumed-after-kill manifest differs from uninterrupted run:\n%s\nvs\n%s", resumed, ref)
	}
}

// TestDispatchMatchesUnsharded is the acceptance criterion: -dispatch n
// runs n supervised shard subprocesses and writes a final merged
// manifest byte-identical to the same campaign run unsharded.
func TestDispatchMatchesUnsharded(t *testing.T) {
	t.Setenv("WSNSWEEP_WORKER", "1") // shard subprocesses re-enter run()
	dir := t.TempDir()
	if err := run([]string{
		"-dispatch", "2", "-schemes", "SR,AR", "-grids", "8x8",
		"-spares", "8,24", "-replicates", "4", "-seed", "21",
		"-out", dir, "-name", "camp", "-metrics", "moves", "-quiet",
	}); err != nil {
		t.Fatal(err)
	}
	// The fleet leaves shard artifacts plus the merged campaign. With 2
	// slots the queue defaults to 4 blocks (2 per slot), one per cell.
	for _, f := range []string{
		"camp.json", "camp-b1.json", "camp-b2.json", "camp-b3.json", "camp-b4.json",
		"camp-b1.spec.json", "camp-b4.spec.json", "camp-moves.csv",
	} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing fleet artifact %s: %v", f, err)
		}
	}

	refDir := t.TempDir()
	if err := run([]string{
		"-schemes", "SR,AR", "-grids", "8x8", "-spares", "8,24",
		"-replicates", "4", "-seed", "21",
		"-out", refDir, "-name", "camp", "-metrics", "moves", "-quiet",
	}); err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, filepath.Join(dir, "camp.json"), filepath.Join(refDir, "camp.json"))
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

// TestDispatchRetriesDeadWorkerAndResumes: the worker slot 1 launches
// first is killed mid-run (after checkpointing one completed cell); the
// driver must retry its shard with -resume and the merged result must
// still equal the unsharded campaign byte for byte.
func TestDispatchRetriesDeadWorkerAndResumes(t *testing.T) {
	dir := t.TempDir()
	died := filepath.Join(dir, "died")
	script := filepath.Join(dir, "flaky.sh")
	if err := os.WriteFile(script, []byte(`#!/bin/sh
s=$1; shift
if [ "$s" = "1" ] && [ ! -e "`+died+`" ]; then
  touch "`+died+`"
  export WSNSWEEP_EXIT_AFTER=3
fi
exec "$@"
`), 0o755); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	attempts := 0
	// 4 cells of 2 trials; each of the 2 blocks holds 2 cells.
	spec := sim.CampaignSpec{
		Schemes:    []sim.SchemeKind{sim.SR},
		Grids:      []sim.GridSize{{Cols: 8, Rows: 8}},
		Spares:     []int{8, 16, 24, 40},
		Replicates: 2,
		BaseSeed:   21,
	}
	manifest, _, err := dispatch.Run(context.Background(), spec, dispatch.Options{
		Slots:  2,
		Blocks: 2,
		Worker: []string{"/bin/sh", script, "{slot}", os.Args[0]},
		OutDir: dir,
		Name:   "camp",
		Env:    []string{"WSNSWEEP_WORKER=1"},
		Stderr: io.Discard,
		OnProgress: func(s dispatch.FleetSnapshot) {
			mu.Lock()
			defer mu.Unlock()
			for _, sh := range s.Shards {
				if sh.Attempts > attempts {
					attempts = sh.Attempts
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(died); err != nil {
		t.Fatal("the flaky worker never died; the retry path was not exercised")
	}
	mu.Lock()
	got := attempts
	mu.Unlock()
	if got != 2 {
		t.Errorf("dead worker's shard attempts = %d, want 2 (die once, resume once)", got)
	}
	if _, err := manifest.Save(dir); err != nil {
		t.Fatal(err)
	}

	refDir := t.TempDir()
	if err := run([]string{
		"-schemes", "SR", "-grids", "8x8", "-spares", "8,16,24,40",
		"-replicates", "2", "-seed", "21",
		"-out", refDir, "-name", "camp", "-metrics", "", "-quiet",
	}); err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, filepath.Join(dir, "camp.json"), filepath.Join(refDir, "camp.json"))
	// Every shard's manifest accounts for all the trials it represents —
	// the retried one's checkpointed prefix included.
	for _, name := range []string{"camp-b1.json", "camp-b2.json"} {
		var sh experiment.Manifest
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &sh); err != nil {
			t.Fatal(err)
		}
		if sh.Jobs != 4 {
			t.Errorf("%s jobs = %d, want 4", name, sh.Jobs)
		}
	}
}

// TestDispatchFlagConflicts: modes that cannot compose must say so.
func TestDispatchFlagConflicts(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-dispatch", "2", "-shard", "1/2"}, "-dispatch splits"},
		{[]string{"-dispatch", "2", "-checkpoint"}, "-checkpoint belongs to workers"},
		{[]string{"-exec", "ssh box --"}, "-exec only applies"},
		{[]string{"-lease-timeout", "30s"}, "only apply to dispatch mode"},
		{[]string{"-max-retries", "5"}, "only apply to dispatch mode"},
		{[]string{"-fleet", "inv.txt", "-exec", "ssh box --"}, "drop -exec"},
		{[]string{"-progress", "sometimes"}, "unknown -progress mode"},
		{[]string{"-pprof"}, "requires -dash"},
	}
	for _, c := range cases {
		err := run(append(c.args, "-schemes", "SR", "-grids", "8x8", "-spares", "8,24",
			"-replicates", "4", "-out", dir, "-quiet"))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %v, want error containing %q", c.args, err, c.want)
		}
	}
}

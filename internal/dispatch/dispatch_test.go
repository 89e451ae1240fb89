package dispatch

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wsncover/internal/sim"
)

// fullSpec is the unsharded campaign the stub-worker fleets dispatch:
// two cells of two replicates, so with Blocks=2 each shard owns one
// cell of two trials.
func fullSpec() sim.CampaignSpec {
	return sim.CampaignSpec{
		Schemes:    []sim.SchemeKind{sim.SR},
		Grids:      []sim.GridSize{{Cols: 8, Rows: 8}},
		Spares:     []int{8, 24},
		Replicates: 2,
		BaseSeed:   1,
	}.Normalized()
}

// collector gathers fleet snapshots thread-safely.
type collector struct {
	mu    sync.Mutex
	snaps []FleetSnapshot
}

func (c *collector) add(s FleetSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snaps = append(c.snaps, s)
}

func (c *collector) all() []FleetSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]FleetSnapshot(nil), c.snaps...)
}

// stubWorker builds a /bin/sh stand-in for cmd/sweep. The driver
// appends the standard worker args, so inside the script $2 is the spec
// path, $4 the -out directory, and $6 the shard artifact name
// (camp-b1, camp-b2, ...) — behavior keys on $6 because which slot runs
// which shard is the queue's business, not the test's.
func stubWorker(script string) []string {
	return []string{"/bin/sh", "-c", script, "stub"}
}

// premade writes the two shard manifests a stub fleet "computes" and
// returns the directory: scripts deliver by copying premade/$6.json
// into their requested -out.
func premade(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	writeManifest(t, dir, "camp-b1", shardSpec(0, 1), 2, 3)
	writeManifest(t, dir, "camp-b2", shardSpec(1, 1), 2, 5)
	return dir
}

// TestRunStubFleet drives the whole orchestration loop with /bin/sh
// stand-ins for cmd/sweep: workers emit the JSON progress protocol and
// deliver pre-computed shard manifests, and the driver must fold the
// streams into fleet snapshots and auto-merge the manifests.
func TestRunStubFleet(t *testing.T) {
	dir := t.TempDir()
	pre := premade(t)
	script := `printf '{"done":0,"total":2}\n{"done":2,"total":2,"group":"SR 8x8"}\n'
cp "` + pre + `/$6.json" "$4/$6.json"`
	var col collector
	manifest, spec, err := Run(context.Background(), fullSpec(), Options{
		Slots:      2,
		Blocks:     2,
		Worker:     stubWorker(script),
		OutDir:     dir,
		Name:       "camp",
		OnProgress: col.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	if manifest.Jobs != 4 || len(manifest.Points) != 2 {
		t.Errorf("merged manifest jobs=%d points=%d", manifest.Jobs, len(manifest.Points))
	}
	// The union keeps each shard's cell as delivered.
	for i, want := range []float64{3, 5} {
		if d := manifest.Points[i].Metrics["moves"]; d.N != 2 || d.Mean != want || d.MedianApprox {
			t.Errorf("merged cell %d = %+v, want N=2 mean=%g exact median", i, d, want)
		}
	}
	if spec.CellCount != 0 {
		t.Errorf("merged spec keeps a cell range: %+v", spec)
	}

	// The driver wrote each shard's spec file with its cell block.
	for i, wantFirst := range []int{0, 1} {
		path := filepath.Join(dir, "camp-b"+string(rune('1'+i))+".spec.json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("shard spec file: %v", err)
		}
		var sh sim.CampaignSpec
		if err := sim.UnmarshalSpecJSON(data, &sh); err != nil {
			t.Fatal(err)
		}
		if sh.CellFirst != wantFirst || sh.CellCount != 1 {
			t.Errorf("shard %d spec range [%d, +%d), want [%d, +1)", i+1, sh.CellFirst, sh.CellCount, wantFirst)
		}
	}

	// Snapshots: the fleet total is 4 from the start (computed from the
	// spec, not worker reports), and the final snapshot saw both shards
	// done with the full fleet complete.
	snaps := col.all()
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots delivered")
	}
	for _, s := range snaps {
		if s.Fleet.Total != 4 {
			t.Fatalf("snapshot fleet total = %d, want 4 throughout: %+v", s.Fleet.Total, s)
		}
		if s.Slots != 2 {
			t.Fatalf("snapshot slots = %d, want 2", s.Slots)
		}
	}
	last := snaps[len(snaps)-1]
	if !last.Terminal() || last.Fleet.Done != 4 {
		t.Errorf("final snapshot %+v, want terminal 4/4", last)
	}
	for _, sh := range last.Shards {
		if sh.State != ShardDone || sh.Progress.Done != 2 {
			t.Errorf("shard %d final status %+v, want done 2/2", sh.Shard, sh)
		}
	}
}

// TestRunRetriesFailedWorker: a worker that dies is relaunched with
// -resume and the fleet still converges; the worker's stderr reaches the
// driver's sink with a shard prefix.
func TestRunRetriesFailedWorker(t *testing.T) {
	dir := t.TempDir()
	pre := premade(t)
	died := filepath.Join(dir, "died-once")
	resumed := filepath.Join(dir, "saw-resume")

	// Shard 1 dies mid-run on its first attempt; its retry must carry
	// -resume. Shard 2 succeeds immediately.
	script := `
if [ "$6" = "camp-b1" ] && [ ! -e "` + died + `" ]; then
  touch "` + died + `"
  printf '{"done":1,"total":2}\n'
  echo "boom" >&2
  exit 1
fi
if [ "$6" = "camp-b1" ]; then
  case "$*" in *-resume*) touch "` + resumed + `" ;; esac
fi
printf '{"done":2,"total":2}\n'
cp "` + pre + `/$6.json" "$4/$6.json"`
	var col collector
	var errBuf bytes.Buffer
	manifest, _, err := Run(context.Background(), fullSpec(), Options{
		Slots:      2,
		Blocks:     2,
		Worker:     stubWorker(script),
		OutDir:     dir,
		Name:       "camp",
		Retries:    2,
		Stderr:     &errBuf,
		OnProgress: col.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	if manifest.Jobs != 4 {
		t.Errorf("merged jobs = %d", manifest.Jobs)
	}
	if _, err := os.Stat(resumed); err != nil {
		t.Error("retry attempt did not pass -resume to the worker")
	}
	if got := errBuf.String(); !strings.Contains(got, "shard 1: boom") {
		t.Errorf("driver stderr %q lacks the prefixed worker line", got)
	}
	sawRetry := false
	for _, s := range col.all() {
		for _, sh := range s.Shards {
			if sh.Shard == 1 && sh.Attempts == 2 {
				sawRetry = true
			}
			if sh.Progress.Done > sh.Progress.Total {
				t.Errorf("shard %d over-counts: %+v", sh.Shard, sh.Progress)
			}
		}
	}
	if !sawRetry {
		t.Error("no snapshot observed shard 1 on attempt 2")
	}
}

// TestRunFailsAfterRetries: a shard that keeps dying fails the fleet
// with its own error and cancels the long-running sibling instead of
// waiting it out.
func TestRunFailsAfterRetries(t *testing.T) {
	dir := t.TempDir()
	script := `if [ "$6" = "camp-b1" ]; then echo "shard1 giving up" >&2; exit 3; fi
printf '{"done":0,"total":2}\n'
exec sleep 60`
	start := time.Now()
	_, _, err := Run(context.Background(), fullSpec(), Options{
		Slots:   2,
		Blocks:  2,
		Worker:  stubWorker(script),
		OutDir:  dir,
		Name:    "camp",
		Retries: -1,
		Stderr:  io.Discard,
	})
	if err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("err = %v, want shard 1 failure", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Errorf("fleet failure took %v; the sleeping sibling was not cancelled", elapsed)
	}
}

// TestRunCleanExitWithoutManifestIsFailure: exit status 0 with no
// manifest on disk is a worker bug (or a lost shared filesystem), not a
// success.
func TestRunCleanExitWithoutManifestIsFailure(t *testing.T) {
	dir := t.TempDir()
	// Shard 1's manifest "appears" (pre-written); shard 2's never does.
	writeManifest(t, dir, "camp-b1", shardSpec(0, 1), 2, 3)
	_, _, err := Run(context.Background(), fullSpec(), Options{
		Slots:   2,
		Blocks:  2,
		Worker:  stubWorker("exit 0"),
		OutDir:  dir,
		Name:    "camp",
		Retries: -1,
		Stderr:  io.Discard,
	})
	if err == nil || !strings.Contains(err.Error(), "no manifest") {
		t.Fatalf("err = %v, want no-manifest failure", err)
	}
}

// TestRunRejectsIncompleteManifest: a clean exit that leaves a partial
// manifest (a checkpoint posing as a result) must not count as done —
// the driver validates the job count and requeues.
func TestRunRejectsIncompleteManifest(t *testing.T) {
	dir := t.TempDir()
	// Jobs=1 of 2: a checkpoint, not a complete shard.
	writeManifest(t, dir, "camp-b1", shardSpec(0, 1), 1, 3)
	writeManifest(t, dir, "camp-b2", shardSpec(1, 1), 2, 5)
	_, _, err := Run(context.Background(), fullSpec(), Options{
		Slots:   1,
		Blocks:  2,
		Worker:  stubWorker("exit 0"),
		OutDir:  dir,
		Name:    "camp",
		Retries: -1,
		Stderr:  io.Discard,
	})
	if err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("err = %v, want incomplete-manifest failure", err)
	}
	// The invalid manifest was cleared so a -resume retry cannot choke.
	if _, statErr := os.Stat(filepath.Join(dir, "camp-b1.json")); !os.IsNotExist(statErr) {
		t.Errorf("incomplete manifest left in place: %v", statErr)
	}
}

// TestRunHungWorkerReissued: a worker that stops heartbeating is killed
// by the lease watchdog and its shard re-issued promptly — the campaign
// converges instead of waiting forever, well inside the 2× lease budget
// (plus process-churn slack).
func TestRunHungWorkerReissued(t *testing.T) {
	dir := t.TempDir()
	pre := t.TempDir()
	writeManifest(t, pre, "camp-b1", shardSpec(0, 2), 4, 3)
	hung := filepath.Join(dir, "hung-once")
	script := `
if [ ! -e "` + hung + `" ]; then
  touch "` + hung + `"
  printf '{"done":0,"total":4}\n'
  exec sleep 60
fi
printf '{"done":4,"total":4}\n'
cp "` + pre + `/$6.json" "$4/$6.json"`
	var col collector
	lease := 400 * time.Millisecond
	start := time.Now()
	manifest, _, err := Run(context.Background(), fullSpec(), Options{
		Slots:        1,
		Blocks:       1,
		Worker:       stubWorker(script),
		OutDir:       dir,
		Name:         "camp",
		LeaseTimeout: lease,
		Retries:      2,
		Stderr:       io.Discard,
		OnProgress:   col.add,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if manifest.Jobs != 4 {
		t.Errorf("merged jobs = %d", manifest.Jobs)
	}
	if elapsed > 10*time.Second {
		t.Errorf("hung worker took %v to recover; lease watchdog asleep?", elapsed)
	}
	sawRetry := false
	for _, s := range col.all() {
		if len(s.Shards) > 0 && s.Shards[0].Attempts >= 2 {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Error("no snapshot observed the re-issued attempt")
	}
}

// TestRunStealsStraggler: with the queue drained, an idle slot races a
// speculative duplicate against the straggling shard; the duplicate
// wins, the straggler is killed, and the stolen manifest is promoted to
// the canonical path.
func TestRunStealsStraggler(t *testing.T) {
	dir := t.TempDir()
	pre := premade(t)
	straggling := filepath.Join(dir, "straggler-claimed")
	script := `
if [ "$6" = "camp-b2" ] && [ ! -e "` + straggling + `" ]; then
  touch "` + straggling + `"
  printf '{"done":0,"total":2}\n'
  exec sleep 60
fi
printf '{"done":2,"total":2}\n'
cp "` + pre + `/$6.json" "$4/$6.json"`
	var col collector
	manifest, _, err := Run(context.Background(), fullSpec(), Options{
		Slots:      2,
		Blocks:     2,
		Worker:     stubWorker(script),
		OutDir:     dir,
		Name:       "camp",
		StealAfter: time.Millisecond,
		Stderr:     io.Discard,
		OnProgress: col.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	if manifest.Jobs != 4 {
		t.Errorf("merged jobs = %d", manifest.Jobs)
	}
	if _, err := os.Stat(filepath.Join(dir, "camp-b2.json")); err != nil {
		t.Errorf("stolen shard manifest was not promoted to its canonical path: %v", err)
	}
	sawRace := false
	for _, s := range col.all() {
		for _, sh := range s.Shards {
			if sh.Leases == 2 {
				sawRace = true
			}
		}
	}
	if !sawRace {
		t.Error("no snapshot observed a speculative duplicate racing the straggler")
	}
	// Spare directories are cleaned up after promotion.
	entries, _ := filepath.Glob(filepath.Join(dir, ".spare-*"))
	if len(entries) != 0 {
		t.Errorf("spare directories left behind: %v", entries)
	}
}

// TestRunSlotRetirement: a slot that keeps failing retires and the
// surviving slot finishes the whole queue — a dead box degrades the
// fleet, it does not fail the campaign.
func TestRunSlotRetirement(t *testing.T) {
	dir := t.TempDir()
	pre := premade(t)
	// Slot 2 is a dead box: every attempt exits 1 instantly. Slot 1 is
	// healthy. The campaign must converge on slot 1 alone.
	script := `
if [ "$0" = "slot2" ]; then echo "dead box" >&2; exit 1; fi
printf '{"done":2,"total":2}\n'
cp "` + pre + `/$6.json" "$4/$6.json"`
	var col collector
	manifest, _, err := Run(context.Background(), fullSpec(), Options{
		Fleet: [][]string{
			{"/bin/sh", "-c", script, "slot1"},
			{"/bin/sh", "-c", script, "slot2"},
		},
		Blocks:       2,
		OutDir:       dir,
		Name:         "camp",
		Retries:      20, // the shard budget must survive the dead box's failures
		SlotFailures: 2,
		Stderr:       io.Discard,
		OnProgress:   col.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	if manifest.Jobs != 4 {
		t.Errorf("merged jobs = %d", manifest.Jobs)
	}
	retired := false
	for _, s := range col.all() {
		if s.Retired == 1 {
			retired = true
		}
	}
	if !retired {
		t.Error("no snapshot observed the dead slot's retirement")
	}
}

// TestRunAllSlotsRetiredFailsLoudly: when every slot is a dead box the
// campaign fails with the fleet-exhausted diagnosis rather than hanging.
func TestRunAllSlotsRetiredFailsLoudly(t *testing.T) {
	_, _, err := Run(context.Background(), fullSpec(), Options{
		Slots:        2,
		Blocks:       2,
		Worker:       stubWorker("exit 1"),
		OutDir:       t.TempDir(),
		Name:         "camp",
		Retries:      50,
		SlotFailures: 2,
		Stderr:       io.Discard,
	})
	if err == nil || !strings.Contains(err.Error(), "fleet exhausted") {
		t.Fatalf("err = %v, want fleet-exhausted failure", err)
	}
}

// TestRunDrainsOnCancel: cancelling the context mid-campaign kills the
// workers and returns the abort error instead of hanging or reporting a
// phantom worker failure.
func TestRunDrainsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(300 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := Run(ctx, fullSpec(), Options{
		Slots:  2,
		Blocks: 2,
		Worker: stubWorker(`printf '{"done":0,"total":2}\n'; exec sleep 60`),
		OutDir: t.TempDir(),
		Name:   "camp",
		Stderr: io.Discard,
	})
	if err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("err = %v, want campaign-aborted", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Errorf("drain took %v", elapsed)
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	if _, _, err := Run(context.Background(), fullSpec(), Options{Slots: 0}); err == nil {
		t.Error("zero slots should fail")
	}
	pinned := fullSpec()
	pinned.CellFirst, pinned.CellCount = 0, 1
	if _, _, err := Run(context.Background(), pinned, Options{Slots: 2, OutDir: t.TempDir()}); err == nil {
		t.Error("dispatching an already sharded spec should fail")
	}
}

func TestExpandWorkerAndArgs(t *testing.T) {
	got := expandWorker([]string{"ssh", "box{slot}", "--", "sweep{shard}"}, 3)
	want := []string{"ssh", "box3", "--", "sweep3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("expandWorker = %v, want %v", got, want)
		}
	}
	args := workerArgs("s.json", "out", "camp-b2", false)
	joined := strings.Join(args, " ")
	for _, want := range []string{"-spec s.json", "-name camp-b2", "-progress json", "-checkpoint", "-metrics "} {
		if !strings.Contains(joined, want) {
			t.Errorf("workerArgs %q lacks %q", joined, want)
		}
	}
	if strings.Contains(joined, "-resume") {
		t.Errorf("first attempt %q must not resume", joined)
	}
	if r := strings.Join(workerArgs("s.json", "out", "n", true), " "); !strings.Contains(r, "-resume") {
		t.Errorf("retry args %q lack -resume", r)
	}
}

func TestLineWriter(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	lw := &lineWriter{mu: &mu, w: &buf, prefix: "shard 7: "}
	lw.Write([]byte("partial"))
	if buf.Len() != 0 {
		t.Errorf("incomplete line flushed early: %q", buf.String())
	}
	lw.Write([]byte(" line\nsecond\n"))
	want := "shard 7: partial line\nshard 7: second\n"
	if buf.String() != want {
		t.Errorf("lineWriter output %q, want %q", buf.String(), want)
	}
}

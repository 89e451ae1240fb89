package main

import (
	"context"
	"encoding/json"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"wsncover/internal/sim"
	"wsncover/internal/sweepd"
	"wsncover/internal/telemetry"
)

// recordSpec is the campaign both paths run: 2 schemes x 2 spare counts,
// 3 replicates, on a pinned pool size the records must carry.
const recordSpec = `{"schemes":["SR","AR"],"grids":[{"cols":8,"rows":8}],"spares":[8,24],"replicates":3,"seed":5,"workers":2}`

// abortSpec runs for seconds uninterrupted (3,000 trials of 256x256),
// so a cancellation sent at its opening snapshot always lands mid-run.
const abortSpec = `{"schemes":["SR"],"grids":[{"cols":256,"rows":256}],"spares":[100,200,300],"replicates":1000,"seed":5,"workers":2}`

// sweepRecord runs cmd/sweep's run() over the spec JSON with extra
// flags and returns its one ledger record and run's error.
func sweepRecord(t *testing.T, spec string, extra ...string) (telemetry.Record, error) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	runErr := run(append([]string{"-spec", path, "-out", dir, "-name", "agree", "-metrics", "", "-quiet"}, extra...))
	recs, err := telemetry.ReadLedger(filepath.Join(dir, "ledger.ndjson"))
	if err != nil || len(recs) != 1 {
		t.Fatalf("cmd/sweep ledger = %+v, %v (run: %v); want one record", recs, err, runErr)
	}
	return recs[0], runErr
}

// newRecordDaemon starts a sweepd daemon over a fresh store in dir.
func newRecordDaemon(t *testing.T, dir string) (*sweepd.Daemon, *sweepd.Store) {
	t.Helper()
	store, err := sweepd.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sweepd.New(sweepd.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Drain)
	return d, store
}

// submitAndWait submits spec to d and waits for the campaign to end.
func submitAndWait(t *testing.T, d *sweepd.Daemon, spec string) sweepd.View {
	t.Helper()
	v, _, err := d.Submit([]byte(spec), "agree")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if !d.Wait(ctx, v.ID) {
		t.Fatalf("campaign %d never ended", v.ID)
	}
	v, _ = d.Campaign(v.ID)
	return v
}

// ledgerOf reads the store's ledger, which must hold want records.
func ledgerOf(t *testing.T, store *sweepd.Store, want int) []telemetry.Record {
	t.Helper()
	recs, err := telemetry.ReadLedger(store.LedgerPath())
	if err != nil || len(recs) != want {
		t.Fatalf("sweepd ledger = %+v, %v; want %d records", recs, err, want)
	}
	return recs
}

// specAndHash decodes a spec and returns it with the hash its ledger
// records carry: that of the spec as the job space normalized it.
func specAndHash(t *testing.T, specJSON string) (sim.CampaignSpec, string) {
	t.Helper()
	var spec sim.CampaignSpec
	if err := sim.UnmarshalSpecJSON([]byte(specJSON), &spec); err != nil {
		t.Fatal(err)
	}
	js, err := spec.JobSpace()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := telemetry.SpecHash(js.Spec())
	if err != nil {
		t.Fatal(err)
	}
	return spec, hash
}

// groupKeys is the sorted key set of a record's group spans.
func groupKeys(rec telemetry.Record) []string {
	keys := make([]string, 0, len(rec.GroupSeconds))
	for k := range rec.GroupSeconds {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// agree fails unless the two records match on every field the shared
// builder decides from the run alone.
func agree(t *testing.T, what string, a, b telemetry.Record) {
	t.Helper()
	if a.Status != b.Status || a.Jobs != b.Jobs || a.Points != b.Points ||
		a.Workers != b.Workers || a.SpecHash != b.SpecHash ||
		!slices.Equal(groupKeys(a), groupKeys(b)) {
		t.Errorf("%s: cmd/sweep and sweepd records disagree:\n%+v\n%+v", what, a, b)
	}
}

// TestRunRecordsAgree: the same spec run by cmd/sweep and by sweepd
// appends records that agree on status, jobs, points, workers, spec
// hash and the groups timed, whether the run completes or fails; both
// come from dispatch.RunRecord.
func TestRunRecordsAgree(t *testing.T) {
	_, hash := specAndHash(t, recordSpec)

	t.Run("completed", func(t *testing.T) {
		cli, err := sweepRecord(t, recordSpec)
		if err != nil {
			t.Fatal(err)
		}
		d, store := newRecordDaemon(t, t.TempDir())
		if v := submitAndWait(t, d, recordSpec); v.Status != sweepd.StatusCompleted {
			t.Fatalf("campaign = %+v, want completed", v)
		}
		srv := ledgerOf(t, store, 1)[0]
		agree(t, "completed", cli, srv)
		if cli.Status != telemetry.StatusCompleted || cli.Jobs != 12 || cli.Points != 4 ||
			cli.Workers != 2 || cli.SpecHash != hash || len(cli.GroupSeconds) != 2 {
			t.Errorf("completed record = %+v, want 12 jobs, 4 points, 2 workers, 2 groups, hash %s", cli, hash)
		}
		if cli.Mode != "run" || srv.Mode != "sweepd" || cli.Manifest == "" || srv.Manifest == "" {
			t.Errorf("records %+v and %+v lack their modes or manifests", cli, srv)
		}
	})

	// A cell store whose cells/ directory is a file fails the first
	// cell's append on either path, after the cell's three trials.
	t.Run("failed", func(t *testing.T) {
		storeDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(storeDir, "cells"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		cli, err := sweepRecord(t, recordSpec, "-store", storeDir)
		if err == nil {
			t.Fatal("cmd/sweep over a broken cell store succeeded")
		}
		dir := t.TempDir()
		d, store := newRecordDaemon(t, dir)
		if err := os.WriteFile(filepath.Join(dir, "cells"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if v := submitAndWait(t, d, recordSpec); v.Status != telemetry.StatusFailed || v.Error == "" {
			t.Fatalf("campaign = %+v, want failed with an error", v)
		}
		srv := ledgerOf(t, store, 1)[0]
		agree(t, "failed", cli, srv)
		if cli.Status != telemetry.StatusFailed || cli.Jobs != 3 || cli.Points != 0 ||
			cli.Manifest != "" || len(cli.GroupSeconds) != 1 {
			t.Errorf("failed record = %+v, want the 3 executed trials of one group, no points or manifest", cli)
		}
	})
}

// TestArtifactWriteFailureRecorded: a run whose artifacts cannot be
// written exits non-zero and still appends exactly one record, failed,
// credited with the trials it executed (SR and AR, 2 replicates) and
// naming the manifest when it was written: the manifest itself failing
// (its -out is a regular file), or a metric table after it (a directory
// stands where <out>/<name>-moves.csv goes). A failed ledger append (a
// -ledger path under a regular file) is the other way round: it is
// logged once and fails nothing, so the run exits 0 with its manifest
// and tables written and no record.
func TestArtifactWriteFailureRecorded(t *testing.T) {
	for _, tc := range []struct {
		name string
		// block puts a regular file or a directory at path.
		block string
		dir   bool
		// ledger is the -ledger path under the test directory.
		ledger   string
		fail     bool // the run exits non-zero, with one failed record
		manifest bool // the manifest is written
	}{
		{name: "manifest", block: "out", ledger: "L", fail: true},
		{name: "metric table", block: "out/sweep-moves.csv", dir: true, ledger: "L", fail: true, manifest: true},
		{name: "ledger append", block: "F", ledger: "F/L", manifest: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			out, ledger := filepath.Join(dir, "out"), filepath.Join(dir, tc.ledger)
			block := filepath.Join(dir, tc.block)
			var err error
			if tc.dir {
				err = os.MkdirAll(block, 0o755)
			} else {
				err = os.WriteFile(block, nil, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
			var runErr error
			logs := captureStderr(t, func() {
				runErr = run([]string{"-grids", "8x8", "-spares", "8", "-replicates", "2", "-out", out, "-ledger", ledger, "-quiet"})
			})
			if (runErr != nil) != tc.fail {
				t.Fatalf("run = %v, want failure %v", runErr, tc.fail)
			}
			manifest := filepath.Join(out, "sweep.json")
			if _, err := os.Stat(manifest); (err == nil) != tc.manifest {
				t.Errorf("manifest written = %v, want %v", err == nil, tc.manifest)
			}
			appendFailed := strings.Count(logs, "ledger append failed")
			if !tc.fail {
				if _, err := os.Stat(filepath.Join(out, "sweep-moves.csv")); err != nil {
					t.Errorf("tables not written: %v", err)
				}
				if _, err := os.Stat(ledger); err == nil || appendFailed != 1 {
					t.Errorf("ledger stat = %v, %d \"ledger append failed\" lines in %q; want no ledger and one line", err, appendFailed, logs)
				}
				return
			}
			if appendFailed != 0 {
				t.Errorf("log %q reports a failed append", logs)
			}
			recs, err := telemetry.ReadLedger(ledger)
			if err != nil || len(recs) != 1 {
				t.Fatalf("ledger = %+v, %v; want one record", recs, err)
			}
			wantPath := ""
			if tc.manifest {
				wantPath = manifest
			}
			if rec := recs[0]; rec.Status != telemetry.StatusFailed || rec.Jobs != 4 || rec.Points != 0 || rec.Manifest != wantPath {
				t.Errorf("record = %+v, want failed with the 4 executed trials, no points, manifest %q", rec, wantPath)
			}
		})
	}
}

// captureStderr runs fn with os.Stderr redirected to a file, and
// returns what fn wrote there.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stderr
	os.Stderr = f
	fn()
	os.Stderr = old
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestAbortedRunRecords: a run cancelled mid-way records itself aborted
// on both paths, credited with the trials it executed (its terminal
// progress snapshot's count) and timing the groups those trials
// belong to; a campaign the drain catches still queued records zero
// trials. When the cancellation lands is up to the scheduler, so the
// two paths' trial counts are each checked against their own run.
func TestAbortedRunRecords(t *testing.T) {
	spec, hash := specAndHash(t, abortSpec)
	// A stray interrupt (one landing after the run stopped listening)
	// must not kill the test binary.
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, os.Interrupt)
	defer signal.Stop(guard)

	// cmd/sweep: one SIGINT at the opening snapshot drains the run.
	var hub *telemetry.Hub
	dashNotify = func(_ string, h *telemetry.Hub) {
		hub = h
		sub := h.Subscribe()
		go func() {
			if _, ok := <-sub.Events(); !ok {
				return
			}
			self, err := os.FindProcess(os.Getpid())
			if err == nil {
				err = self.Signal(os.Interrupt)
			}
			if err != nil {
				t.Errorf("interrupting the run: %v", err)
			}
		}()
	}
	defer func() { dashNotify = nil }()
	cli, err := sweepRecord(t, abortSpec, "-dash", "127.0.0.1:0")
	if err == nil {
		t.Fatal("interrupted cmd/sweep run succeeded")
	}
	checkAborted(t, "cmd/sweep", cli, hub.Last(), hash)

	// sweepd: a drain at the opening snapshot aborts the running
	// campaign and the one queued behind it.
	d, store := newRecordDaemon(t, t.TempDir())
	running, _, err := d.Submit([]byte(abortSpec), "agree")
	if err != nil {
		t.Fatal(err)
	}
	runHub, _ := d.Hub(running.ID)
	sub := runHub.Subscribe()
	queued := spec
	queued.BaseSeed++
	if _, _, err := d.Submit(mustSpecJSON(t, queued), "queued"); err != nil {
		t.Fatal(err)
	}
	<-sub.Events()
	d.Drain()
	recs := ledgerOf(t, store, 2)
	checkAborted(t, "sweepd", recs[0], runHub.Last(), hash)
	if q := recs[1]; q.Status != telemetry.StatusAborted || q.Jobs != 0 || q.Points != 0 ||
		q.Workers != 2 || q.GroupSeconds != nil || q.WallS != 0 || q.Name != "queued" {
		t.Errorf("queued campaign's record = %+v, want aborted with nothing run", q)
	}
}

// checkAborted holds an aborted record to the run's terminal snapshot.
func checkAborted(t *testing.T, path string, rec telemetry.Record, last []byte, hash string) {
	t.Helper()
	var snap telemetry.Snapshot
	if err := json.Unmarshal(last, &snap); err != nil || !snap.Final {
		t.Fatalf("%s: terminal snapshot %s (%v)", path, last, err)
	}
	var timed []string
	for _, g := range snap.Groups {
		if g.Done > 0 {
			timed = append(timed, g.Group)
		}
	}
	if rec.Status != telemetry.StatusAborted || rec.Jobs != snap.Progress.Done ||
		rec.Jobs >= snap.Progress.Total || rec.Points != 0 || rec.Manifest != "" ||
		rec.Workers != 2 || rec.SpecHash != hash || !slices.Equal(groupKeys(rec), timed) {
		t.Errorf("%s: aborted record = %+v, want aborted, %d of %d trials, groups %v, hash %s",
			path, rec, snap.Progress.Done, snap.Progress.Total, timed, hash)
	}
}

func mustSpecJSON(t *testing.T, spec sim.CampaignSpec) []byte {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

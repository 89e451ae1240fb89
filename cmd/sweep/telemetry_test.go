package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wsncover/internal/experiment"
	"wsncover/internal/sim"
	"wsncover/internal/telemetry"
)

// TestDashAcceptance is the dashboard's end-to-end scenario: a run
// with -dash serves /healthz, streams at least one SSE event whose
// terminal done/total matches the manifest's job count, and appends
// exactly one ledger record whose spec hash reproduces from the
// manifest's embedded spec.
func TestDashAcceptance(t *testing.T) {
	dir := t.TempDir()

	type sseResult struct {
		snaps []telemetry.Snapshot
		err   error
	}
	sseCh := make(chan sseResult, 1)
	var healthErr error
	dashNotify = func(addr string, hub *telemetry.Hub) {
		// The hook runs after the server binds and before the campaign
		// starts, so both probes observe a live, still-empty dashboard.
		resp, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			healthErr = err
		} else {
			if resp.StatusCode != http.StatusOK {
				healthErr = fmt.Errorf("healthz status %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
		// The stream's headers arrive once the server has subscribed it,
		// so no event of the run can slip past it.
		stream, err := http.Get("http://" + addr + "/events")
		if err != nil {
			sseCh <- sseResult{err: err}
			return
		}
		go func() {
			var res sseResult
			defer stream.Body.Close()
			sc := bufio.NewScanner(stream.Body)
			sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
			for sc.Scan() {
				payload, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "data: ")
				if !ok {
					continue
				}
				var s telemetry.Snapshot
				if err := json.Unmarshal([]byte(payload), &s); err != nil {
					res.err = fmt.Errorf("bad SSE payload %q: %w", payload, err)
					break
				}
				res.snaps = append(res.snaps, s)
			}
			sseCh <- res
		}()
	}
	defer func() { dashNotify = nil }()

	if err := run([]string{
		"-schemes", "SR,AR", "-grids", "8x8",
		"-spares", "8,24", "-replicates", "4", "-seed", "13",
		"-out", dir, "-name", "dash", "-metrics", "", "-quiet",
		"-dash", "127.0.0.1:0",
	}); err != nil {
		t.Fatal(err)
	}
	if healthErr != nil {
		t.Fatalf("healthz during the run: %v", healthErr)
	}
	// run() closed the server on the way out, which ends the SSE stream
	// after draining — the reader goroutine finishes on its own.
	var res sseResult
	select {
	case res = <-sseCh:
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream never ended after the dashboard closed")
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	if len(res.snaps) == 0 {
		t.Fatal("no SSE events streamed during the run")
	}

	data, err := os.ReadFile(filepath.Join(dir, "dash.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m experiment.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	last := res.snaps[len(res.snaps)-1]
	if !last.Final {
		t.Errorf("last SSE event %+v is not final", last)
	}
	if last.Progress.Done != m.Jobs || last.Progress.Total != m.Jobs {
		t.Errorf("terminal SSE event %d/%d, want %d/%d (the manifest's job count)",
			last.Progress.Done, last.Progress.Total, m.Jobs, m.Jobs)
	}

	// Exactly one ledger record, and its spec hash reproduces from the
	// spec the manifest embeds.
	recs, err := telemetry.ReadLedger(filepath.Join(dir, "ledger.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("ledger has %d records, want exactly 1:\n%+v", len(recs), recs)
	}
	rec := recs[0]
	if rec.Mode != "run" || rec.Jobs != m.Jobs {
		t.Errorf("ledger record = %+v, want mode run, %d jobs", rec, m.Jobs)
	}
	if rec.Status != telemetry.StatusCompleted {
		t.Errorf("ledger record status = %q, want completed", rec.Status)
	}
	var spec sim.CampaignSpec
	if err := json.Unmarshal(m.Spec, &spec); err != nil {
		t.Fatal(err)
	}
	hash, err := telemetry.SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SpecHash != hash {
		t.Errorf("ledger spec hash %s, but re-marshaling the manifest's spec hashes to %s", rec.SpecHash, hash)
	}
}

// TestDashboardDoesNotPerturbManifests is the differential guarantee:
// telemetry only observes. The same campaign run with a live dashboard
// and a ledger writes a byte-identical manifest to one run dark.
func TestDashboardDoesNotPerturbManifests(t *testing.T) {
	dim := []string{
		"-schemes", "SR", "-grids", "8x8", "-spares", "8,24",
		"-replicates", "3", "-seed", "7", "-metrics", "", "-quiet",
	}
	dashDir, darkDir := t.TempDir(), t.TempDir()
	if err := run(append([]string{
		"-out", dashDir, "-name", "camp", "-dash", "127.0.0.1:0",
	}, dim...)); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{
		"-out", darkDir, "-name", "camp", "-ledger", "none",
	}, dim...)); err != nil {
		t.Fatal(err)
	}
	instrumented, err := os.ReadFile(filepath.Join(dashDir, "camp.json"))
	if err != nil {
		t.Fatal(err)
	}
	dark, err := os.ReadFile(filepath.Join(darkDir, "camp.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(instrumented, dark) {
		t.Errorf("dashboard+ledger run perturbed the manifest:\n%s\nvs\n%s", instrumented, dark)
	}
	// The instrumented single-process run ledgers as mode "run" with its
	// per-group wall spans; the dark run wrote no ledger at all.
	recs, err := telemetry.ReadLedger(filepath.Join(dashDir, "ledger.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Mode != "run" {
		t.Fatalf("instrumented ledger = %+v, want one mode-run record", recs)
	}
	if len(recs[0].GroupSeconds) == 0 {
		t.Error("ledger record lacks per-group wall spans")
	}
	if _, err := os.Stat(filepath.Join(darkDir, "ledger.ndjson")); !os.IsNotExist(err) {
		t.Errorf("-ledger none still wrote a ledger (stat err %v)", err)
	}
}

// TestDashAddrFile: WSNSWEEP_DASH_ADDR_FILE publishes the bound address
// for ":0" runs — the hook the CI smoke test reads the port from.
func TestDashAddrFile(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "addr")
	t.Setenv(dashAddrFileEnv, addrFile)
	dir := t.TempDir()
	var notified string
	dashNotify = func(addr string, hub *telemetry.Hub) { notified = addr }
	defer func() { dashNotify = nil }()
	if err := run([]string{
		"-schemes", "SR", "-grids", "8x8", "-spares", "8",
		"-replicates", "2", "-seed", "3", "-out", dir, "-name", "a",
		"-metrics", "", "-quiet", "-dash", "127.0.0.1:0", "-ledger", "none",
	}); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(addrFile)
	if err != nil {
		t.Fatal(err)
	}
	if string(written) != notified || notified == "" || strings.HasSuffix(notified, ":0") {
		t.Errorf("addr file %q vs notified %q, want the real bound port", written, notified)
	}
}

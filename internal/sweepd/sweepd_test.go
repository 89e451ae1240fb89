package sweepd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wsncover/internal/experiment"
	"wsncover/internal/sim"
	"wsncover/internal/telemetry"
)

// smallSpec is a campaign quick enough for request/response tests.
func smallSpec() sim.CampaignSpec {
	return sim.CampaignSpec{
		Schemes:    []sim.SchemeKind{sim.SR},
		Grids:      []sim.GridSize{{Cols: 8, Rows: 8}},
		Spares:     []int{4, 8},
		Replicates: 2,
		BaseSeed:   11,
	}
}

// multiCellSpec has several (group, N) cells, so a run held mid-way by
// testTrialHook has some cells stored and some outstanding:
// 2 schemes x 3 spares = 6 cells of 4 replicates, 24 trials. Workers
// is pinned to 1 so the single engine worker stops at the very trial
// the hook blocks on — no other goroutine can run ahead.
func multiCellSpec() sim.CampaignSpec {
	return sim.CampaignSpec{
		Schemes:    []sim.SchemeKind{sim.SR, sim.AR},
		Grids:      []sim.GridSize{{Cols: 12, Rows: 12}},
		Spares:     []int{5, 10, 15},
		Replicates: 4,
		BaseSeed:   2008,
		Workers:    1,
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// newTestDaemon builds a daemon over a temp store and registers
// cleanup; opts.Store is filled in.
func newTestDaemon(t *testing.T, opts Options) (*Daemon, *Store) {
	t.Helper()
	store, err := OpenStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = store
	d, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Drain)
	return d, store
}

// postSpec submits a spec and decodes the campaign view.
func postSpec(t *testing.T, ts *httptest.Server, spec sim.CampaignSpec, name string) (View, int) {
	t.Helper()
	url := ts.URL + "/api/v1/campaigns"
	if name != "" {
		url += "?name=" + name
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(mustJSON(t, spec)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding submit response (status %d): %v", resp.StatusCode, err)
	}
	return v, resp.StatusCode
}

// getJSON fetches a URL and decodes its JSON body into out.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s (status %d): %v", url, resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

// waitStatus polls a campaign until it reaches want (or any terminal
// status, which then fails the test if it is not want).
func waitStatus(t *testing.T, ts *httptest.Server, id int, want string) View {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var v View
		getJSON(t, fmt.Sprintf("%s/api/v1/campaigns/%d", ts.URL, id), &v)
		if v.Status == want {
			return v
		}
		switch v.Status {
		case StatusCompleted, telemetry.StatusFailed, telemetry.StatusAborted, StatusCached:
			t.Fatalf("campaign %d ended %q (err %q), want %q", id, v.Status, v.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("campaign %d never reached %q", id, want)
	return View{}
}

// referenceManifest runs the campaign in-process the way cmd/sweep
// does and serializes the manifest — the byte-level oracle stored
// manifests must match.
func referenceManifest(t testing.TB, spec sim.CampaignSpec, name string) []byte {
	t.Helper()
	spec = spec.Normalized()
	acc := experiment.NewAccumulator()
	err := sim.RunCampaignStream(context.Background(), spec, experiment.Options{Workers: spec.Workers},
		func(_ sim.TrialJob, s experiment.Sample) error {
			acc.Add(s)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	m, err := experiment.NewManifest(name, spec, spec.NumJobs(), spec.Workers, acc.Points())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	d, _ := newTestDaemon(t, Options{})
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"not json":      "{",
		"unknown field": `{"schemes":["SR"],"turbo":true}`,
		"shard pinned":  `{"replicates":10,"cell_first":0,"cell_count":1}`,
		"old shard":     `{"replicates":10,"shard_first":0,"shard_count":1}`,
		"bad workload":  `{"workloads":[{"kind":"earthquake"}]}`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if _, _, err := d.Submit([]byte(`{"replicates":10,"cell_first":0,"cell_count":1}`), ""); !errors.Is(err, ErrBadSpec) {
		t.Errorf("Submit(shard spec) = %v, want ErrBadSpec", err)
	}
}

// TestSubmitRejectsOutOfRangeSpecs: a spec with a value no trial can
// run is a 400 at submission. Before validation checked ranges, each of
// these was accepted and then panicked the daemon's runner goroutine or
// a worker (a negative replicate count in the seed derivation, a
// negative AR hop budget in the AR controller); the daemon must still
// answer afterwards. A bad value in any cell counts, not only in the
// first grid and spare count. So does a size over the campaign limits,
// which would otherwise have the daemon allocate a seed per requested
// replicate, or build worlds of that many cells or spares.
func TestSubmitRejectsOutOfRangeSpecs(t *testing.T) {
	d, _ := newTestDaemon(t, Options{})
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"replicates":-1}`,
		`{"schemes":["AR"],"ar_max_hops":-4}`,
		`{"schemes":["AR"],"ar_init_prob":1.5}`,
		`{"holes":[0,1]}`,
		`{"comm_range":-3}`,
		`{"spares":[10,-5]}`,
		`{"grids":[{"cols":8,"rows":8},{"cols":1,"rows":1}]}`,
		// Sizes over the campaign limits fail before anything is
		// allocated for them.
		`{"replicates":1000000000}`,
		`{"spares":[1000000000]}`,
		`{"grids":[{"cols":100000,"rows":100000}]}`,
		// So is a workload scheduling more events than the limit,
		// alone or composed.
		`{"workloads":[{"kind":"churn","waves":1000000000}]}`,
		`{"workloads":[{"kind":"overlay","children":[{"kind":"churn","waves":3000},{"kind":"churn","waves":3000}]}]}`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
		if _, _, err := d.Submit([]byte(body), ""); !errors.Is(err, ErrBadSpec) {
			t.Errorf("Submit(%s) = %v, want ErrBadSpec", body, err)
		}
	}
	if got := d.Campaigns(); len(got) != 0 {
		t.Errorf("rejected submissions registered %d campaigns", len(got))
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz after the rejected submissions = %d", code)
	}
}

// TestSubmitRejectsSchemeConflicts: a spec whose workload installs
// knobs one of its schemes refuses (byzantine monitors or a lossy radio
// on AR, even inside a combinator) is a bad spec at submission, named
// in the error, and queues nothing — it must not be accepted and then
// fail mid-campaign.
func TestSubmitRejectsSchemeConflicts(t *testing.T) {
	d, _ := newTestDaemon(t, Options{})
	for _, wl := range []sim.WorkloadSpec{
		{Kind: sim.WorkloadByzantine},
		{Kind: sim.WorkloadLossy},
		{Kind: sim.WorkloadOverlay, Children: []sim.WorkloadSpec{{Kind: sim.WorkloadByzantine}}},
	} {
		spec := smallSpec()
		spec.Schemes = []sim.SchemeKind{sim.SR, sim.AR}
		spec.Workloads = []sim.WorkloadSpec{wl}
		_, created, err := d.Submit(mustJSON(t, spec), "")
		if !errors.Is(err, ErrBadSpec) || created {
			t.Errorf("%s on SR,AR: Submit = created %v, %v; want ErrBadSpec", wl, created, err)
			continue
		}
		if !strings.Contains(err.Error(), wl.Kind) || !strings.Contains(err.Error(), "scheme AR") {
			t.Errorf("%s on SR,AR: error %q does not name the workload and the scheme", wl, err)
		}
	}
	if got := d.Campaigns(); len(got) != 0 {
		t.Errorf("rejected submissions registered %d campaigns", len(got))
	}
	if n := len(d.queue); n != 0 {
		t.Errorf("rejected submissions queued %d campaigns", n)
	}
}

// TestTerminalCampaignsBounded: cache hits register terminal campaigns;
// the daemon keeps at most maxTerminalCampaigns of them, dropping the
// one that ended longest ago (its ID answers 404) while the newest
// still polls.
func TestTerminalCampaignsBounded(t *testing.T) {
	d, _ := newTestDaemon(t, Options{})
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	body := mustJSON(t, smallSpec())
	first, created, err := d.Submit(body, "cold")
	if err != nil || !created {
		t.Fatalf("cold submission: created %v, %v", created, err)
	}
	waitStatus(t, ts, first.ID, StatusCompleted)
	var last View
	for i := 0; i < maxTerminalCampaigns+8; i++ {
		if last, _, err = d.Submit(body, "hit"); err != nil || last.Status != StatusCached {
			t.Fatalf("hit %d: %+v, %v", i, last, err)
		}
	}
	if got := len(d.Campaigns()); got > maxTerminalCampaigns {
		t.Errorf("daemon keeps %d campaigns after %d hits, want at most %d",
			got, maxTerminalCampaigns+8, maxTerminalCampaigns)
	}
	if code := getJSON(t, fmt.Sprintf("%s/api/v1/campaigns/%d", ts.URL, first.ID), nil); code != http.StatusNotFound {
		t.Errorf("evicted campaign %d: GET status %d, want 404", first.ID, code)
	}
	var v View
	if code := getJSON(t, fmt.Sprintf("%s/api/v1/campaigns/%d", ts.URL, last.ID), &v); code != http.StatusOK || v.Status != StatusCached {
		t.Errorf("newest campaign %d: GET status %d, view %+v", last.ID, code, v)
	}
}

// TestSubmitUnknownWorkloadNamesKind pins the 400 body: a spec naming
// an unknown workload kind is refused with an error that echoes the
// kind and lists the known ones, so the caller can see which
// entry was wrong without consulting the server's source.
func TestSubmitUnknownWorkloadNamesKind(t *testing.T) {
	d, _ := newTestDaemon(t, Options{})
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/api/v1/campaigns", "application/json",
		strings.NewReader(`{"schemes":["SR"],"workloads":[{"kind":"meteor"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.Error, `"meteor"`) {
		t.Errorf("error body %q does not name the unknown kind", body.Error)
	}
	if !strings.Contains(body.Error, "registered:") {
		t.Errorf("error body %q does not list the registered kinds", body.Error)
	}
}

// TestServiceEndToEnd drives the whole happy path over HTTP: submit,
// stream progress, fetch the stored manifest, verify it byte-matches a
// direct in-process run, then prove the second submission — including
// one with a different worker count — is served from the store without
// executing a trial.
func TestServiceEndToEnd(t *testing.T) {
	d, store := newTestDaemon(t, Options{})
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	if code := getJSON(t, ts.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != 200 {
		t.Fatalf("readyz = %d", code)
	}

	spec := smallSpec()
	v, code := postSpec(t, ts, spec, "e2e")
	if code != http.StatusAccepted {
		t.Fatalf("first submission: status %d, want 202", code)
	}
	if v.ID == 0 || v.SpecHash == "" || v.Name != "e2e" {
		t.Fatalf("submission view = %+v", v)
	}

	// Stream the NDJSON progress feed until the hub closes; the stream
	// must deliver at least one frame and end on a final snapshot with
	// done == total. (A fast campaign may close the hub before we
	// connect — the late-joiner fallback still serves the final frame.)
	resp, err := http.Get(fmt.Sprintf("%s/api/v1/campaigns/%d/events?format=ndjson", ts.URL, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	var frames []telemetry.Snapshot
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var snap telemetry.Snapshot
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			t.Fatalf("bad NDJSON frame %q: %v", sc.Text(), err)
		}
		frames = append(frames, snap)
	}
	resp.Body.Close()
	if len(frames) == 0 {
		t.Fatal("event stream delivered no frames")
	}
	last := frames[len(frames)-1]
	if !last.Final || last.Progress.Done != last.Progress.Total || last.Progress.Total != spec.NumJobs() {
		t.Fatalf("last frame = %+v, want final with done == total == %d", last, spec.NumJobs())
	}

	done := waitStatus(t, ts, v.ID, StatusCompleted)
	if done.Manifest == "" || done.ManifestURL == "" {
		t.Fatalf("completed view = %+v, want manifest paths", done)
	}

	// The served manifest must byte-match both the stored file and a
	// direct in-process run of the same campaign — the differential
	// guarantee that makes the store a cache.
	httpResp, err := http.Get(ts.URL + done.ManifestURL)
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if err != nil || httpResp.StatusCode != 200 {
		t.Fatalf("GET manifest: status %d, err %v", httpResp.StatusCode, err)
	}
	stored, err := os.ReadFile(done.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, stored) {
		t.Error("served manifest differs from the stored file")
	}
	if ref := referenceManifest(t, spec, "e2e"); !bytes.Equal(stored, ref) {
		t.Error("stored manifest is not byte-identical to a direct in-process run")
	}

	// SSE flavor: a late joiner still sees the final frame.
	sseResp, err := http.Get(fmt.Sprintf("%s/api/v1/campaigns/%d/events", ts.URL, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	sse, _ := io.ReadAll(sseResp.Body)
	sseResp.Body.Close()
	if !strings.Contains(string(sse), "data: {") || !strings.Contains(string(sse), `"final":true`) {
		t.Errorf("SSE replay = %q, want a final data frame", sse)
	}

	// Second submission of the identical spec: served from the store,
	// no trials run, still exactly one run record in the ledger.
	v2, code := postSpec(t, ts, spec, "e2e")
	if code != http.StatusOK || !v2.Cached || v2.Status != StatusCached {
		t.Fatalf("duplicate submission = %+v (status %d), want a cache hit", v2, code)
	}
	if v2.ID == v.ID {
		t.Error("cache hit should register its own campaign identity")
	}
	// A different worker count is execution detail, not science: same
	// hash, same cache entry.
	reworked := spec
	reworked.Workers = 4
	v3, code := postSpec(t, ts, reworked, "e2e-w4")
	if code != http.StatusOK || !v3.Cached || v3.SpecHash != v.SpecHash {
		t.Fatalf("workers=4 submission = %+v (status %d), want the same cache entry", v3, code)
	}
	recs, err := telemetry.ReadLedger(store.LedgerPath())
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, r := range recs {
		if r.Mode == "sweepd" && r.Status == telemetry.StatusCompleted {
			ran++
		}
	}
	if ran != 1 || len(recs) != 1 {
		t.Errorf("ledger has %d records (%d completed), want exactly 1", len(recs), ran)
	}

	// The cached campaign's event stream ends cleanly and empty.
	evResp, err := http.Get(fmt.Sprintf("%s/api/v1/campaigns/%d/events?format=ndjson", ts.URL, v2.ID))
	if err != nil {
		t.Fatal(err)
	}
	evBody, _ := io.ReadAll(evResp.Body)
	evResp.Body.Close()
	if len(bytes.TrimSpace(evBody)) != 0 {
		t.Errorf("cached campaign event stream = %q, want empty", evBody)
	}

	// Store listing and the self-diff both ride the same store.
	var entries []Entry
	getJSON(t, ts.URL+"/api/v1/manifests", &entries)
	if len(entries) != 1 || entries[0].SpecHash != v.SpecHash || entries[0].Record == nil {
		t.Errorf("manifest listing = %+v", entries)
	}
	var diff struct {
		Equivalent  bool     `json:"equivalent"`
		Differences []string `json:"differences"`
	}
	short := strings.TrimPrefix(v.SpecHash, "sha256:")[:12]
	getJSON(t, ts.URL+"/api/v1/diff?a="+v.SpecHash+"&b="+short, &diff)
	if !diff.Equivalent {
		t.Errorf("self-diff = %+v, want equivalent", diff)
	}

	var all []View
	getJSON(t, ts.URL+"/api/v1/campaigns", &all)
	if len(all) != 3 {
		t.Errorf("campaign list has %d entries, want 3", len(all))
	}
	if code := getJSON(t, ts.URL+"/api/v1/campaigns/999", nil); code != 404 {
		t.Errorf("unknown campaign = %d, want 404", code)
	}
}

// TestDrainAbortsAndResumes exercises the production shutdown path: a
// drain mid-campaign leaves honest aborted ledger records (the running
// campaign and the queued one) and refuses new submissions, and the
// resubmission on a fresh daemon over the same store reuses the cells
// completed before the drain instead of starting over — finishing with
// a manifest byte-identical to an uninterrupted run.
func TestDrainAbortsAndResumes(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")
	store, err := OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Options{Store: store, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Drain)
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	// Hold the campaign after its 8th trial — two of six cells complete
	// and stored — until the drain cancels the daemon context.
	// Campaigns run far too fast (tens of milliseconds) for wall-clock
	// racing; the hook makes the mid-run window deterministic.
	held := make(chan struct{})
	testTrialHook = func(_ *Campaign, ran int) {
		if ran == 8 {
			close(held)
			<-d.ctx.Done()
		}
	}
	t.Cleanup(func() { testTrialHook = nil })

	spec := multiCellSpec()
	v, code := postSpec(t, ts, spec, "drainee")
	if code != http.StatusAccepted {
		t.Fatalf("submission: status %d", code)
	}
	<-held

	// With the runner held mid-campaign, a second campaign fills the
	// depth-1 queue and a third bounces with 429.
	queued, code := postSpec(t, ts, smallSpec(), "queued")
	if code != http.StatusAccepted || queued.Status != StatusQueued {
		t.Fatalf("queued submission = %+v (status %d)", queued, code)
	}
	third := smallSpec()
	third.BaseSeed = 999
	if _, code := postSpec(t, ts, third, "bounced"); code != http.StatusTooManyRequests {
		t.Fatalf("third submission: status %d, want 429", code)
	}

	d.Drain()

	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("readyz while drained = %d, want 503", code)
	}
	if _, code := postSpec(t, ts, third, "refused"); code != http.StatusServiceUnavailable {
		t.Errorf("submission while drained: status %d, want 503", code)
	}
	var aborted View
	getJSON(t, fmt.Sprintf("%s/api/v1/campaigns/%d", ts.URL, v.ID), &aborted)
	if aborted.Status != telemetry.StatusAborted {
		t.Fatalf("drained campaign status = %q, want aborted", aborted.Status)
	}
	var neverRan View
	getJSON(t, fmt.Sprintf("%s/api/v1/campaigns/%d", ts.URL, queued.ID), &neverRan)
	if neverRan.Status != telemetry.StatusAborted {
		t.Fatalf("queued campaign status = %q, want aborted", neverRan.Status)
	}

	recs, err := telemetry.ReadLedger(store.LedgerPath())
	if err != nil {
		t.Fatal(err)
	}
	abortedRecs := 0
	for _, r := range recs {
		if r.Status == telemetry.StatusAborted {
			abortedRecs++
		}
	}
	if abortedRecs != 2 {
		t.Fatalf("ledger has %d aborted records, want 2 (running + queued): %+v", abortedRecs, recs)
	}

	// The store holds exactly the two cells the hook allowed: a strict
	// prefix of the campaign.
	if n := storedLines(t, store); n != 2 {
		t.Fatalf("store holds %d cells after the drain, want the 2 the hook admitted", n)
	}

	// A fresh daemon over the same store resumes: the campaign's event
	// total is only the remaining work, and the finished manifest is
	// byte-identical to an uninterrupted run. The hook must not carry
	// over — the resumed run re-crosses ran == 8.
	testTrialHook = nil
	d2, err := New(Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Drain()
	ts2 := httptest.NewServer(d2.Handler())
	defer ts2.Close()
	v2, code := postSpec(t, ts2, spec, "drainee")
	if code != http.StatusAccepted {
		t.Fatalf("resubmission: status %d", code)
	}
	finished := waitStatus(t, ts2, v2.ID, StatusCompleted)

	evResp, err := http.Get(fmt.Sprintf("%s/api/v1/campaigns/%d/events?format=ndjson", ts2.URL, v2.ID))
	if err != nil {
		t.Fatal(err)
	}
	evData, _ := io.ReadAll(evResp.Body)
	evResp.Body.Close()
	lines := bytes.Split(bytes.TrimSpace(evData), []byte("\n"))
	var lastSnap telemetry.Snapshot
	if err := json.Unmarshal(lines[len(lines)-1], &lastSnap); err != nil {
		t.Fatalf("last event frame %q: %v", lines[len(lines)-1], err)
	}
	if want := spec.NumJobs() - 8; lastSnap.Progress.Total != want {
		t.Errorf("resumed run's total = %d, want %d (stored cells skipped)",
			lastSnap.Progress.Total, want)
	}

	stored, err := os.ReadFile(finished.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	if ref := referenceManifest(t, spec, "drainee"); !bytes.Equal(stored, ref) {
		t.Error("resumed manifest is not byte-identical to an uninterrupted run")
	}
	if n := storedLines(t, store); n != numCells(spec) {
		t.Errorf("store holds %d cells after the resubmission, want each of the %d once", n, numCells(spec))
	}
}

// storedLines counts the cell lines in every segment of store.
func storedLines(t *testing.T, store *Store) int {
	t.Helper()
	n := 0
	for _, path := range segmentPaths(t, store) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		n += bytes.Count(data, []byte("\n"))
	}
	return n
}

// TestCheckpointLogVetting: an in-process campaign reuses the cells
// another writer's segment holds only when they verify as its own: a
// segment of a campaign with another seed serves nothing, and a segment
// torn in its last line serves every cell but that one. Either way the
// stored manifest is byte-identical to a cold run.
func TestCheckpointLogVetting(t *testing.T) {
	spec, other := smallSpec(), smallSpec()
	other.BaseSeed++
	cold := referenceManifest(t, spec, "vet")
	own := cellSegment(t, spec)
	for _, tc := range []struct {
		name    string
		seg     []byte
		wantRan int
	}{
		{"foreign spec", cellSegment(t, other), 4},
		{"torn last line", own[:len(own)-7], 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, _ := daemonWithSegments(t, map[string][]byte{"dead.ndjson": tc.seg})
			stored, ran := submitCounted(t, d, spec, "vet")
			if !bytes.Equal(stored, cold) {
				t.Error("stored manifest differs from a cold run")
			}
			if ran != tc.wantRan {
				t.Errorf("campaign ran %d trials, want %d", ran, tc.wantRan)
			}
		})
	}
}

// TestSubmitCoalescesInflight pins the dedupe between queue and cache:
// an identical spec submitted while the first is queued or running
// coalesces onto it instead of double-executing.
func TestSubmitCoalescesInflight(t *testing.T) {
	// Hold the first campaign after its first trial so the duplicate
	// submission provably arrives while it is in flight.
	started := make(chan struct{})
	gate := make(chan struct{})
	var release sync.Once
	testTrialHook = func(_ *Campaign, ran int) {
		if ran == 1 {
			close(started)
			<-gate
		}
	}
	t.Cleanup(func() { testTrialHook = nil })

	d, _ := newTestDaemon(t, Options{})
	t.Cleanup(func() { release.Do(func() { close(gate) }) })
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	spec := smallSpec()
	v1, code1 := postSpec(t, ts, spec, "first")
	if code1 != http.StatusAccepted {
		t.Fatalf("first submission: %d", code1)
	}
	<-started
	v2, code2 := postSpec(t, ts, spec, "second")
	if code2 != http.StatusOK || v2.ID != v1.ID {
		t.Fatalf("second submission = id %d status %d, want coalesced onto id %d with 200",
			v2.ID, code2, v1.ID)
	}
	release.Do(func() { close(gate) })
	waitStatus(t, ts, v1.ID, StatusCompleted)
}

func TestNewValidatesOptions(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("nil store must be rejected")
	}
}

// TestCompletedCampaignLeavesNoRunDir: a completed campaign leaves the
// store with its manifest, one segment holding each of its cells once,
// and no per-campaign working directory; the ledger's point count comes
// from the manifest.
func TestCompletedCampaignLeavesNoRunDir(t *testing.T) {
	t.Run("in-process", func(t *testing.T) {
		d, store := newTestDaemon(t, Options{})
		v, created, err := d.Submit(mustJSON(t, multiCellSpec()), "leak")
		if err != nil || !created {
			t.Fatalf("Submit = %+v, %v, %v", v, created, err)
		}
		if !d.Wait(context.Background(), v.ID) {
			t.Fatal("campaign never finished")
		}
		done, _ := d.Campaign(v.ID)
		if done.Status != StatusCompleted {
			t.Fatalf("status %q (%s), want completed", done.Status, done.Error)
		}
		entries, err := os.ReadDir(store.Dir())
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if strings.Join(names, " ") != "cells ledger.ndjson manifests" {
			t.Errorf("store holds %v, want only cells, ledger.ndjson and manifests", names)
		}
		if n := len(segmentPaths(t, store)); n != 1 || storedLines(t, store) != 6 {
			t.Errorf("store holds %d segments with %d cells, want 1 with 6", n, storedLines(t, store))
		}
		var m experiment.Manifest
		data, err := os.ReadFile(done.Manifest)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		recs, err := telemetry.ReadLedger(store.LedgerPath())
		if err != nil || len(recs) != 1 {
			t.Fatalf("ledger = %+v, %v; want one record", recs, err)
		}
		if recs[0].Points != len(m.Points) || recs[0].Points != 6 {
			t.Errorf("ledger Points = %d, manifest has %d, want 6", recs[0].Points, len(m.Points))
		}
	})
}

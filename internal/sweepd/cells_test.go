package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"wsncover/internal/sim"
	"wsncover/internal/telemetry"
)

// submitCounted submits spec to d, waits for it to complete, and
// returns the stored manifest's bytes and the number of trials the run
// executed, as testTrialHook counts them.
func submitCounted(t *testing.T, d *Daemon, spec sim.CampaignSpec, name string) ([]byte, int) {
	t.Helper()
	var mu sync.Mutex
	ran := 0
	testTrialHook = func(_ *Campaign, n int) {
		mu.Lock()
		defer mu.Unlock()
		ran = max(ran, n)
	}
	defer func() { testTrialHook = nil }()
	v, created, err := d.Submit(mustJSON(t, spec), name)
	if err != nil || !created {
		t.Fatalf("Submit(%s) = %+v, created %v, %v; want a new run", name, v, created, err)
	}
	if !d.Wait(context.Background(), v.ID) {
		t.Fatalf("campaign %s never finished", name)
	}
	done, _ := d.Campaign(v.ID)
	if done.Status != StatusCompleted {
		t.Fatalf("campaign %s ended %q (%s), want completed", name, done.Status, done.Error)
	}
	data, err := os.ReadFile(done.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	return data, ran
}

// widen returns spec with extra spare counts appended.
func widen(spec sim.CampaignSpec, extra ...int) sim.CampaignSpec {
	spec.Spares = append(append([]int(nil), spec.Spares...), extra...)
	return spec
}

// syncBuffer is a log sink safe to read while a runner writes to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// segmentPaths lists the segment files of a store's cells/.
func segmentPaths(t testing.TB, store *Store) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(store.Dir(), "cells", "*.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// cellSegment runs spec on a daemon over a fresh store and returns the
// one segment it wrote: one line per cell, in job order.
func cellSegment(t *testing.T, spec sim.CampaignSpec) []byte {
	t.Helper()
	d, store := newTestDaemon(t, Options{})
	submitCounted(t, d, spec, "segment")
	paths := segmentPaths(t, store)
	if len(paths) != 1 {
		t.Fatalf("store holds %d segments, want 1", len(paths))
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// daemonWithSegments starts a daemon over a fresh store whose cells/
// holds the given segments, by file name, as other writers left them.
func daemonWithSegments(t *testing.T, segs map[string][]byte) (*Daemon, *Store) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	if err := os.MkdirAll(filepath.Join(dir, "cells"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range segs {
		if err := os.WriteFile(filepath.Join(dir, "cells", name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Drain)
	return d, store
}

// storedCells copies the cells of store into a fresh store and returns
// a daemon over it, so a test can resubmit campaigns without hitting
// their stored manifests.
func storedCells(t *testing.T, store *Store) *Daemon {
	t.Helper()
	segs := make(map[string][]byte)
	for _, path := range segmentPaths(t, store) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		segs[filepath.Base(path)] = data
	}
	d, _ := daemonWithSegments(t, segs)
	return d
}

// numCells is spec's cell count: one cell per (group, N) pair.
func numCells(spec sim.CampaignSpec) int { return spec.NumJobs() / spec.Normalized().Replicates }

// TestCellKeyPinned pins one cell's content address, the SpecHash of
// its one-cell spec, to a literal: a cell key can only move in a
// recorded step, like TestSpecHashPinned's campaign key. The campaign
// is TestSpecHashPinned's; the cell is its first, SR 8x8 holes at N=8,
// and the key is read back from the line the daemon stored for it.
func TestCellKeyPinned(t *testing.T) {
	spec := sim.CampaignSpec{
		Schemes:    []sim.SchemeKind{sim.SR, sim.AR},
		Grids:      []sim.GridSize{{Cols: 8, Rows: 8}},
		Spares:     []int{8, 24},
		Workloads:  []sim.WorkloadSpec{{Kind: sim.WorkloadHoles}, {Kind: sim.WorkloadJam}},
		Replicates: 12,
		BaseSeed:   21,
	}
	const want = "sha256:06138fcc1f785dc0496033834eb9872f3749fd11e6139aee97d1272ead3bc18c"
	lines := bytes.SplitAfter(cellSegment(t, spec), []byte("\n"))
	if got := len(lines) - 1; got != numCells(spec) {
		t.Fatalf("%d stored cells, want %d", got, numCells(spec))
	}
	var first struct {
		Engine int             `json:"engine"`
		Spec   json.RawMessage `json:"spec"`
		Point  struct {
			Group string  `json:"group"`
			X     float64 `json:"x"`
		} `json:"point"`
		Trials int `json:"trials"`
	}
	if err := json.Unmarshal(lines[0], &first); err != nil {
		t.Fatal(err)
	}
	key, err := telemetry.SpecHash(first.Spec)
	if err != nil || first.Point.Group != "SR 8x8" || first.Point.X != 8 || first.Trials != 12 || key != want {
		t.Errorf("first cell = %q N=%g over %d trials, key %s (%v); want \"SR 8x8\" N=8 over 12, key %s",
			first.Point.Group, first.Point.X, first.Trials, key, err, want)
	}
	if first.Engine != sim.EngineVersion {
		t.Errorf("stored cell records engine %d, want %d", first.Engine, sim.EngineVersion)
	}
	js, err := spec.JobSpace()
	if err != nil {
		t.Fatal(err)
	}
	one := spec.CellSpec(js.At(0))
	if key, err := telemetry.SpecHash(one); err != nil || key != want {
		t.Errorf("SpecHash(CellSpec) = %s, %v; want %s", key, err, want)
	}
}

// TestWidenedCampaignComputesOnlyNewCells: a campaign widened by more
// spare counts, submitted after its base to the same store, executes
// only its new cells' trials and still stores exactly the manifest a
// fresh store computes from scratch. The daemon logs the reuse, and the
// ledger credits only the executed trials to the run's rate.
func TestWidenedCampaignComputesOnlyNewCells(t *testing.T) {
	var logs syncBuffer
	d, store := newTestDaemon(t, Options{Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	base := multiCellSpec()
	widened := widen(base, 20) // 2 new cells: SR and AR at N=20
	if _, ran := submitCounted(t, d, base, "base"); ran != base.NumJobs() {
		t.Fatalf("base campaign ran %d trials, want %d", ran, base.NumJobs())
	}
	got, ran := submitCounted(t, d, widened, "widened")
	if want := 2 * base.Replicates; ran != want {
		t.Errorf("widened campaign ran %d trials, want only its new cells' %d", ran, want)
	}

	fresh, _ := newTestDaemon(t, Options{})
	want, freshRan := submitCounted(t, fresh, widened, "widened")
	if freshRan != widened.NumJobs() {
		t.Errorf("widened campaign on a fresh store ran %d trials, want %d", freshRan, widened.NumJobs())
	}
	if !bytes.Equal(got, want) {
		t.Error("widened manifest over stored cells differs from the fresh store's")
	}
	if ref := referenceManifest(t, widened, "widened"); !bytes.Equal(got, ref) {
		t.Error("widened manifest differs from a direct in-process run")
	}

	if out := logs.String(); !strings.Contains(out, `msg="reusing stored cells" cells=6 of=8`) {
		t.Errorf("daemon log does not report the 6 reused cells:\n%s", out)
	}
	recs, err := telemetry.ReadLedger(store.LedgerPath())
	if err != nil || len(recs) != 2 {
		t.Fatalf("ledger = %+v, %v; want two records", recs, err)
	}
	rec := recs[1]
	if rec.Jobs != widened.NumJobs() || rec.Points != 8 {
		t.Errorf("ledger record jobs %d points %d, want the whole campaign's %d and 8", rec.Jobs, rec.Points, widened.NumJobs())
	}
	if executed := rec.TrialsPerS * rec.WallS; math.Abs(executed-8) > 1e-6 {
		t.Errorf("ledger rate credits %.3f trials, want the 8 executed", executed)
	}
}

// TestDrainedWidenedCampaignResumes: a widened campaign drained part-way
// resumes on a fresh daemon from the store, which holds the base cells
// and the new cell completed before the drain, and finishes
// byte-identical.
func TestDrainedWidenedCampaignResumes(t *testing.T) {
	d, store := newTestDaemon(t, Options{})
	base := multiCellSpec()
	widened := widen(base, 20)
	submitCounted(t, d, base, "base")

	// Hold the widened run after its first new cell (SR N=20) lands.
	held := make(chan struct{})
	testTrialHook = func(_ *Campaign, ran int) {
		if ran == base.Replicates {
			close(held)
			<-d.ctx.Done()
		}
	}
	v, created, err := d.Submit(mustJSON(t, widened), "widened")
	if err != nil || !created {
		t.Fatalf("Submit = %+v, %v, %v", v, created, err)
	}
	<-held
	d.Drain()
	testTrialHook = nil
	if aborted, _ := d.Campaign(v.ID); aborted.Status != telemetry.StatusAborted {
		t.Fatalf("drained campaign is %q, want aborted", aborted.Status)
	}

	var logs syncBuffer
	d2, err := New(Options{Store: store, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Drain()
	got, ran := submitCounted(t, d2, widened, "widened")
	if ran != base.Replicates {
		t.Errorf("resumed run executed %d trials, want the last new cell's %d", ran, base.Replicates)
	}
	if !bytes.Equal(got, referenceManifest(t, widened, "widened")) {
		t.Error("resumed widened manifest differs from a direct in-process run")
	}
	if out := logs.String(); !strings.Contains(out, `msg="reusing stored cells" cells=7 of=8`) {
		t.Errorf("daemon log does not report the 7 stored cells:\n%s", out)
	}
}

// TestCellStoreMissesOnChangedPhysics: every spec field a trial reads is
// part of a cell's key, so changing any of them recomputes every cell,
// and the manifest is the direct run's.
func TestCellStoreMissesOnChangedPhysics(t *testing.T) {
	base := sim.CampaignSpec{
		Schemes:    []sim.SchemeKind{sim.SR, sim.AR},
		Grids:      []sim.GridSize{{Cols: 8, Rows: 8}},
		Spares:     []int{4, 8},
		Workloads:  []sim.WorkloadSpec{{Kind: sim.WorkloadHoles}, {Kind: sim.WorkloadJam}},
		Replicates: 2,
		BaseSeed:   5,
		Workers:    1,
	}
	d, _ := newTestDaemon(t, Options{})
	submitCounted(t, d, base, "base")
	for _, tc := range []struct {
		name string
		edit func(*sim.CampaignSpec)
	}{
		{"seed", func(s *sim.CampaignSpec) { s.BaseSeed++ }},
		{"replicates", func(s *sim.CampaignSpec) { s.Replicates++ }},
		{"comm_range", func(s *sim.CampaignSpec) { s.CommRange = 12 }},
		{"jam_radius", func(s *sim.CampaignSpec) { s.JamRadius = 9 }},
		{"adjacent_holes_ok", func(s *sim.CampaignSpec) { s.AdjacentHolesOK = true }},
		{"ar_init_prob", func(s *sim.CampaignSpec) { s.ARInitProb = 0.5 }},
		{"ar_max_hops", func(s *sim.CampaignSpec) { s.ARMaxHops = 4 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := base
			tc.edit(&spec)
			got, ran := submitCounted(t, d, spec, tc.name)
			if ran != spec.NumJobs() {
				t.Errorf("ran %d trials, want all %d", ran, spec.NumJobs())
			}
			if !bytes.Equal(got, referenceManifest(t, spec, tc.name)) {
				t.Error("manifest differs from a direct in-process run")
			}
		})
	}
}

// TestCellStoreMissesOnDamagedLines: a stored cell is reused only when
// its line verifies. A truncated, garbled, spec-swapped or
// trials-altered line in another writer's segment, and an index entry
// pointing at the wrong line, each make a miss: the cell is recomputed,
// the manifest is the direct run's, and the recomputed line serves the
// next lookup.
func TestCellStoreMissesOnDamagedLines(t *testing.T) {
	spec := multiCellSpec()
	ref := referenceManifest(t, spec, "damaged")
	good := cellSegment(t, spec)
	lines := bytes.SplitAfter(good, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty remainder after the last newline
	if len(lines) != numCells(spec) {
		t.Fatalf("segment holds %d lines, want %d", len(lines), numCells(spec))
	}
	edit := func(f func(ls [][]byte)) []byte {
		ls := make([][]byte, len(lines))
		for i, l := range lines {
			ls[i] = bytes.Clone(l)
		}
		f(ls)
		return bytes.Join(ls, nil)
	}
	swapSpecs := func(ls [][]byte) {
		var a, b map[string]json.RawMessage
		if json.Unmarshal(ls[0], &a) != nil || json.Unmarshal(ls[1], &b) != nil {
			t.Fatal("cell lines do not decode")
		}
		a["spec"], b["spec"] = b["spec"], a["spec"]
		ls[0] = append(mustJSON(t, a), '\n')
		ls[1] = append(mustJSON(t, b), '\n')
	}
	// allStored fails unless a daemon over a copy of store's cells
	// computes only the 2 new cells of a widened spec.
	allStored := func(t *testing.T, store *Store) {
		t.Helper()
		if _, ran := submitCounted(t, storedCells(t, store), widen(spec, 20), "widened"); ran != 2*spec.Replicates {
			t.Errorf("after the recompute a widened run computes %d trials, want only its 2 new cells' %d",
				ran, 2*spec.Replicates)
		}
	}
	for _, tc := range []struct {
		name   string
		file   []byte
		misses int
	}{
		{"intact", good, 0},
		{"truncated", good[:len(good)-10], 1},
		{"garbled", edit(func(ls [][]byte) { ls[0] = []byte(`{"engine":1,"spec":{"schemes":["SR"],` + "\n") }), 1},
		{"spec-swapped", edit(swapSpecs), 2},
		{"trials-altered", edit(func(ls [][]byte) {
			ls[2] = bytes.Replace(ls[2], []byte(`"trials":4}`), []byte(`"trials":5}`), 1)
		}), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, store := daemonWithSegments(t, map[string][]byte{"damaged.ndjson": tc.file})
			got, ran := submitCounted(t, d, spec, "damaged")
			if want := tc.misses * spec.Replicates; ran != want {
				t.Errorf("ran %d trials, want %d (%d cells recomputed)", ran, want, tc.misses)
			}
			if !bytes.Equal(got, ref) {
				t.Error("manifest differs from a direct in-process run")
			}
			allStored(t, store)
		})
	}

	t.Run("wrong offset", func(t *testing.T) {
		// The daemon has indexed its own segment; swapping the segment's
		// first two lines in place leaves their index entries pointing at
		// the wrong bytes.
		d, store := newTestDaemon(t, Options{})
		submitCounted(t, d, spec, "seed")
		paths := segmentPaths(t, store)
		if len(paths) != 1 {
			t.Fatalf("store holds %d segments, want 1", len(paths))
		}
		seg, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		ls := bytes.SplitAfter(seg, []byte("\n"))
		ls[0], ls[1] = ls[1], ls[0]
		if err := os.WriteFile(paths[0], bytes.Join(ls, nil), 0o644); err != nil {
			t.Fatal(err)
		}
		widened := widen(spec, 20)
		got, ran := submitCounted(t, d, widened, "damaged")
		if want := 4 * spec.Replicates; ran != want {
			t.Errorf("ran %d trials, want %d (2 new cells and the 2 misindexed ones)", ran, want)
		}
		if !bytes.Equal(got, referenceManifest(t, widened, "damaged")) {
			t.Error("manifest differs from a direct in-process run")
		}
	})
}

// TestCellStoreConcurrentCampaigns: campaigns running at once share the
// cell store, each reading and appending cells while the others do;
// every manifest is still the direct run's, and every cell any of them
// computed is served afterwards.
func TestCellStoreConcurrentCampaigns(t *testing.T) {
	d, store := newTestDaemon(t, Options{Concurrency: 3})
	base := multiCellSpec()
	submitCounted(t, d, base, "base")
	reseeded := base
	reseeded.BaseSeed++
	specs := []sim.CampaignSpec{widen(base, 20), widen(base, 25), widen(reseeded, 20)}
	ids := make([]int, len(specs))
	for i, spec := range specs {
		v, created, err := d.Submit(mustJSON(t, spec), "concurrent")
		if err != nil || !created {
			t.Fatalf("Submit = %+v, %v, %v", v, created, err)
		}
		ids[i] = v.ID
	}
	for i, spec := range specs {
		if !d.Wait(context.Background(), ids[i]) {
			t.Fatal("campaign never finished")
		}
		v, _ := d.Campaign(ids[i])
		got, err := os.ReadFile(v.Manifest)
		if err != nil {
			t.Fatalf("campaign %d (%s): %v", i, v.Status, err)
		}
		if !bytes.Equal(got, referenceManifest(t, spec, "concurrent")) {
			t.Errorf("campaign %d: manifest differs from a direct in-process run", i)
		}
	}
	after := storedCells(t, store)
	for _, spec := range specs {
		if _, ran := submitCounted(t, after, spec, "again"); ran != 0 {
			t.Errorf("a copy of the store recomputes %d trials of a campaign it holds", ran)
		}
	}
}

// TestLedgerRecordsGroupSpans: a completed campaign's ledger record
// carries group_s, naming each group the run executed and no other. A
// campaign widened by a scheme over stored cells executes, and so
// spans, only the new scheme's group.
func TestLedgerRecordsGroupSpans(t *testing.T) {
	d, store := newTestDaemon(t, Options{})
	wide := multiCellSpec()
	base := wide
	base.Schemes = []sim.SchemeKind{sim.SR}
	submitCounted(t, d, base, "base")
	submitCounted(t, d, wide, "wide")
	recs, err := telemetry.ReadLedger(store.LedgerPath())
	if err != nil || len(recs) != 2 {
		t.Fatalf("ledger = %+v, %v; want two records", recs, err)
	}
	groups := func(spec sim.CampaignSpec) map[string]bool {
		out := make(map[string]bool)
		spec.Normalized().ExecutedJobs(nil, func(j sim.TrialJob) { out[j.Group()] = true })
		return out
	}
	added := groups(wide)
	for g := range groups(base) {
		delete(added, g)
	}
	for i, want := range []map[string]bool{groups(base), added} {
		got := recs[i].GroupSeconds
		if len(got) != len(want) || len(want) != 1 {
			t.Errorf("record %s spans %v, want exactly the executed groups %v", recs[i].Name, got, want)
		}
		for g, s := range got {
			if !want[g] || s < 0 {
				t.Errorf("record %s spans group %q for %vs; want only executed groups %v", recs[i].Name, g, s, want)
			}
		}
	}
}

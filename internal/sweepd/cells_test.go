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

	"wsncover/internal/experiment"
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

// TestCellKeyPinned pins one cell's content address, the SpecHash of
// its one-cell spec, to a literal: a cell key can only move in a
// recorded step, like TestSpecHashPinned's campaign key. The campaign
// is TestSpecHashPinned's; the cell is its first, SR 8x8 holes at N=8.
func TestCellKeyPinned(t *testing.T) {
	spec := sim.CampaignSpec{
		Schemes:    []sim.SchemeKind{sim.SR, sim.AR},
		Grids:      []sim.GridSize{{Cols: 8, Rows: 8}},
		Spares:     []int{8, 24},
		Workloads:  []sim.WorkloadSpec{{Kind: sim.WorkloadHoles}, {Kind: sim.WorkloadJam}},
		Replicates: 12,
		BaseSeed:   21,
	}
	cells, err := campaignCells(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != spec.NumCells() {
		t.Fatalf("%d cells, want %d", len(cells), spec.NumCells())
	}
	const want = "sha256:06138fcc1f785dc0496033834eb9872f3749fd11e6139aee97d1272ead3bc18c"
	c := cells[0]
	if c.Group != "SR 8x8" || c.X != 8 || c.Trials != 12 || c.Key != want {
		t.Errorf("first cell = %q N=%g over %d trials, key %s; want \"SR 8x8\" N=8 over 12, key %s",
			c.Group, c.X, c.Trials, c.Key, want)
	}
	one := spec.CellSpec(spec.Normalized().Jobs()[0])
	if key, err := telemetry.SpecHash(one); err != nil || key != c.Key {
		t.Errorf("SpecHash(CellSpec) = %s, %v; the cell key is %s", key, err, c.Key)
	}
}

// TestWidenedCampaignComputesOnlyNewCells: a campaign widened by more
// spare counts, submitted after its base to the same store, executes
// only its new cells' trials and still stores exactly the manifest a
// fresh store computes from scratch. The daemon logs the reuse apart
// from checkpoint resume, and the ledger credits only the executed
// trials to the run's rate.
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

	if out := logs.String(); !strings.Contains(out, `msg="reusing stored cells" cells=6 of=8`) ||
		strings.Contains(out, "resuming from checkpoint") {
		t.Errorf("daemon log does not report the 6 reused cells apart from checkpoint resume:\n%s", out)
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
// resumes on a fresh daemon from its checkpoint, which carries the
// stored cells it reused, and finishes byte-identical.
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
	if aborted, _ := d.Campaign(v.ID); aborted.Status != StatusAborted {
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
	if out := logs.String(); !strings.Contains(out, `msg="resuming from checkpoint"`) {
		t.Errorf("daemon log does not report the checkpoint resume:\n%s", out)
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
// trials-altered line, and an index entry pointing at the wrong line,
// each make a miss: the cell is recomputed, the manifest is the direct
// run's, and the recomputed line serves the next lookup.
func TestCellStoreMissesOnDamagedLines(t *testing.T) {
	spec := multiCellSpec()
	ref := referenceManifest(t, spec, "damaged")
	cells, err := campaignCells(spec)
	if err != nil {
		t.Fatal(err)
	}
	d, store := newTestDaemon(t, Options{})
	submitCounted(t, d, spec, "seed")
	good, err := os.ReadFile(store.cellsPath())
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(good, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty remainder after the last newline
	if len(lines) != len(cells) {
		t.Fatalf("cell store holds %d lines, want %d", len(lines), len(cells))
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
	for _, tc := range []struct {
		name   string
		file   []byte
		misses int
	}{
		{"intact", good, 0},
		{"truncated", good[:len(good)-10], 1},
		{"garbled", edit(func(ls [][]byte) { ls[0] = []byte(`{"spec":{"schemes":["SR"],` + "\n") }), 1},
		{"spec-swapped", edit(swapSpecs), 2},
		{"trials-altered", edit(func(ls [][]byte) {
			ls[2] = bytes.Replace(ls[2], []byte(`"trials":4}`), []byte(`"trials":5}`), 1)
		}), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "cells.ndjson"), tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
			store, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			d, err := New(Options{Store: store})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Drain()
			got, ran := submitCounted(t, d, spec, "damaged")
			if want := tc.misses * spec.Replicates; ran != want {
				t.Errorf("ran %d trials, want %d (%d cells recomputed)", ran, want, tc.misses)
			}
			if !bytes.Equal(got, ref) {
				t.Error("manifest differs from a direct in-process run")
			}
			if _, fresh := store.storedCells(cells); len(fresh) != 0 {
				t.Errorf("%d cells still miss after the recompute", len(fresh))
			}
		})
	}

	t.Run("wrong offset", func(t *testing.T) {
		store.mu.Lock()
		store.cellIndex[cells[0].Key] = store.cellIndex[cells[1].Key]
		store.mu.Unlock()
		widened := widen(spec, 20)
		got, ran := submitCounted(t, d, widened, "damaged")
		if want := 3 * spec.Replicates; ran != want {
			t.Errorf("ran %d trials, want %d (2 new cells and the misindexed one)", ran, want)
		}
		if !bytes.Equal(got, referenceManifest(t, widened, "damaged")) {
			t.Error("manifest differs from a direct in-process run")
		}
	})
}

// FuzzCellStore: whatever cells.ndjson holds, the reader never panics
// and serves a cell only from a whole line of the file that verifies as
// that cell's. Installing the cells it missed then makes every cell a
// hit serving the installed points, in this store and in a reopened
// one, however the file ended.
func FuzzCellStore(f *testing.F) {
	spec := smallSpec().Normalized()
	cells, err := campaignCells(spec)
	if err != nil {
		f.Fatal(err)
	}
	hash, err := telemetry.SpecHash(spec)
	if err != nil {
		f.Fatal(err)
	}
	var m experiment.Manifest
	if err := json.Unmarshal(referenceManifest(f, spec, "fuzz"), &m); err != nil {
		f.Fatal(err)
	}
	seed, err := OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if _, err := seed.Install(hash, &m, cells); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(seed.cellsPath())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-9])
	f.Add(append(bytes.Clone(good), good...))
	f.Add(bytes.Replace(good, []byte(`"trials":2`), []byte(`"trials":3`), 1))
	f.Add([]byte("not a cell line\n{}\n\n"))
	f.Add([]byte{})

	pointJSON := func(t *testing.T, p experiment.Point) []byte {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "cells.ndjson"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		store, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		points, fresh := store.storedCells(cells)
		if len(points)+len(fresh) != len(cells) {
			t.Fatalf("%d hits and %d misses for %d cells", len(points), len(fresh), len(cells))
		}
		// want is the point each cell must serve once its miss is
		// installed: the verified line's if it hit, m's otherwise.
		want := make([][]byte, len(cells))
		wasFresh := make([]bool, len(cells))
		for i, c := range cells {
			if len(fresh) > 0 && fresh[0].Key == c.Key {
				fresh = fresh[1:]
				wasFresh[i] = true
				want[i] = pointJSON(t, m.Points[i])
				continue
			}
			want[i] = pointJSON(t, points[0])
			points = points[1:]
			verified := false
			for _, line := range bytes.SplitAfter(data, []byte("\n")) {
				if p, err := verifyCellLine(line, c); err == nil && bytes.Equal(pointJSON(t, p), want[i]) {
					verified = true
					break
				}
			}
			if !verified {
				t.Fatalf("served %q N=%g from no line of the file that verifies as that cell", c.Group, c.X)
			}
		}

		_, fresh = store.storedCells(cells)
		if _, err := store.Install(hash, &m, fresh); err != nil {
			t.Fatal(err)
		}
		reopened, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*Store{store, reopened} {
			points, fresh := s.storedCells(cells)
			if len(fresh) != 0 {
				t.Fatalf("%d cells miss after installing them", len(fresh))
			}
			for i, p := range points {
				// A reopened store rescans the file, where the line that
				// ended it may have been completed by the install.
				if (s == store || wasFresh[i]) && !bytes.Equal(pointJSON(t, p), want[i]) {
					t.Fatalf("cell %d serves a point other than the one it served or was installed with", i)
				}
			}
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
	var all []Cell
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
		cells, err := campaignCells(spec)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, cells...)
	}
	if _, fresh := store.storedCells(all); len(fresh) != 0 {
		t.Errorf("%d computed cells are not served afterwards", len(fresh))
	}
}

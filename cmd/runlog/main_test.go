package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"wsncover/internal/experiment"
	"wsncover/internal/sim"
	"wsncover/internal/stats"
	"wsncover/internal/sweepd"
	"wsncover/internal/telemetry"
)

// writeManifest persists a one-point manifest and returns its path.
func writeManifest(t *testing.T, dir, name string, mean float64) string {
	t.Helper()
	spec := sim.CampaignSpec{
		Schemes: []sim.SchemeKind{sim.SR}, Grids: []sim.GridSize{{Cols: 8, Rows: 8}},
		Spares: []int{8}, Replicates: 4, BaseSeed: 1,
	}.Normalized()
	pts := []experiment.Point{{
		Group: "SR 8x8", X: 8,
		Metrics: map[string]stats.Description{
			"moves": {N: 4, Mean: mean, Min: 1, Max: 9, Median: mean},
		},
	}}
	m, err := experiment.NewManifest(name, spec, 4, 0, pts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Save(dir); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, name+".json")
}

// buildLedger writes five records: two equivalent runs of one campaign
// (same spec hash), one genuinely different run, a failed and an
// aborted one. beta and delta are written the way the retired fleet
// supervisor wrote its records, "shards" and "retries" keys included,
// so every subcommand also proves that old history stays readable.
func buildLedger(t *testing.T) (ledger string, hash string) {
	t.Helper()
	dir := t.TempDir()
	ledger = filepath.Join(dir, "ledger.ndjson")
	a := writeManifest(t, dir, "alpha", 5)
	b := writeManifest(t, dir, "beta", 5)
	c := writeManifest(t, dir, "gamma", 7)
	hash = "sha256:aabbccdd00112233"
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	for i, r := range []telemetry.Record{
		{Name: "alpha", Mode: "run", SpecHash: hash, Manifest: a, Jobs: 4, Points: 1, WallS: 1.5},
		{Name: "beta", Mode: "dispatch", Status: telemetry.StatusCompleted, SpecHash: hash, Manifest: b, Jobs: 4, Points: 1, WallS: 0.9},
		{Name: "gamma", Mode: "run", SpecHash: "sha256:ffee00", Manifest: c, Jobs: 4, Points: 1, WallS: 1.1},
		{Name: "delta", Mode: "dispatch", Status: telemetry.StatusFailed, SpecHash: "sha256:ddcc11", Jobs: 2, WallS: 0.4},
		{Name: "epsilon", Mode: "run", Status: telemetry.StatusAborted, SpecHash: "sha256:ee4411", Jobs: 1, WallS: 0.2},
	} {
		r.Time = base.Add(time.Duration(i) * time.Minute)
		if r.Mode == "dispatch" {
			appendDispatchRecord(t, ledger, r)
			continue
		}
		if err := telemetry.AppendRecord(ledger, r); err != nil {
			t.Fatal(err)
		}
	}
	return ledger, hash
}

// appendDispatchRecord appends r with the "shards" and "retries" keys
// the fleet supervisor's records carried.
func appendDispatchRecord(t *testing.T, ledger string, r telemetry.Record) {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	b = append(bytes.TrimSuffix(b, []byte("}")), []byte(`,"shards":2,"retries":1}`+"\n")...)
	f, err := os.OpenFile(ledger, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

func TestRunlogList(t *testing.T) {
	ledger, _ := buildLedger(t)
	var out strings.Builder
	if err := run([]string{"-ledger", ledger, "list"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	// Unhealthy runs stand out (uppercase); pre-status records and
	// explicit completions both read "completed".
	for _, want := range []string{"alpha", "beta", "gamma", "dispatch", "aabbccdd0011",
		"status", "completed", "FAILED", "ABORTED"} {
		if !strings.Contains(s, want) {
			t.Errorf("list output missing %q:\n%s", want, s)
		}
	}
	// The bare command defaults to list.
	var def strings.Builder
	if err := run([]string{"-ledger", ledger}, &def); err != nil {
		t.Fatal(err)
	}
	if def.String() != s {
		t.Error("default subcommand should be list")
	}
}

func TestRunlogShowResolvesRefs(t *testing.T) {
	ledger, hash := buildLedger(t)
	for ref, wantName := range map[string]string{
		"1":      "alpha", // 1-based index
		"gamma":  "gamma", // campaign name
		"beta":   "beta",
		"aabbcc": "beta", // hash prefix: latest match wins
		hash:     "beta", // full hash, sha256: prefix included
	} {
		var out strings.Builder
		if err := run([]string{"-ledger", ledger, "show", ref}, &out); err != nil {
			t.Fatalf("show %q: %v", ref, err)
		}
		if !strings.Contains(out.String(), `"name": "`+wantName+`"`) {
			t.Errorf("show %q resolved to:\n%s\nwant %s", ref, out.String(), wantName)
		}
	}
	if err := run([]string{"-ledger", ledger, "show", "nonesuch"}, &strings.Builder{}); err == nil {
		t.Error("unresolvable ref should error")
	}
	if err := run([]string{"-ledger", ledger, "show", "99"}, &strings.Builder{}); err == nil {
		t.Error("out-of-range index should error")
	}
}

func TestRunlogDiff(t *testing.T) {
	ledger, _ := buildLedger(t)
	// alpha vs beta: same statistics, different manifest names — the
	// merge contract reports exactly the name difference.
	var out strings.Builder
	err := run([]string{"-ledger", ledger, "diff", "alpha", "beta"}, &out)
	if !errors.Is(err, errDiffs) {
		t.Fatalf("diff alpha beta = %v, want errDiffs (names differ)", err)
	}
	if !strings.Contains(out.String(), "name") {
		t.Errorf("diff output should mention the name difference:\n%s", out.String())
	}
	// alpha vs gamma differ in results too, and the spec hashes differ.
	out.Reset()
	err = run([]string{"-ledger", ledger, "diff", "1", "gamma"}, &out)
	if !errors.Is(err, errDiffs) {
		t.Fatalf("diff 1 gamma = %v, want errDiffs", err)
	}
	if !strings.Contains(out.String(), "spec hashes differ") {
		t.Errorf("diff should warn about differing spec hashes:\n%s", out.String())
	}
	// A record diffed against itself is equivalent.
	out.Reset()
	if err := run([]string{"-ledger", ledger, "diff", "1", "1"}, &out); err != nil {
		t.Fatalf("diff 1 1 = %v, want nil", err)
	}
	if !strings.Contains(out.String(), "equivalent") {
		t.Errorf("self-diff output:\n%s", out.String())
	}
}

// buildStore populates a sweepd store with one ledgered manifest and
// one installed by hand (no ledger line). Each manifest's spec hashes
// to its key, as a store lookup verifies; the ledgered one has the
// lower hash, so it lists first.
func buildStore(t *testing.T) (dir string, ledgered, bare string) {
	t.Helper()
	dir = filepath.Join(t.TempDir(), "store")
	store, err := sweepd.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	manifests := make(map[string]*experiment.Manifest)
	var hashes []string
	for seed := int64(1); seed <= 2; seed++ {
		spec := sim.CampaignSpec{
			Schemes: []sim.SchemeKind{sim.SR}, Grids: []sim.GridSize{{Cols: 8, Rows: 8}},
			Spares: []int{8}, Replicates: 4, BaseSeed: seed,
		}.Normalized()
		h, err := telemetry.SpecHash(spec)
		if err != nil {
			t.Fatal(err)
		}
		m, err := experiment.NewManifest("daemon-run", spec, 4, 0, []experiment.Point{})
		if err != nil {
			t.Fatal(err)
		}
		manifests[h] = m
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	ledgered, bare = hashes[0], hashes[1]
	for _, h := range hashes {
		if _, err := store.Install(h, manifests[h]); err != nil {
			t.Fatal(err)
		}
	}
	err = telemetry.AppendRecord(store.LedgerPath(), telemetry.Record{
		Name: "daemon-run", Mode: "sweepd", Status: telemetry.StatusCompleted,
		SpecHash: ledgered, Jobs: 4, Points: 1, WallS: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir, ledgered, bare
}

func TestRunlogStoreMode(t *testing.T) {
	dir, _, bare := buildStore(t)

	// list reads the store's own ledger and appends the manifest table,
	// flagging the manifest no ledger line mentions.
	var out strings.Builder
	if err := run([]string{"-store", dir, "list"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"daemon-run", "sweepd", "2 manifest(s)", "(unledgered)"} {
		if !strings.Contains(s, want) {
			t.Errorf("store list missing %q:\n%s", want, s)
		}
	}

	// show resolves ledger refs as usual, and falls back to the store
	// for a hash only the manifest directory knows.
	out.Reset()
	if err := run([]string{"-store", dir, "show", "daemon-run"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"mode": "sweepd"`) {
		t.Errorf("store show = %s", out.String())
	}
	out.Reset()
	if err := run([]string{"-store", dir, "show", strings.TrimPrefix(bare, "sha256:")[:8]}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), bare) {
		t.Errorf("store-fallback show = %s, want entry for %s", out.String(), bare)
	}
	if err := run([]string{"-store", dir, "show", "nonesuch"}, &strings.Builder{}); err == nil {
		t.Error("unresolvable ref should still error in store mode")
	}
}

func TestRunlogListJSON(t *testing.T) {
	dir, ledgered, bare := buildStore(t)
	var out strings.Builder
	if err := run([]string{"-store", dir, "-json", "list"}, &out); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Records   []telemetry.Record `json:"records"`
		Manifests []struct {
			SpecHash string `json:"spec_hash"`
			Bytes    int64  `json:"bytes"`
		} `json:"manifests"`
	}
	if err := json.Unmarshal([]byte(out.String()), &got); err != nil {
		t.Fatalf("list -json is not valid JSON: %v\n%s", err, out.String())
	}
	if len(got.Records) != 1 || got.Records[0].Name != "daemon-run" {
		t.Errorf("records = %+v", got.Records)
	}
	if len(got.Manifests) != 2 || got.Manifests[0].SpecHash != ledgered ||
		got.Manifests[1].SpecHash != bare || got.Manifests[0].Bytes == 0 {
		t.Errorf("manifests = %+v", got.Manifests)
	}

	// A plain ledger (no -store) still lists as JSON, records only.
	ledger, _ := buildLedger(t)
	out.Reset()
	if err := run([]string{"-ledger", ledger, "-json", "list"}, &out); err != nil {
		t.Fatal(err)
	}
	var plain struct {
		Records   []telemetry.Record `json:"records"`
		Manifests []any              `json:"manifests"`
	}
	if err := json.Unmarshal([]byte(out.String()), &plain); err != nil {
		t.Fatal(err)
	}
	if len(plain.Records) != 5 || plain.Manifests != nil {
		t.Errorf("plain -json list: %d records, manifests %v", len(plain.Records), plain.Manifests)
	}
}

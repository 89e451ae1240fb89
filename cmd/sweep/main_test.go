package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"wsncover/internal/dispatch"
	"wsncover/internal/experiment"
	"wsncover/internal/sim"
	"wsncover/internal/telemetry"
)

func TestParseHelpers(t *testing.T) {
	ints, err := parseList("10, 55,200", atoi)
	if err != nil || !reflect.DeepEqual(ints, []int{10, 55, 200}) {
		t.Errorf("parseList(atoi) = %v, %v", ints, err)
	}
	if _, err := parseList("10,x", atoi); err == nil {
		t.Error("bad int should fail")
	}
	if ints, err := parseList("", atoi); err != nil || ints != nil {
		t.Errorf("empty list = %v, %v", ints, err)
	}

	schemes, err := parseList("SR,ar", sim.ParseSchemeKind)
	if err != nil || !reflect.DeepEqual(schemes, []sim.SchemeKind{sim.SR, sim.AR}) {
		t.Errorf("parseList(ParseSchemeKind) = %v, %v", schemes, err)
	}
	if _, err := parseList("SR,XY", sim.ParseSchemeKind); err == nil {
		t.Error("bad scheme should fail")
	}

	grids, err := parseList("16x16,8x12", sim.ParseGridSize)
	if err != nil || !reflect.DeepEqual(grids, []sim.GridSize{{Cols: 16, Rows: 16}, {Cols: 8, Rows: 12}}) {
		t.Errorf("parseList(ParseGridSize) = %v, %v", grids, err)
	}
	for _, bad := range []string{"16by16", "16x16x3", "8x8junk"} {
		if _, err := parseList(bad, sim.ParseGridSize); err == nil {
			t.Errorf("grid list %q should fail", bad)
		}
	}
}

func TestRunFlagCampaign(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-schemes", "SR,AR", "-grids", "8x8", "-spares", "8,24",
		"-replicates", "3", "-seed", "11", "-out", dir, "-name", "unit",
		"-metrics", "moves,success_rate", "-quiet",
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "unit.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Jobs   int `json:"jobs"`
		Points []struct {
			Group string `json:"group"`
		} `json:"points"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Jobs != 2*2*3 || len(m.Points) != 4 {
		t.Errorf("manifest jobs=%d points=%d", m.Jobs, len(m.Points))
	}
	for _, f := range []string{"unit-moves.csv", "unit-moves.dat", "unit-success_rate.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
		}
	}
}

func TestRunSpecFile(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	spec := `{
		"schemes": ["SR"],
		"grids": [{"cols": 8, "rows": 8}],
		"spares": [16],
		"failures": ["jam"],
		"replicates": 2,
		"seed": 4
	}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{
		"-spec", specPath, "-out", dir, "-name", "jamtest",
		"-metrics", "all", "-quiet", "-ascii",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "jamtest.json")); err != nil {
		t.Error(err)
	}
	// "all" exports every recorded metric, holes_before included.
	if _, err := os.Stat(filepath.Join(dir, "jamtest-holes_before.csv")); err != nil {
		t.Error(err)
	}
}

func TestParseWorkloadsAndRunners(t *testing.T) {
	wls, err := parseList("holes, churn", parseWorkload)
	if err != nil || !reflect.DeepEqual(wls, []sim.WorkloadSpec{{Kind: "holes"}, {Kind: "churn"}}) {
		t.Errorf("parseList(parseWorkload) = %v, %v", wls, err)
	}
	if _, err := parseList("meteor", parseWorkload); err == nil {
		t.Error("unknown workload kind should fail")
	}
	rs, err := parseList("sync,async", sim.ParseRunnerKind)
	if err != nil || !reflect.DeepEqual(rs, []sim.RunnerKind{sim.RunSync, sim.RunAsync}) {
		t.Errorf("parseList(ParseRunnerKind) = %v, %v", rs, err)
	}
	if _, err := parseList("warp", sim.ParseRunnerKind); err == nil {
		t.Error("unknown runner should fail")
	}
}

// TestRunWorkloadSpecCampaigns is the CLI acceptance criterion: churn
// and depletion campaigns run end-to-end from a spec file, including the
// async runner axis.
func TestRunWorkloadSpecCampaigns(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	spec := `{
		"schemes": ["SR"],
		"grids": [{"cols": 8, "rows": 8}],
		"spares": [16],
		"workloads": [
			{"kind": "churn", "holes": 2, "every": 4, "waves": 2},
			{"kind": "depletion", "budget": 15}
		],
		"runners": ["sync", "async"],
		"replicates": 2,
		"seed": 6
	}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{
		"-spec", specPath, "-out", dir, "-name", "wl",
		"-metrics", "moves,recovered", "-quiet",
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "wl.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Jobs   int `json:"jobs"`
		Points []struct {
			Group string `json:"group"`
		} `json:"points"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	// 2 workloads x 2 runners x 1 scheme x 1 grid x 1 spare x 2 reps.
	if m.Jobs != 8 || len(m.Points) != 4 {
		t.Errorf("manifest jobs=%d points=%d", m.Jobs, len(m.Points))
	}
	groups := map[string]bool{}
	for _, p := range m.Points {
		groups[p.Group] = true
	}
	for _, want := range []string{
		"SR 8x8 churn h=2 e=4 w=2",
		"SR 8x8 churn h=2 e=4 w=2 async",
		"SR 8x8 depletion b=15",
		"SR 8x8 depletion b=15 async",
	} {
		if !groups[want] {
			t.Errorf("missing group %q in %v", want, groups)
		}
	}
}

func TestRunWorkloadsFlag(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-schemes", "SR,AR", "-grids", "8x8", "-spares", "12",
		"-workloads", "churn", "-replicates", "2", "-seed", "3",
		"-out", dir, "-name", "churnflag", "-metrics", "moves", "-quiet",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "churnflag.json")); err != nil {
		t.Error(err)
	}
	// The removed -failures flag is an error, not silently ignored.
	if err := run([]string{"-failures", "jam", "-out", dir, "-quiet"}); err == nil {
		t.Error("-failures should fail")
	}
}

// executed reads the ledger at path and returns, per record, the
// trials that run executed: its rate times its wall time. A run is
// never credited with the cells a store served.
func executed(t *testing.T, path string) []int {
	t.Helper()
	recs, err := telemetry.ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, len(recs))
	for i, r := range recs {
		out[i] = int(math.Round(r.TrialsPerS * r.WallS))
	}
	return out
}

// TestRunResume pins growing a campaign in stages over a -store: a
// narrow campaign, then the same command over a wider spares axis,
// computes only the new cells and writes the wider campaign's
// from-scratch bytes; running it once more computes nothing and writes
// them again.
func TestRunResume(t *testing.T) {
	dir := t.TempDir()
	base := []string{
		"-schemes", "SR,AR", "-grids", "8x8", "-replicates", "3",
		"-seed", "11", "-out", dir, "-name", "res", "-store", filepath.Join(dir, "store"),
		"-metrics", "moves", "-quiet",
	}
	// Phase 1: the narrow campaign.
	if err := run(append([]string{"-spares", "8"}, base...)); err != nil {
		t.Fatal(err)
	}
	narrow, err := os.ReadFile(filepath.Join(dir, "res.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Phase 2: the widened spares axis over the same store.
	if err := run(append([]string{"-spares", "8,24"}, base...)); err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(filepath.Join(dir, "res.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(narrow, resumed) {
		t.Fatal("the widened run added no points")
	}
	// Reference: the widened campaign from scratch, without a store.
	refDir := t.TempDir()
	refArgs := []string{
		"-spares", "8,24", "-schemes", "SR,AR", "-grids", "8x8",
		"-replicates", "3", "-seed", "11", "-out", refDir, "-name", "res",
		"-metrics", "moves", "-quiet",
	}
	if err := run(refArgs); err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(filepath.Join(refDir, "res.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, ref) {
		t.Errorf("widened manifest over the store differs from the from-scratch manifest:\n%s\nvs\n%s", resumed, ref)
	}
	// Phase 3: with every cell stored the run computes nothing and
	// writes the same points.
	if err := run(append([]string{"-spares", "8,24"}, base...)); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(filepath.Join(dir, "res.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, ref) {
		t.Error("a run over a complete store changed the manifest")
	}
	if got := executed(t, filepath.Join(dir, "ledger.ndjson")); !reflect.DeepEqual(got, []int{6, 6, 0}) {
		t.Errorf("runs executed %v trials, want [6 6 0]: the widening computes only its 2 new cells", got)
	}

	// A manifest whose echoed spec names its damage with the older
	// "failures" list is the same campaign: manifestdiff finds nothing.
	oldPath := filepath.Join(t.TempDir(), "res.json")
	if err := os.WriteFile(oldPath, withFailuresEcho(t, ref), 0o644); err != nil {
		t.Fatal(err)
	}
	diffs, err := dispatch.DiffManifests(oldPath, filepath.Join(refDir, "res.json"), 0)
	if err != nil || len(diffs) != 0 {
		t.Errorf("failures-spelled manifest differs from the cold run: %v %v", diffs, err)
	}
}

// withFailuresEcho rewrites a manifest's echoed spec into the older
// spelling of the damage dimension: a "failures" list of kind names in
// place of the "workloads" list.
func withFailuresEcho(t *testing.T, data []byte) []byte {
	t.Helper()
	var m experiment.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(m.Spec, &fields); err != nil {
		t.Fatal(err)
	}
	var wls []sim.WorkloadSpec
	if err := json.Unmarshal(fields["workloads"], &wls); err != nil || len(wls) == 0 {
		t.Fatalf("manifest echoes no workloads: %s (%v)", m.Spec, err)
	}
	var names []string
	for _, w := range wls {
		names = append(names, w.Kind)
	}
	delete(fields, "workloads")
	var err error
	if fields["failures"], err = json.Marshal(names); err != nil {
		t.Fatal(err)
	}
	if m.Spec, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"failures"`) {
		t.Fatal("rewrite lost the failures list")
	}
	return buf.Bytes()
}

// TestStoreUnionsWriterSegments: a store is the union of its segments,
// wherever they were written. The cells of a run into one store, and a
// segment copied in from a run into another, are carried into a wider
// campaign over the first store, which recomputes only the rest. The
// carried cells are marked (a sentinel mean, which verification does
// not read), so the final manifest shows where each came from.
func TestStoreUnionsWriterSegments(t *testing.T) {
	args := func(out, store, spares string, extra ...string) []string {
		return append([]string{
			"-schemes", "SR,AR", "-grids", "8x8", "-replicates", "3", "-seed", "11",
			"-spares", spares, "-out", out, "-name", "res", "-metrics", "", "-quiet",
			"-store", store,
		}, extra...)
	}
	load := func(path string) experiment.Manifest {
		t.Helper()
		m, _, err := dispatch.LoadManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	const sentinel = -1
	// mark rewrites the SR 8x8 line of the one segment under store with
	// the sentinel mean and returns the segment's path.
	mark := func(store string) string {
		t.Helper()
		paths, err := filepath.Glob(filepath.Join(store, "cells", "*.ndjson"))
		if err != nil || len(paths) != 1 {
			t.Fatalf("store %s holds segments %v (%v), want one", store, paths, err)
		}
		data, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		for i, line := range lines {
			var l map[string]json.RawMessage
			if json.Unmarshal(line, &l) != nil {
				continue
			}
			var p experiment.Point
			if err := json.Unmarshal(l["point"], &p); err != nil {
				t.Fatal(err)
			}
			if p.Group != "SR 8x8" {
				continue
			}
			d := p.Metrics["moves"]
			d.Mean = sentinel
			p.Metrics["moves"] = d
			if l["point"], err = json.Marshal(p); err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(l)
			if err != nil {
				t.Fatal(err)
			}
			lines[i] = append(b, '\n')
		}
		if err := os.WriteFile(paths[0], bytes.Join(lines, nil), 0o644); err != nil {
			t.Fatal(err)
		}
		return paths[0]
	}

	// Store a holds the N=8 cells, store b the N=24 ones; SR's are marked.
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	if err := run(args(dir, a, "8")); err != nil {
		t.Fatal(err)
	}
	mark(a)
	if err := run(args(t.TempDir(), b, "24")); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(mark(b))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(a, "cells", "from-b.ndjson"), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := run(args(dir, a, "8,24,40")); err != nil {
		t.Fatal(err)
	}
	got := load(filepath.Join(dir, "res.json"))
	refDir := t.TempDir()
	if err := run(args(refDir, filepath.Join(refDir, "store"), "8,24,40")); err != nil {
		t.Fatal(err)
	}
	want := load(filepath.Join(refDir, "res.json"))
	if len(got.Points) != len(want.Points) {
		t.Fatalf("manifest has %d points, want %d", len(got.Points), len(want.Points))
	}
	for i, p := range got.Points {
		carried := p.Group == "SR 8x8" && (p.X == 8 || p.X == 24)
		if mean := p.Metrics["moves"].Mean; carried != (mean == sentinel) {
			t.Errorf("%s N=%g: moves mean %g; carried from a segment: %v", p.Group, p.X, mean, carried)
		}
		if carried {
			got.Points[i] = want.Points[i]
		}
	}
	if !reflect.DeepEqual(got.Points, want.Points) {
		t.Error("recomputed cells differ from a from-scratch run")
	}
	if got := executed(t, filepath.Join(dir, "ledger.ndjson")); !reflect.DeepEqual(got, []int{6, 6}) {
		t.Errorf("runs executed %v trials, want [6 6]: the wide run reuses 4 stored cells and computes 2", got)
	}
}

// TestRunResumeDropsOrphanCells pins manifest self-consistency: stored
// cells whose dimension values the current spec does not list stay out
// of its manifest, so the written manifest never contains points its
// recorded spec cannot describe.
func TestRunResumeDropsOrphanCells(t *testing.T) {
	dir := t.TempDir()
	base := []string{
		"-grids", "8x8", "-spares", "8", "-replicates", "2", "-seed", "3",
		"-out", dir, "-name", "orph", "-metrics", "moves", "-quiet",
		"-store", filepath.Join(dir, "store"),
	}
	if err := run(append([]string{"-schemes", "SR,AR"}, base...)); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-schemes", "SR"}, base...)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "orph.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Points []struct {
			Group string `json:"group"`
		} `json:"points"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Points) != 1 || m.Points[0].Group != "SR 8x8" {
		t.Errorf("narrowed run kept stored points outside its spec: %+v", m.Points)
	}
}

// TestStoreRerunChangedSpecRecomputes: a changed seed, replicate count
// or trial parameter changes results without changing any (group, N)
// label, and addresses other cells, so a rerun over the same store
// computes every cell and writes what a run without a store writes;
// extending a dimension list reuses the stored cells.
func TestStoreRerunChangedSpecRecomputes(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	base := []string{
		"-schemes", "SR", "-grids", "8x8", "-name", "inc", "-metrics", "moves", "-quiet",
	}
	if err := run(append([]string{"-spares", "8", "-seed", "1", "-replicates", "2", "-out", dir, "-store", store}, base...)); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-spares", "8,24", "-seed", "2", "-replicates", "2"},
		{"-spares", "8,24", "-seed", "1", "-replicates", "5"},
		{"-spares", "8,24", "-seed", "1", "-replicates", "2", "-adjacent"},
		{"-spares", "8,24", "-seed", "1", "-replicates", "2", "-jam-radius", "9"},
	} {
		out, ref := t.TempDir(), t.TempDir()
		if err := run(append(append([]string{"-out", out, "-store", store}, args...), base...)); err != nil {
			t.Fatal(err)
		}
		if err := run(append(append([]string{"-out", ref}, args...), base...)); err != nil {
			t.Fatal(err)
		}
		assertSameBytes(t, filepath.Join(out, "inc.json"), filepath.Join(ref, "inc.json"))
		want := 2 * 2
		if args[5] == "5" {
			want = 2 * 5
		}
		if got := executed(t, filepath.Join(out, "ledger.ndjson")); len(got) != 1 || got[0] != want {
			t.Errorf("run(%v) over the store executed %v trials, want every cell's %d", args, got, want)
		}
	}
	// The compatible extension computes only its new cell.
	out := t.TempDir()
	if err := run(append([]string{"-spares", "8,24", "-seed", "1", "-replicates", "2", "-out", out, "-store", store}, base...)); err != nil {
		t.Fatal(err)
	}
	if got := executed(t, filepath.Join(out, "ledger.ndjson")); len(got) != 1 || got[0] != 2 {
		t.Errorf("the extension executed %v trials, want the N=24 cell's 2", got)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-schemes", "nope"},
		{"-grids", "16"},
		{"-spares", "ten"},
		{"-holes", "1.5"},
		{"-workloads", "flood"},
		{"-metrics", "unknown_metric", "-grids", "8x8", "-spares", "8", "-replicates", "1", "-quiet"},
		{"-spec", "/nonexistent/spec.json"},
	}
	for _, args := range cases {
		if err := run(append(args, "-out", t.TempDir())); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestRunSpecFileRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, []byte(`{"replciates": 5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", specPath, "-out", dir, "-quiet"}); err == nil {
		t.Error("typoed spec field should fail")
	}
}

func TestParseShard(t *testing.T) {
	// 10 cells over 3 shards: blocks of 4, 3, 3.
	js, err := sim.CampaignSpec{
		Schemes: []sim.SchemeKind{sim.SR}, Spares: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, Replicates: 1,
	}.JobSpace()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		s            string
		first, count int
	}{
		{"1/3", 0, 4},
		{"2/3", 4, 3},
		{"3/3", 7, 3},
		{"1/1", 0, 10},
	}
	for _, c := range cases {
		sh, err := parseShard(c.s, js)
		first, count := sh.CellRange()
		if err != nil || first != c.first || count != c.count {
			t.Errorf("parseShard(%q) = (%d, %d, %v), want (%d, %d)",
				c.s, first, count, err, c.first, c.count)
		}
	}
	for _, bad := range []string{"", "2", "0/3", "4/3", "a/b", "2/20"} {
		if _, err := parseShard(bad, js); err == nil {
			t.Errorf("parseShard(%q) should fail", bad)
		}
	}

	// A spec names a whole campaign: a cell range in a spec file is an
	// unknown field, and the run writes nothing.
	dir := t.TempDir()
	pinned := filepath.Join(dir, "pinned.json")
	if err := os.WriteFile(pinned, []byte(`{"schemes": ["SR"], "spares": [8, 24], "replicates": 4,
		"cell_first": 0, "cell_count": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-spec", pinned, "-shard", "1/2", "-out", dir, "-quiet"})
	if err == nil || !strings.Contains(err.Error(), `unknown field "cell_first"`) {
		t.Errorf("a spec with a cell range = %v, want the unknown-field error", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("the rejected run left %d files beside its spec, want none", len(entries)-1)
	}
}

// TestShardMergeMatchesUnsharded is the multi-box sharding story end to
// end: run a campaign whole, run it again as three -shard pieces into
// one store, then run it unsharded over that store: that run computes
// nothing and writes the unsharded manifest, byte for byte, its tables
// and one ledger record like any run.
func TestShardMergeMatchesUnsharded(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	base := []string{
		"-schemes", "SR,AR", "-grids", "8x8", "-spares", "8,24", "-workloads", "holes,jam",
		"-replicates", "5", "-seed", "21", "-metrics", "moves", "-quiet",
	}
	fullDir := t.TempDir()
	if err := run(append([]string{"-out", fullDir, "-name", "merged"}, base...)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		args := append([]string{"-out", dir, "-name", fmt.Sprintf("shard%d", i), "-shard", fmt.Sprintf("%d/3", i), "-store", store}, base...)
		if err := run(args); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	if err := run(append([]string{"-out", dir, "-name", "merged", "-store", store}, base...)); err != nil {
		t.Fatalf("assembly: %v", err)
	}
	assertSameBytes(t, filepath.Join(dir, "merged.json"), filepath.Join(fullDir, "merged.json"))
	// The assembled tables exist like a normal run's.
	if _, err := os.Stat(filepath.Join(dir, "merged-moves.csv")); err != nil {
		t.Error(err)
	}
	// The assembly ledgers itself after the three shards, under the spec
	// hash of the unsharded run, with nothing executed.
	full, err := telemetry.ReadLedger(filepath.Join(fullDir, "ledger.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadLedger(filepath.Join(dir, "ledger.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[3].Mode != "run" || recs[3].SpecHash != full[0].SpecHash || recs[3].Jobs != full[0].Jobs {
		t.Errorf("ledger after the assembly = %+v, want 3 shard records and a run record matching %+v", recs, full[0])
	}
	if got := executed(t, filepath.Join(dir, "ledger.ndjson")); got[3] != 0 {
		t.Errorf("the assembly executed %d trials, want none", got[3])
	}
}

// TestMergeSingleShardDegenerate: one shard covering every cell
// (-shard 1/1) stored and then assembled by an unsharded run over the
// store gives a manifest identical to the unsharded run's.
func TestMergeSingleShardDegenerate(t *testing.T) {
	dir := t.TempDir()
	base := []string{
		"-schemes", "SR", "-grids", "8x8", "-spares", "8",
		"-replicates", "4", "-seed", "3", "-out", dir, "-metrics", "moves", "-quiet",
	}
	store := filepath.Join(dir, "store")
	if err := run(append([]string{"-name", "solo", "-shard", "1/1", "-store", store}, base...)); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-name", "plain"}, base...)); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-name", "plain2", "-store", store}, base...)); err != nil {
		t.Fatal(err)
	}
	plain, err := os.ReadFile(filepath.Join(dir, "plain.json"))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := os.ReadFile(filepath.Join(dir, "plain2.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Identical apart from the artifact name: normalize it and compare
	// bytes.
	norm := strings.Replace(string(merged), `"name": "plain2"`, `"name": "plain"`, 1)
	if norm != string(plain) {
		t.Errorf("single-shard assembly differs from the unsharded manifest:\n%s\nvs\n%s", norm, plain)
	}
	if got := executed(t, filepath.Join(dir, "ledger.ndjson")); !reflect.DeepEqual(got, []int{4, 4, 0}) {
		t.Errorf("runs executed %v trials, want [4 4 0]", got)
	}
}

// TestShardManifestRecordsRange: a shard's ledger record carries its
// cell range and mode, its manifest echoes the whole campaign's spec,
// and the manifest accounts for the shard's own trials only.
func TestShardManifestRecordsRange(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-schemes", "SR", "-grids", "8x8", "-spares", "8,24", "-replicates", "4",
		"-seed", "5", "-shard", "2/2", "-out", dir, "-name", "s", "-metrics", "moves", "-quiet",
	})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadLedger(filepath.Join(dir, "ledger.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Mode != "shard" || recs[0].CellFirst != 1 || recs[0].CellCount != 1 {
		t.Fatalf("ledger = %+v, want one shard record of cell range [1, +1)", recs)
	}
	data, err := os.ReadFile(filepath.Join(dir, "s.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m experiment.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	var spec sim.CampaignSpec
	if err := sim.UnmarshalSpecJSON(m.Spec, &spec); err != nil {
		t.Fatal(err)
	}
	if hash, err := telemetry.SpecHash(spec); err != nil || hash != recs[0].SpecHash {
		t.Errorf("manifest spec hashes to %s (%v), want the record's %s", hash, err, recs[0].SpecHash)
	}
	if m.Jobs != 4 || len(m.Points) != 1 {
		t.Errorf("shard manifest jobs = %d, points = %d; want 4 jobs (its own trials), 1 point", m.Jobs, len(m.Points))
	}
	var pt struct {
		Metrics map[string]struct {
			N int `json:"N"`
		} `json:"metrics"`
	}
	raw, _ := json.Marshal(m.Points[0])
	if err := json.Unmarshal(raw, &pt); err != nil {
		t.Fatal(err)
	}
	if pt.Metrics["moves"].N != 4 {
		t.Errorf("shard point N = %d, want 4", pt.Metrics["moves"].N)
	}
}

// TestBareDashArgumentErrors: a lone "-" or any other positional
// argument is an error, not a hang or a silently ignored input.
func TestBareDashArgumentErrors(t *testing.T) {
	for _, args := range [][]string{{"-quiet", "-"}, {"x.json", "-quiet"}, {"-quiet", "a.json", "b.json"}} {
		done := make(chan error, 1)
		go func() { done <- run(append(args, "-out", t.TempDir())) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "unexpected arguments") {
				t.Errorf("run(%v) = %v, want an unexpected-arguments error", args, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("run(%v) hung", args)
		}
	}
}

// TestRunIfCached pins the cache hit of the CLI: a run whose cells are
// all stored — here by two -shard runs at different worker counts —
// computes nothing, from any out dir, and still ends like every run:
// the manifest (byte-equal to the in-process run's), its tables, and
// one completed ledger record.
func TestRunIfCached(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	campaign := []string{
		"-schemes", "SR", "-grids", "8x8", "-spares", "8,16",
		"-replicates", "2", "-seed", "7", "-metrics", "moves", "-quiet",
	}
	refDir := t.TempDir()
	if err := run(append([]string{"-out", refDir, "-name", "cached"}, campaign...)); err != nil {
		t.Fatal(err)
	}
	shardDir := t.TempDir()
	for i := 1; i <= 2; i++ {
		args := append([]string{"-out", shardDir, "-name", fmt.Sprintf("s%d", i), "-shard", fmt.Sprintf("%d/2", i),
			"-workers", fmt.Sprint(2 * i), "-store", store}, campaign...)
		if err := run(args); err != nil {
			t.Fatal(err)
		}
	}
	hitDir := t.TempDir()
	if err := run(append([]string{"-out", hitDir, "-name", "cached", "-store", store}, campaign...)); err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, filepath.Join(hitDir, "cached.json"), filepath.Join(refDir, "cached.json"))
	if _, err := os.Stat(filepath.Join(hitDir, "cached-moves.csv")); err != nil {
		t.Error(err)
	}
	recs, err := telemetry.ReadLedger(filepath.Join(hitDir, "ledger.ndjson"))
	if err != nil || len(recs) != 1 || recs[0].Mode != "run" || recs[0].Status != telemetry.StatusCompleted {
		t.Errorf("cache-hit ledger = %+v (%v), want one completed run record", recs, err)
	}
	if got := executed(t, filepath.Join(hitDir, "ledger.ndjson")); got[0] != 0 {
		t.Errorf("the cache hit executed %d trials, want none", got[0])
	}
}

// TestListWorkloads pins the discovery surface: -list-workloads prints
// every kind with its parameter list, byte for byte, and exits without
// requiring (or running) a campaign.
func TestListWorkloads(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run([]string{"-list-workloads"})
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if got := buf.String(); got != wantWorkloadListing {
		t.Errorf("-list-workloads output changed:\n%s\nwant:\n%s", got, wantWorkloadListing)
	}
}

// wantWorkloadListing is the -list-workloads output, byte for byte: the
// listing is a user-facing surface, so a change to it is deliberate.
const wantWorkloadListing = `byzantine  lying monitors spawn phantom repairs; ClaimTTL expiry must clean up (SR, sync)
           params: holes, frac, prob, count, ttl
churn      waves of fresh holes while recovery runs
           params: holes, every, waves
depletion  movement energy drains nodes until they die mid-run
           params: holes, every, budget, per_meter, per_move
holes      vacate random cells before round 0 (the paper's Section 5 model)
           params: holes
jam        deploy complete coverage, then disable every node in a jammed disc
           params: radius
lossy      holes scenario over a lossy radio; ClaimTTL recovers dropped messages (SR, sync)
           params: holes, loss, ttl
mover      adaptive jammer: each strike relocates toward recently repaired cells
           params: every, waves, radius
overlay    compose children simultaneously from round 0
           params: children
random     seeded random composition over the registered kinds
           params: pick, count
resupply   spare nodes arrive mid-run; the scheme retries abandoned holes (sync)
           params: holes, at, every, batch, count
sequence   compose children as phases, each shifted by the gap (every)
           params: children, every
`

// TestRunTTLDimension drives -ttls end to end: the claim-TTL axis
// multiplies the campaign's groups, the non-zero TTL shows up in the
// labels, and the flag is validated like any other dimension.
func TestRunTTLDimension(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-schemes", "SR", "-grids", "6x6", "-spares", "8",
		"-ttls", "0,6", "-replicates", "2", "-seed", "3",
		"-out", dir, "-name", "ttl", "-metrics", "moves", "-quiet",
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "ttl.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Points []struct {
			Group string `json:"group"`
		} `json:"points"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Points) != 2 {
		t.Fatalf("got %d points, want 2 (one per TTL)", len(m.Points))
	}
	withTTL := 0
	for _, p := range m.Points {
		if strings.Contains(p.Group, "ttl=6") {
			withTTL++
		}
	}
	if withTTL != 1 {
		t.Errorf("want exactly one ttl=6 group, got %d in %+v", withTTL, m.Points)
	}

	// The TTL axis rides SR-family sync trials only; AR rejects it.
	if err := run([]string{
		"-schemes", "AR", "-grids", "6x6", "-spares", "8", "-ttls", "6",
		"-replicates", "1", "-out", t.TempDir(), "-quiet",
	}); err == nil {
		t.Error("AR campaign with -ttls should fail validation")
	}
	if err := run([]string{
		"-schemes", "SR", "-grids", "6x6", "-spares", "8", "-ttls", "nope",
		"-replicates", "1", "-out", t.TempDir(), "-quiet",
	}); err == nil || !strings.Contains(err.Error(), "bad integer") {
		t.Errorf("bad -ttls list = %v, want bad-integer error", err)
	}
}

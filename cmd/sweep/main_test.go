package main

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	ints, err := parseInts("10, 55,200")
	if err != nil || !reflect.DeepEqual(ints, []int{10, 55, 200}) {
		t.Errorf("parseInts = %v, %v", ints, err)
	}
	if _, err := parseInts("10,x"); err == nil {
		t.Error("bad int should fail")
	}
	if ints, err := parseInts(""); err != nil || ints != nil {
		t.Errorf("empty list = %v, %v", ints, err)
	}

	schemes, err := parseSchemes("SR,ar")
	if err != nil || !reflect.DeepEqual(schemes, []sim.SchemeKind{sim.SR, sim.AR}) {
		t.Errorf("parseSchemes = %v, %v", schemes, err)
	}
	if _, err := parseSchemes("SR,XY"); err == nil {
		t.Error("bad scheme should fail")
	}

	grids, err := parseGrids("16x16,8x12")
	if err != nil || !reflect.DeepEqual(grids, []sim.GridSize{{Cols: 16, Rows: 16}, {Cols: 8, Rows: 12}}) {
		t.Errorf("parseGrids = %v, %v", grids, err)
	}
	for _, bad := range []string{"16by16", "16x16x3", "8x8junk"} {
		if _, err := parseGrids(bad); err == nil {
			t.Errorf("parseGrids(%q) should fail", bad)
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
	wls, err := parseWorkloads("holes, churn")
	if err != nil || !reflect.DeepEqual(wls, []sim.WorkloadSpec{{Kind: "holes"}, {Kind: "churn"}}) {
		t.Errorf("parseWorkloads = %v, %v", wls, err)
	}
	if _, err := parseWorkloads("meteor"); err == nil {
		t.Error("unknown workload kind should fail")
	}
	rs, err := parseRunners("sync,async")
	if err != nil || !reflect.DeepEqual(rs, []sim.RunnerKind{sim.RunSync, sim.RunAsync}) {
		t.Errorf("parseRunners = %v, %v", rs, err)
	}
	if _, err := parseRunners("warp"); err == nil {
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

// TestRunResume pins the -resume satellite: a manifest produced by a
// partial campaign plus a resumed run over a wider spec must be
// byte-identical to the wider campaign run from scratch, and cells
// already present must not rerun.
func TestRunResume(t *testing.T) {
	dir := t.TempDir()
	base := []string{
		"-schemes", "SR,AR", "-grids", "8x8", "-replicates", "3",
		"-seed", "11", "-out", dir, "-name", "res",
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
	// Phase 2: resume over the widened spares axis.
	if err := run(append([]string{"-spares", "8,24", "-resume"}, base...)); err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(filepath.Join(dir, "res.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(narrow, resumed) {
		t.Fatal("resume added no points")
	}
	// Reference: the widened campaign from scratch. Replicate seeds are
	// shared across cells, so the N=8 cells agree and the merged
	// manifest must be byte-identical.
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
		t.Errorf("resumed manifest differs from from-scratch manifest:\n%s\nvs\n%s", resumed, ref)
	}
	// Phase 3: resuming a complete manifest runs nothing and keeps the
	// points intact.
	if err := run(append([]string{"-spares", "8,24", "-resume"}, base...)); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(filepath.Join(dir, "res.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, ref) {
		t.Error("no-op resume changed the manifest")
	}

	// Phase 4: the same complete manifest with its echoed spec in the
	// older "failures" spelling, as manifests written before workloads
	// replaced that list read. It is the same campaign: manifestdiff
	// finds nothing, and resuming from it runs no trial and writes the
	// cold run's bytes.
	oldPath := filepath.Join(dir, "res.json")
	if err := os.WriteFile(oldPath, withFailuresEcho(t, ref), 0o644); err != nil {
		t.Fatal(err)
	}
	diffs, err := dispatch.DiffManifests(oldPath, filepath.Join(refDir, "res.json"), 0)
	if err != nil || len(diffs) != 0 {
		t.Errorf("failures-spelled manifest differs from the cold run: %v %v", diffs, err)
	}
	spec := sim.CampaignSpec{
		Schemes: []sim.SchemeKind{sim.SR, sim.AR}, Grids: []sim.GridSize{{Cols: 8, Rows: 8}},
		Spares: []int{8, 24}, Replicates: 3, BaseSeed: 11,
	}.Normalized()
	prior, err := loadResumeManifest(oldPath, spec)
	if err != nil {
		t.Fatal(err)
	}
	if plan := dispatch.PlanLocal(spec, "res", prior, ""); plan.Executed != 0 || plan.Orphans != 0 {
		t.Errorf("resume from the failures-spelled manifest plans %d trials and %d orphans, want none",
			plan.Executed, plan.Orphans)
	}
	if err := run(append([]string{"-spares", "8,24", "-resume"}, base...)); err != nil {
		t.Fatal(err)
	}
	if again, err = os.ReadFile(oldPath); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, ref) {
		t.Error("resume from the failures-spelled manifest differs from the cold run")
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

// TestRunResumeUnionsManifestAndLog: -resume carries the cells of both
// the prior manifest and the checkpoint log beside it, recomputes only
// the rest, and removes the spent log; a log whose header echoes
// another campaign's physics is rejected. The carried cells are marked
// (a sentinel mean), so the final manifest shows where each came from.
func TestRunResumeUnionsManifestAndLog(t *testing.T) {
	args := func(out, spares string, extra ...string) []string {
		return append([]string{
			"-schemes", "SR,AR", "-grids", "8x8", "-replicates", "3", "-seed", "11",
			"-spares", spares, "-out", out, "-name", "res", "-metrics", "", "-quiet",
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
	mark := func(p *experiment.Point) {
		d := p.Metrics["moves"]
		d.Mean = sentinel
		p.Metrics["moves"] = d
	}

	// The prior manifest holds the N=8 cells, SR's one marked.
	dir := t.TempDir()
	if err := run(args(dir, "8")); err != nil {
		t.Fatal(err)
	}
	prior := load(filepath.Join(dir, "res.json"))
	mark(&prior.Points[1]) // canonical order: AR 8x8, SR 8x8
	if _, err := prior.Save(dir); err != nil {
		t.Fatal(err)
	}
	// The log, as a run of N=24 cut short would leave it, holds SR's
	// N=24 cell, marked.
	other := t.TempDir()
	if err := run(args(other, "24")); err != nil {
		t.Fatal(err)
	}
	logged := load(filepath.Join(other, "res.json"))
	sr24 := logged.Points[1]
	mark(&sr24)
	log, err := experiment.CreateCellLog(experiment.CellLogPath(dir, "res"), &logged,
		[]experiment.CellRecord{{Point: sr24, Trials: 3}})
	if err != nil {
		t.Fatal(err)
	}
	log.Close()

	if err := run(args(dir, "8,24,40", "-resume")); err != nil {
		t.Fatal(err)
	}
	got := load(filepath.Join(dir, "res.json"))
	refDir := t.TempDir()
	if err := run(args(refDir, "8,24,40")); err != nil {
		t.Fatal(err)
	}
	want := load(filepath.Join(refDir, "res.json"))
	if len(got.Points) != len(want.Points) {
		t.Fatalf("resumed manifest has %d points, want %d", len(got.Points), len(want.Points))
	}
	for i, p := range got.Points {
		carried := p.Group == "SR 8x8" && (p.X == 8 || p.X == 24)
		if mean := p.Metrics["moves"].Mean; carried != (mean == sentinel) {
			t.Errorf("%s N=%g: moves mean %g; carried from manifest or log: %v", p.Group, p.X, mean, carried)
		}
		if carried {
			got.Points[i] = want.Points[i]
		}
	}
	if !reflect.DeepEqual(got.Points, want.Points) {
		t.Error("recomputed cells differ from a from-scratch run")
	}
	if _, err := os.Stat(experiment.CellLogPath(dir, "res")); !os.IsNotExist(err) {
		t.Errorf("the spent cell log survived the final manifest (stat err %v)", err)
	}

	// A log from a campaign with another seed is not resumable.
	foreign := t.TempDir()
	if err := run(append(args(foreign, "8"), "-seed", "12")); err != nil {
		t.Fatal(err)
	}
	head := load(filepath.Join(foreign, "res.json"))
	bad := t.TempDir()
	if log, err = experiment.CreateCellLog(experiment.CellLogPath(bad, "res"), &head, nil); err != nil {
		t.Fatal(err)
	}
	log.Close()
	if err := run(args(bad, "8", "-resume")); err == nil || !strings.Contains(err.Error(), "resume log") {
		t.Errorf("resume over a foreign log: err = %v, want a resume log rejection", err)
	}
}

// TestRunResumeDropsOrphanCells pins manifest self-consistency: prior
// points whose dimension values the current spec no longer lists are
// dropped, so the written manifest never contains points its recorded
// spec cannot describe.
func TestRunResumeDropsOrphanCells(t *testing.T) {
	dir := t.TempDir()
	base := []string{
		"-grids", "8x8", "-spares", "8", "-replicates", "2", "-seed", "3",
		"-out", dir, "-name", "orph", "-metrics", "moves", "-quiet",
	}
	if err := run(append([]string{"-schemes", "SR,AR"}, base...)); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-schemes", "SR", "-resume"}, base...)); err != nil {
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
		t.Errorf("narrowed resume kept orphan points: %+v", m.Points)
	}
}

// TestRunResumeRejectsIncompatibleSpec pins the merge-soundness check:
// a resume may extend dimension lists, but changing the seed, replicate
// count, or pass-through trial parameters would silently mix
// incomparable points under unchanged (group, N) labels.
func TestRunResumeRejectsIncompatibleSpec(t *testing.T) {
	dir := t.TempDir()
	base := []string{
		"-schemes", "SR", "-grids", "8x8", "-out", dir, "-name", "inc",
		"-metrics", "moves", "-quiet",
	}
	if err := run(append([]string{"-spares", "8", "-seed", "1", "-replicates", "2"}, base...)); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-spares", "8,24", "-seed", "2", "-replicates", "2", "-resume"},
		{"-spares", "8,24", "-seed", "1", "-replicates", "5", "-resume"},
		{"-spares", "8,24", "-seed", "1", "-replicates", "2", "-adjacent", "-resume"},
	} {
		if err := run(append(args, base...)); err == nil ||
			!strings.Contains(err.Error(), "resume manifest") {
			t.Errorf("run(%v) = %v, want incompatible-resume error", args, err)
		}
	}
	// The compatible extension still works.
	if err := run(append([]string{"-spares", "8,24", "-seed", "1", "-replicates", "2", "-resume"}, base...)); err != nil {
		t.Errorf("compatible resume failed: %v", err)
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
		first, count, err := parseShard(c.s, 10)
		if err != nil || first != c.first || count != c.count {
			t.Errorf("parseShard(%q, 10) = (%d, %d, %v), want (%d, %d)",
				c.s, first, count, err, c.first, c.count)
		}
	}
	for _, bad := range []string{"", "2", "0/3", "4/3", "a/b", "2/20"} {
		if _, _, err := parseShard(bad, 10); err == nil {
			t.Errorf("parseShard(%q, 10) should fail", bad)
		}
	}

	// A spec that already pins a cell range is a shard; it cannot be
	// sharded again.
	dir := t.TempDir()
	pinned := filepath.Join(dir, "pinned.json")
	if err := os.WriteFile(pinned, []byte(`{"schemes": ["SR"], "spares": [8, 24], "replicates": 4,
		"cell_first": 0, "cell_count": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-spec", pinned, "-shard", "1/2", "-out", dir, "-quiet"})
	if err == nil || !strings.Contains(err.Error(), "already pins a cell range") {
		t.Errorf("-shard on a pinned spec = %v, want the already-pinned error", err)
	}
}

// TestShardMergeMatchesUnsharded is the multi-box sharding story end to
// end: run a campaign whole, run it again as three -shard pieces, merge
// the pieces, and compare: the merge is the unsharded manifest, byte for
// byte.
func TestShardMergeMatchesUnsharded(t *testing.T) {
	dir := t.TempDir()
	base := []string{
		"-schemes", "SR,AR", "-grids", "8x8", "-spares", "8,24", "-workloads", "holes,jam",
		"-replicates", "5", "-seed", "21", "-metrics", "moves", "-quiet",
	}
	fullDir := t.TempDir()
	if err := run(append([]string{"-out", fullDir, "-name", "merged"}, base...)); err != nil {
		t.Fatal(err)
	}
	shardPaths := make([]string, 0, 3)
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("shard%d", i)
		args := append([]string{"-out", dir, "-name", name, "-shard", fmt.Sprintf("%d/3", i)}, base...)
		if err := run(args); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		shardPaths = append(shardPaths, filepath.Join(dir, name+".json"))
	}
	mergeArgs := append([]string{"-merge", "-out", dir, "-name", "merged", "-metrics", "moves"}, shardPaths...)
	if err := run(mergeArgs); err != nil {
		t.Fatalf("merge: %v", err)
	}
	assertSameBytes(t, filepath.Join(dir, "merged.json"), filepath.Join(fullDir, "merged.json"))
	// The merged tables exist like a normal run's.
	if _, err := os.Stat(filepath.Join(dir, "merged-moves.csv")); err != nil {
		t.Error(err)
	}
	// The merge ledgers itself after the three shards, under the spec
	// hash of the unsharded run.
	full, err := telemetry.ReadLedger(filepath.Join(fullDir, "ledger.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadLedger(filepath.Join(dir, "ledger.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[3].Mode != "merge" || recs[3].SpecHash != full[0].SpecHash || recs[3].Jobs != full[0].Jobs {
		t.Errorf("ledger after the merge = %+v, want 3 shard records and a merge record matching %+v", recs, full[0])
	}

	// A shard whose spec names its damage with the older "failures"
	// list is the same campaign and merges into the same bytes.
	oldDir := t.TempDir()
	data, err := os.ReadFile(shardPaths[0])
	if err != nil {
		t.Fatal(err)
	}
	oldShard := filepath.Join(oldDir, "shard1.json")
	if err := os.WriteFile(oldShard, withFailuresEcho(t, data), 0o644); err != nil {
		t.Fatal(err)
	}
	mergeArgs = []string{"-merge", "-out", oldDir, "-name", "merged", "-metrics", "", oldShard, shardPaths[1], shardPaths[2]}
	if err := run(mergeArgs); err != nil {
		t.Fatalf("merge with a failures-spelled shard: %v", err)
	}
	want, err := os.ReadFile(filepath.Join(dir, "merged.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(oldDir, "merged.json")); err != nil || !bytes.Equal(got, want) {
		t.Errorf("merge with a failures-spelled shard differs (%v)", err)
	}
}

// TestMergeRejectsBadShardSets: overlaps, gaps, spec mismatches, a
// shard merged with a whole-campaign manifest, and the same shard
// passed twice must all fail loudly instead of merging quietly.
func TestMergeRejectsBadShardSets(t *testing.T) {
	dir := t.TempDir()
	base := []string{
		"-schemes", "SR", "-grids", "8x8", "-spares", "8,24",
		"-replicates", "4", "-seed", "3", "-out", dir, "-metrics", "moves", "-quiet",
	}
	mk := func(name, shard string, extra ...string) string {
		args := append([]string{"-name", name}, base...)
		if shard != "" {
			args = append(args, "-shard", shard)
		}
		args = append(args, extra...)
		if err := run(args); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return filepath.Join(dir, name+".json")
	}
	s1 := mk("s1", "1/2")
	s2 := mk("s2", "2/2")
	s2copy := mk("s2copy", "2/2") // same shard rerun under a new name
	whole := mk("whole", "")
	if err := run([]string{
		"-name", "o2", "-shard", "2/2", "-schemes", "SR", "-grids", "8x8",
		"-spares", "8,24", "-replicates", "4", "-seed", "999", "-out", dir,
		"-metrics", "moves", "-quiet",
	}); err != nil {
		t.Fatal(err)
	}
	o2 := filepath.Join(dir, "o2.json")
	// A genuinely overlapping range (cells [0, 2) against [0, 1)) needs a
	// spec file: -shard only produces even tilings.
	overlapSpec := filepath.Join(dir, "overlap.spec.json")
	if err := os.WriteFile(overlapSpec, []byte(`{
		"schemes": ["SR"], "grids": [{"cols": 8, "rows": 8}], "spares": [8, 24],
		"replicates": 4, "seed": 3, "cell_first": 0, "cell_count": 2
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", overlapSpec, "-name", "ov", "-out", dir, "-metrics", "moves", "-quiet"}); err != nil {
		t.Fatal(err)
	}
	ov := filepath.Join(dir, "ov.json")

	cases := []struct {
		name  string
		paths []string
		want  string
	}{
		{"same-path-twice", []string{s1, s1}, "passed twice"},
		{"same-shard-two-files", []string{s1, s2, s2copy}, "same shard"},
		{"overlap", []string{s1, ov}, "overlaps"},
		{"gap", []string{s2}, "missing"},
		{"missing-tail", []string{s1}, "missing"},
		{"shard-and-whole", []string{s1, whole}, "overlaps"},
		{"spec-mismatch", []string{s1, o2}, "different campaign specs"},
		{"no-manifests", nil, "no shard manifests"},
	}
	for _, c := range cases {
		args := append([]string{"-merge", "-out", dir, "-name", "bad", "-metrics", "moves"}, c.paths...)
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: run(-merge %v) = %v, want error containing %q", c.name, c.paths, err, c.want)
		}
	}
}

// TestMergeSingleShardDegenerate: one manifest covering every cell
// (-shard 1/1) merges into a manifest identical to the unsharded run's,
// with only the cell range stripped from its spec.
func TestMergeSingleShardDegenerate(t *testing.T) {
	dir := t.TempDir()
	base := []string{
		"-schemes", "SR", "-grids", "8x8", "-spares", "8",
		"-replicates", "4", "-seed", "3", "-out", dir, "-metrics", "moves", "-quiet",
	}
	if err := run(append([]string{"-name", "solo", "-shard", "1/1"}, base...)); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-name", "plain"}, base...)); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-merge", filepath.Join(dir, "solo.json"),
		"-out", dir, "-name", "plain2", "-metrics", "moves"}); err != nil {
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
		t.Errorf("single-shard merge differs from the unsharded manifest:\n%s\nvs\n%s", norm, plain)
	}
}

// TestShardManifestRecordsRange: a shard's manifest must carry its
// cell range, and account for its own trials only.
func TestShardManifestRecordsRange(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-schemes", "SR", "-grids", "8x8", "-spares", "8,24", "-replicates", "4",
		"-seed", "5", "-shard", "2/2", "-out", dir, "-name", "s", "-metrics", "moves", "-quiet",
	})
	if err != nil {
		t.Fatal(err)
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
	if err := json.Unmarshal(m.Spec, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.CellFirst != 1 || spec.CellCount != 1 {
		t.Errorf("cell range [%d, +%d), want [1, +1)", spec.CellFirst, spec.CellCount)
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

// TestBareDashArgumentErrors: a lone "-" must produce an error, not an
// infinite flag-reparse loop (regression test).
func TestBareDashArgumentErrors(t *testing.T) {
	done := make(chan error, 1)
	go func() { done <- run([]string{"-merge", "a.json", "-"}) }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("run(-merge a.json -) should fail")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run(-merge a.json -) hung")
	}
	// Positionals without -merge are rejected too.
	if err := run([]string{"x.json", "-out", t.TempDir(), "-quiet"}); err == nil ||
		!strings.Contains(err.Error(), "unexpected arguments") {
		t.Errorf("stray positional = %v, want unexpected-arguments error", err)
	}
}

// TestRunIfCached pins the CLI cache path: two -shard runs merged with
// -merge -if-cached install a manifest byte-equal to the in-process
// run's, a later in-process run of the same science — different out
// dir, different worker count — is answered from the store without
// writing a manifest, and shard-pinned specs are refused (a shard is
// not the whole campaign).
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
	direct, err := os.ReadFile(filepath.Join(refDir, "cached.json"))
	if err != nil {
		t.Fatal(err)
	}
	shardDir := t.TempDir()
	var shards []string
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("s%d", i)
		if err := run(append([]string{"-out", shardDir, "-name", name, "-shard", fmt.Sprintf("%d/2", i)}, campaign...)); err != nil {
			t.Fatal(err)
		}
		shards = append(shards, filepath.Join(shardDir, name+".json"))
	}
	mergeDir := t.TempDir()
	merge := append([]string{"-merge", "-out", mergeDir, "-name", "cached", "-metrics", "moves", "-if-cached", store}, shards...)
	if err := run(merge); err != nil {
		t.Fatal(err)
	}
	stored, err := filepath.Glob(filepath.Join(store, "manifests", "*.json"))
	if err != nil || len(stored) != 1 {
		t.Fatalf("store holds %d manifests (%v), want 1", len(stored), err)
	}
	data, err := os.ReadFile(stored[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, direct) {
		t.Errorf("merge-installed manifest differs from the in-process run's:\n%s\nvs\n%s", data, direct)
	}
	recs, err := telemetry.ReadLedger(filepath.Join(mergeDir, "ledger.ndjson"))
	if err != nil || len(recs) != 1 || recs[0].Mode != "merge" || recs[0].Status != telemetry.StatusCompleted {
		t.Errorf("merge ledger = %+v (%v), want one completed mode-merge record", recs, err)
	}

	campaign = append(campaign, "-if-cached", store)
	out2 := t.TempDir()
	if err := run(append([]string{"-out", out2, "-name", "cached", "-workers", "4"}, campaign...)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(out2, "cached.json")); !os.IsNotExist(err) {
		t.Errorf("cache hit still wrote a manifest (stat err %v)", err)
	}

	err = run(append([]string{"-out", t.TempDir(), "-shard", "1/2"}, campaign...))
	if err == nil || !strings.Contains(err.Error(), "-if-cached") {
		t.Errorf("-if-cached with -shard = %v, want rejection", err)
	}
}

// TestListWorkloads pins the discovery surface: -list-workloads prints
// every registered kind with its parameter list and exits without
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
	out := buf.String()
	for _, info := range sim.WorkloadInfos() {
		if !strings.Contains(out, info.Kind) {
			t.Errorf("listing missing kind %q:\n%s", info.Kind, out)
		}
	}
	if !strings.Contains(out, "params:") {
		t.Errorf("listing has no parameter lines:\n%s", out)
	}
}

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

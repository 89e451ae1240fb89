package dispatch

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"wsncover/internal/experiment"
	"wsncover/internal/sim"
)

// smallSpec is a two-cell campaign quick enough to run per fuzz input.
func smallSpec() sim.CampaignSpec {
	return sim.CampaignSpec{
		Schemes:    []sim.SchemeKind{sim.SR},
		Grids:      []sim.GridSize{{Cols: 8, Rows: 8}},
		Spares:     []int{4, 8},
		Replicates: 2,
		BaseSeed:   11,
	}.Normalized()
}

// storedSegment runs js over a fresh store and returns the one
// segment the run wrote.
func storedSegment(t testing.TB, js sim.JobSpace) []byte {
	t.Helper()
	root := t.TempDir()
	runBytes(t, planJobs(t, js, OpenCellStore(root)))
	segs := segments(t, root)
	if len(segs) != 1 {
		t.Fatalf("run wrote %d segments, want 1", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// writeSegments creates a store directory whose cells/ holds the given
// segments, by file name.
func writeSegments(t testing.TB, segs map[string][]byte) string {
	t.Helper()
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "cells"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range segs {
		if err := os.WriteFile(filepath.Join(root, "cells", name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestCellStoreSegments: the store is the union of its segments,
// whichever process wrote them and wherever they were copied from, and
// serves a cell only from a line of this engine version. Every run ends
// byte-identical to a run without a store.
func TestCellStoreSegments(t *testing.T) {
	spec := resumeSpec() // 6 cells
	want, _ := runBytes(t, plan(t, spec, nil))
	shard := func(i, n int) sim.JobSpace { return shardOf(t, spec, i, n) }
	check := func(t *testing.T, root string, wantReused int) {
		t.Helper()
		r := plan(t, spec, OpenCellStore(root))
		if r.Reused != wantReused || r.Executed != (r.Cells-wantReused)*spec.Replicates {
			t.Fatalf("run reuses %d of %d cells and runs %d trials; want %d reused",
				r.Reused, r.Cells, r.Executed, wantReused)
		}
		if got, _ := runBytes(t, r); !bytes.Equal(got, want) {
			t.Error("manifest differs from a run without a store")
		}
	}

	t.Run("two writers unioned", func(t *testing.T) {
		root := t.TempDir()
		runBytes(t, planJobs(t, shard(1, 2), OpenCellStore(root)))
		runBytes(t, planJobs(t, shard(2, 2), OpenCellStore(root)))
		if n := len(segments(t, root)); n != 2 {
			t.Fatalf("two writers left %d segments, want 2", n)
		}
		check(t, root, 6)
	})

	t.Run("segment copied from another store", func(t *testing.T) {
		root := writeSegments(t, map[string][]byte{"box-b.ndjson": storedSegment(t, shard(2, 2))})
		runBytes(t, planJobs(t, shard(1, 2), OpenCellStore(root)))
		check(t, root, 6)
	})

	t.Run("torn tail in another writer's segment", func(t *testing.T) {
		seg := storedSegment(t, jobSpace(t, spec))
		root := writeSegments(t, map[string][]byte{"dead.ndjson": seg[:len(seg)-5]})
		check(t, root, 5)
	})

	t.Run("wrong engine misses", func(t *testing.T) {
		lines := bytes.SplitAfter(storedSegment(t, jobSpace(t, spec)), []byte("\n"))
		engine := []byte(`{"engine":1,`)
		if !bytes.HasPrefix(lines[0], engine) {
			t.Fatalf("cell line %q does not open with the engine version", lines[0])
		}
		// Another engine's line, and a line without an engine (as the
		// first cell store, a top-level cells.ndjson, wrote them).
		lines[0] = bytes.Replace(lines[0], engine, []byte(`{"engine":2,`), 1)
		lines[1] = bytes.Replace(lines[1], engine, []byte(`{`), 1)
		root := writeSegments(t, map[string][]byte{"old.ndjson": bytes.Join(lines, nil)})
		check(t, root, 4)
	})

	t.Run("top-level file not read", func(t *testing.T) {
		root := t.TempDir()
		if err := os.WriteFile(filepath.Join(root, "cells.ndjson"), storedSegment(t, jobSpace(t, spec)), 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, root, 0)
	})

	t.Run("an invalid later line does not shadow a valid one", func(t *testing.T) {
		seg := storedSegment(t, jobSpace(t, spec))
		bad := bytes.ReplaceAll(seg, []byte(`"trials":4}`), []byte(`"trials":5}`))
		root := writeSegments(t, map[string][]byte{"a.ndjson": seg, "b.ndjson": bad})
		check(t, root, 6)
	})
}

// TestCellStoreLiveIndex: a store whose index is built serves cells
// another store appends to the same directory later, without being
// reopened, including a line that was torn when it was first scanned
// and completed since. Its own appends are indexed once: a re-scan
// after them adds only the other writer's lines.
func TestCellStoreLiveIndex(t *testing.T) {
	spec := resumeSpec() // 6 cells
	shard := func(i, n int) sim.JobSpace { return shardOf(t, spec, i, n) }
	root := t.TempDir()
	a := OpenCellStore(root)
	// A builds its index over an empty directory and stores cells 0-1.
	runBytes(t, planJobs(t, shard(1, 3), a))
	// Another store appends cells 2-3, and a dead writer left cell 4
	// with its last bytes missing.
	runBytes(t, planJobs(t, shard(2, 3), OpenCellStore(root)))
	seg := storedSegment(t, shard(5, 6))
	dead := filepath.Join(root, "cells", "dead.ndjson")
	if err := os.WriteFile(dead, seg[:len(seg)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if r := plan(t, spec, a); r.Reused != 4 {
		t.Fatalf("store reuses %d cells after another writer's appends, want 4", r.Reused)
	}
	// The dead writer's line is completed; A finds it on its next miss.
	if err := os.WriteFile(dead, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	r := plan(t, spec, a)
	if r.Reused != 5 {
		t.Fatalf("store reuses %d cells after the torn line was completed, want 5", r.Reused)
	}
	for key, lines := range a.index {
		if len(lines) != 1 {
			t.Errorf("key %s indexed %d times: %v", key, len(lines), lines)
		}
	}
	want, _ := runBytes(t, plan(t, spec, nil))
	if got, _ := runBytes(t, r); !bytes.Equal(got, want) {
		t.Error("manifest over the live index differs from a run without a store")
	}
}

// addresses returns the store address of each of spec's cells, in cell
// order.
func addresses(t testing.TB, spec sim.CampaignSpec) []cellAddr {
	t.Helper()
	var addrs []cellAddr
	err := jobSpace(t, spec).Cells(func(_ int, j sim.TrialJob) error {
		a, err := addressCell(spec, j)
		addrs = append(addrs, a)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return addrs
}

// TestCellStoreMemo: a store remembers the lines it appends and the
// lines it verifies, by digest, and serves a remembered line only when
// the bytes it re-reads hash to that digest under the same address.
// Every line an append remembers is one verifyCellLine accepts with
// the remembered point; a line rewritten in place to the same length is
// checked in full again, served with its new point when it still
// verifies and missed (and recomputed) when it does not; and a digest
// hit under another address misses.
func TestCellStoreMemo(t *testing.T) {
	spec := resumeSpec() // 6 cells
	want, _ := runBytes(t, plan(t, spec, nil))
	addrs := addresses(t, spec)
	// stored runs spec into a new store and returns the store, its one
	// segment's path and the segment's lines, in cell order.
	stored := func(t *testing.T) (*CellStore, string, [][]byte) {
		root := t.TempDir()
		store := OpenCellStore(root)
		runBytes(t, plan(t, spec, store))
		seg := segments(t, root)[0]
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		return store, seg, lines[:len(lines)-1]
	}
	pointJSON := func(t *testing.T, p *experiment.Point) []byte {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// rewrite replaces old by new, of the same length, in the segment's
	// first line, in place.
	rewrite := func(t *testing.T, seg string, lines [][]byte, old, new string) {
		line := bytes.Replace(lines[0], []byte(old), []byte(new), 1)
		if bytes.Equal(line, lines[0]) || len(line) != len(lines[0]) {
			t.Fatalf("rewriting %q as %q leaves a line of %d bytes, was %d", old, new, len(line), len(lines[0]))
		}
		data := bytes.Join(append([][]byte{line}, lines[1:]...), nil)
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("appended lines verify", func(t *testing.T) {
		store, _, lines := stored(t)
		if n := len(store.verified.lines); n != len(lines) {
			t.Fatalf("the store remembers %d lines, appended %d", n, len(lines))
		}
		for i, line := range lines {
			v, ok := store.verified.lines[sha256.Sum256(line)]
			if !ok {
				t.Fatalf("line %d is not remembered", i)
			}
			p, err := verifyCellLine(line, v.addr)
			if err != nil {
				t.Fatalf("remembered line %d does not verify: %v", i, err)
			}
			if !bytes.Equal(pointJSON(t, p), pointJSON(t, v.point)) {
				t.Fatalf("line %d decodes to another point than the remembered one", i)
			}
		}
		r := plan(t, spec, store)
		if r.Reused != r.Cells {
			t.Fatalf("%d of %d remembered cells served", r.Reused, r.Cells)
		}
		if got, _ := runBytes(t, r); !bytes.Equal(got, want) {
			t.Error("manifest from remembered cells differs from a run without a store")
		}
	})

	t.Run("rewritten line that verifies is served anew", func(t *testing.T) {
		store, seg, lines := stored(t)
		rewrite(t, seg, lines, `"holes_before":{"N":4,"Mean":1,`, `"holes_before":{"N":4,"Mean":2,`)
		r := plan(t, spec, store)
		if r.Reused != r.Cells {
			t.Fatalf("%d of %d cells served", r.Reused, r.Cells)
		}
		if got := r.prior[0].Metrics["holes_before"].Mean; got != 2 {
			t.Errorf("rewritten cell served with holes_before mean %g, want the rewritten 2", got)
		}
	})

	t.Run("rewritten line that fails is recomputed", func(t *testing.T) {
		store, seg, lines := stored(t)
		rewrite(t, seg, lines, `"trials":4}`, `"trials":5}`)
		r := plan(t, spec, store)
		if r.Reused != r.Cells-1 || r.Executed != spec.Replicates {
			t.Fatalf("%d of %d cells served, %d trials planned; want all but the rewritten one", r.Reused, r.Cells, r.Executed)
		}
		if got, _ := runBytes(t, r); !bytes.Equal(got, want) {
			t.Error("manifest with the rewritten cell recomputed differs from a run without a store")
		}
	})

	t.Run("digest hit under another address misses", func(t *testing.T) {
		store, _, lines := stored(t)
		if _, ok := store.verified.lines[sha256.Sum256(lines[0])]; !ok {
			t.Fatal("the first line is not remembered")
		}
		moreTrials, otherGroup, otherX := addrs[0], addrs[0], addrs[0]
		moreTrials.trials++
		otherGroup.group += " other"
		otherX.x++
		got := store.lookup([]cellAddr{moreTrials, otherGroup, otherX, addrs[0]})
		for i, p := range got[:3] {
			if p != nil {
				t.Errorf("address %d, another than the line's, served %q N=%g", i, p.Group, p.X)
			}
		}
		if got[3] == nil {
			t.Error("the line's own address missed")
		}
	})
}

// TestCellStoreAppendsVerify: the lines a store appends, written
// without reflection and remembered unchecked, are the bytes
// json.Marshal writes for their cellLine, and with the memo emptied a
// lookup serves every one of the service-mix base campaign's 32 cells
// through the full check (verifyCellLine), as does a store reopened on
// the directory.
func TestCellStoreAppendsVerify(t *testing.T) {
	spec := sim.CampaignSpec{
		Schemes:    []sim.SchemeKind{sim.SR, sim.AR},
		Grids:      []sim.GridSize{{Cols: 16, Rows: 16}},
		Spares:     []int{10, 25, 40, 55, 70, 100, 150, 200},
		Holes:      []int{1, 3},
		Replicates: 16,
		BaseSeed:   1000,
	}.Normalized()
	root := t.TempDir()
	store := OpenCellStore(root)
	want, _ := runBytes(t, plan(t, spec, store))
	data, err := os.ReadFile(segments(t, root)[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines = lines[:len(lines)-1]
	for i, line := range lines {
		var l cellLine
		if err := strictUnmarshal(line[:len(line)-1], &l); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		ref, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, append(ref, '\n')) {
			t.Fatalf("line %d:\n got %s want %s", i, line, ref)
		}
	}

	store.verified = lineMemo{}
	addrs := addresses(t, spec)
	if len(addrs) != 32 || len(lines) != len(addrs) {
		t.Fatalf("%d cells, %d lines; want 32 of each", len(addrs), len(lines))
	}
	for k, p := range store.lookup(addrs) {
		if p == nil {
			t.Fatalf("cell %d (%s N=%g) is not served once the memo is emptied", k, addrs[k].group, addrs[k].x)
		}
	}
	if n := len(store.verified.lines); n != len(addrs) {
		t.Fatalf("the full check passed %d lines, want %d", n, len(addrs))
	}
	for _, s := range []*CellStore{store, OpenCellStore(root)} {
		r := plan(t, spec, s)
		if r.Reused != r.Cells {
			t.Fatalf("%d of %d cells reused", r.Reused, r.Cells)
		}
		if got, _ := runBytes(t, r); !bytes.Equal(got, want) {
			t.Error("manifest from the verified cells differs from the computing run's")
		}
	}
}

// FuzzCellStore: whatever two segments of a store directory hold, the
// store never panics and serves a cell only from a whole line of one of
// them that verifies as that cell's, and a second lookup, warm with the
// lines the first verified, serves the same. A run over the store then computes
// exactly the cells it missed, byte-identical to a run without a store,
// and afterwards every cell is served with the manifest's point, by this
// store and by a reopened one.
func FuzzCellStore(f *testing.F) {
	spec := smallSpec()
	ref, _ := runBytes(f, plan(f, spec, nil))
	var refM experiment.Manifest
	if err := json.Unmarshal(ref, &refM); err != nil {
		f.Fatal(err)
	}
	good := storedSegment(f, jobSpace(f, spec))
	f.Add(good, []byte{})
	f.Add(good[:len(good)-9], good)
	f.Add(append(bytes.Clone(good), good...), []byte{})
	f.Add(good, bytes.Replace(good, []byte(`"trials":2`), []byte(`"trials":3`), 1))
	f.Add([]byte("not a cell line\n{}\n\n"), []byte{})
	f.Add([]byte{}, []byte{})

	// The address of each of spec's cells, by (group, X).
	type cellKey struct {
		group string
		x     float64
	}
	addrs := make(map[cellKey]cellAddr)
	for _, a := range addresses(f, spec) {
		addrs[cellKey{a.group, a.x}] = a
	}
	pointJSON := func(t *testing.T, p experiment.Point) []byte {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		root := writeSegments(t, map[string][]byte{"a.ndjson": a, "b.ndjson": b})
		store := OpenCellStore(root)
		r := plan(t, spec, store)
		served := make(map[cellKey][]byte)
		for _, p := range r.prior {
			served[cellKey{p.Group, p.X}] = pointJSON(t, p)
		}
		if len(served) != r.Reused || r.Executed != (r.Cells-r.Reused)*spec.Replicates {
			t.Fatalf("%d cells served, %d reused, %d trials planned", len(served), r.Reused, r.Executed)
		}
		// A warm pass, served from the lines the cold one verified, must
		// give the cold pass's answers.
		warm := plan(t, spec, store)
		if warm.Reused != r.Reused || warm.Executed != r.Executed {
			t.Fatalf("warm pass reuses %d cells and plans %d trials, cold %d and %d",
				warm.Reused, warm.Executed, r.Reused, r.Executed)
		}
		for _, p := range warm.prior {
			if !bytes.Equal(pointJSON(t, p), served[cellKey{p.Group, p.X}]) {
				t.Fatalf("warm pass serves %q N=%g with another point than the cold pass", p.Group, p.X)
			}
		}
		for k, p := range served {
			verified := false
			for _, seg := range [][]byte{a, b} {
				for _, line := range bytes.SplitAfter(seg, []byte("\n")) {
					if q, err := verifyCellLine(line, addrs[k]); err == nil && bytes.Equal(pointJSON(t, *q), p) {
						verified = true
					}
				}
			}
			if !verified {
				t.Fatalf("served %q N=%g from no line of the segments that verifies as that cell", k.group, k.x)
			}
		}

		m, ran, err := r.Run(t.Context(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if ran != r.Executed {
			t.Fatalf("run executed %d trials, planned %d", ran, r.Executed)
		}
		for i, p := range m.Points {
			k := cellKey{p.Group, p.X}
			if s, ok := served[k]; ok && !bytes.Equal(pointJSON(t, p), s) {
				t.Fatalf("manifest point %d is not the served one", i)
			}
			if _, ok := served[k]; !ok && !bytes.Equal(pointJSON(t, p), pointJSON(t, refM.Points[i])) {
				t.Fatalf("recomputed point %d differs from a run without a store", i)
			}
		}
		for _, s := range []*CellStore{store, OpenCellStore(root)} {
			again := plan(t, spec, s)
			if again.Reused != again.Cells {
				t.Fatalf("%d of %d cells served after the run", again.Reused, again.Cells)
			}
			for _, p := range again.prior {
				i := 0
				for m.Points[i].Group != p.Group || m.Points[i].X != p.X {
					i++
				}
				if !bytes.Equal(pointJSON(t, p), pointJSON(t, m.Points[i])) {
					t.Fatalf("cell %q N=%g serves a point other than the manifest's", p.Group, p.X)
				}
			}
		}
	})
}

package dispatch

import (
	"bytes"
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

// storedSegment runs spec over a fresh store and returns the one
// segment the run wrote.
func storedSegment(t testing.TB, spec sim.CampaignSpec) []byte {
	t.Helper()
	root := t.TempDir()
	runBytes(t, plan(t, spec, OpenCellStore(root)))
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
	spec := resumeSpecs()["unsharded"] // 6 cells
	want, _ := runBytes(t, plan(t, spec, nil))
	shard := func(first, count int) sim.CampaignSpec {
		s := spec
		s.CellFirst, s.CellCount = first, count
		return s
	}
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
		runBytes(t, plan(t, shard(0, 3), OpenCellStore(root)))
		runBytes(t, plan(t, shard(3, 3), OpenCellStore(root)))
		if n := len(segments(t, root)); n != 2 {
			t.Fatalf("two writers left %d segments, want 2", n)
		}
		check(t, root, 6)
	})

	t.Run("segment copied from another store", func(t *testing.T) {
		root := writeSegments(t, map[string][]byte{"box-b.ndjson": storedSegment(t, shard(2, 4))})
		runBytes(t, plan(t, shard(0, 2), OpenCellStore(root)))
		check(t, root, 6)
	})

	t.Run("torn tail in another writer's segment", func(t *testing.T) {
		seg := storedSegment(t, spec)
		root := writeSegments(t, map[string][]byte{"dead.ndjson": seg[:len(seg)-5]})
		check(t, root, 5)
	})

	t.Run("wrong engine misses", func(t *testing.T) {
		lines := bytes.SplitAfter(storedSegment(t, spec), []byte("\n"))
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
		if err := os.WriteFile(filepath.Join(root, "cells.ndjson"), storedSegment(t, spec), 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, root, 0)
	})

	t.Run("an invalid later line does not shadow a valid one", func(t *testing.T) {
		seg := storedSegment(t, spec)
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
	spec := resumeSpecs()["unsharded"] // 6 cells
	shard := func(first, count int) sim.CampaignSpec {
		s := spec
		s.CellFirst, s.CellCount = first, count
		return s
	}
	root := t.TempDir()
	a := OpenCellStore(root)
	// A builds its index over an empty directory and stores cells 0-1.
	runBytes(t, plan(t, shard(0, 2), a))
	// Another store appends cells 2-3, and a dead writer left cell 4
	// with its last bytes missing.
	runBytes(t, plan(t, shard(2, 2), OpenCellStore(root)))
	seg := storedSegment(t, shard(4, 1))
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

// FuzzCellStore: whatever two segments of a store directory hold, the
// store never panics and serves a cell only from a whole line of one of
// them that verifies as that cell's. A run over the store then computes
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
	good := storedSegment(f, spec)
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
	err := jobSpace(f, spec).Cells(func(_ int, j sim.TrialJob) error {
		a, err := addressCell(spec, j)
		addrs[cellKey{a.group, a.x}] = a
		return err
	})
	if err != nil {
		f.Fatal(err)
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

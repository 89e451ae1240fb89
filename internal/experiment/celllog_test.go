package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wsncover/internal/stats"
)

// testCellLog writes a log of two cells through CreateCellLog (one
// carried) and Append, and returns its bytes and the manifest it
// records.
func testCellLog(t testing.TB) ([]byte, *Manifest) {
	t.Helper()
	pt := func(group string, x, mean float64) Point {
		return Point{Group: group, X: x, Metrics: map[string]stats.Description{
			"moves": {N: 3, Mean: mean, StdDev: 0.5, CI95: 0.56, Min: 1, Max: 9, Median: mean},
		}}
	}
	head, err := NewManifest("camp", map[string]int{"seed": 7}, 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "camp.cells.ndjson")
	log, err := CreateCellLog(path, head, []CellRecord{{Point: pt("SR", 8, 2.5), Trials: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(CellRecord{Point: pt("AR", 8, 1.25), Trials: 3}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := &Manifest{Name: "camp", Spec: head.Spec, Jobs: 6, Workers: 2,
		Points: []Point{pt("AR", 8, 1.25), pt("SR", 8, 2.5)}}
	return data, want
}

// TestCellLogRoundTrip: a written log reads back as the manifest of its
// cells, in canonical order, with Jobs summing the trial counts; cell
// lines are accepted only up to the first torn, garbled, invalid or
// repeated one; a log without a whole header echoing a spec is an
// error.
func TestCellLogRoundTrip(t *testing.T) {
	data, want := testCellLog(t)
	got, err := ParseCellLog(data)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseCellLog = %+v, %v; want %+v", got, err, want)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	header, first, second := lines[0], lines[1], lines[2]
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for name, tc := range map[string]struct {
		data  []byte
		cells int
	}{
		"header only":            {header, 0},
		"torn second cell":       {cat(header, first, second[:len(second)-1]), 1},
		"garbage then a cell":    {cat(header, first, []byte("garbage\n"), second), 1},
		"unknown field":          {cat(header, []byte(`{"point":{"group":"AR","x":8},"trials":3,"extra":1}`+"\n"), second), 0},
		"no point":               {cat(header, []byte(`{"trials":3}`+"\n"), second), 0},
		"zero trials":            {cat(header, []byte(`{"point":{"group":"AR","x":8},"trials":0}`+"\n"), second), 0},
		"two values on one line": {cat(header, bytes.TrimSuffix(first, []byte("\n")), first), 0},
		"repeated cell":          {cat(header, first, first, second), 1},
	} {
		got, err := ParseCellLog(tc.data)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(got.Points) != tc.cells {
			t.Errorf("%s: accepted %d cells, want %d", name, len(got.Points), tc.cells)
		}
	}
	for name, bad := range map[string][]byte{
		"empty":          nil,
		"torn header":    header[:len(header)-1],
		"garbage header": cat([]byte("{\n"), first),
		"no spec":        cat([]byte(`{"name":"camp","workers":2}`+"\n"), first),
		"cell as header": cat(first, second),
	} {
		if _, err := ParseCellLog(bad); err == nil {
			t.Errorf("%s: ParseCellLog accepted a log without a whole header echoing a spec", name)
		}
	}
}

// FuzzReadCellLog: arbitrary bytes never panic the reader, and what it
// accepts is always a prefix of complete lines — the header and the
// cells right after it — that reads back the same on its own.
func FuzzReadCellLog(f *testing.F) {
	data, _ := testCellLog(f)
	f.Add(data)
	f.Add(data[:len(data)-3])
	f.Add(append(append([]byte{}, data...), "garbage\n"...))
	f.Add([]byte("{}\n{\"point\":{},\"trials\":1}\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseCellLog(data)
		if err != nil {
			return
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		k := len(m.Points)
		if 1+k > len(lines) || !bytes.HasSuffix(lines[k], []byte("\n")) {
			t.Fatalf("accepted %d cells from %d lines, not all of them complete", k, len(lines))
		}
		prefix := bytes.Join(lines[:1+k], nil)
		again, err := ParseCellLog(prefix)
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("the accepted prefix reads back as %+v, %v; want %+v", again, err, m)
		}
	})
}

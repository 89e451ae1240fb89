package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"wsncover/internal/sim"
)

// checkCanonicalSpec fails unless appendCanonicalSpec either declines b,
// appending nothing, or appends exactly canonicalSpecRoundTrip(b).
// It reports whether the fast form covered b.
func checkCanonicalSpec(t *testing.T, b []byte) bool {
	t.Helper()
	got, ok := appendCanonicalSpec([]byte("dst"), b)
	if !ok {
		if string(got) != "dst" {
			t.Fatalf("declined %q but appended %q", b, got[3:])
		}
		return false
	}
	if want := canonicalSpecRoundTrip(b); !bytes.Equal(got[3:], want) {
		t.Fatalf("canonical form of %q:\n got %s\nwant %s", b, got[3:], want)
	}
	return true
}

// specSeeds are the marshalled specs the fast form must cover: the
// checked-in spec files and their one-cell specs, as addressCell
// marshals them, and specs setting the execution-only fields.
func specSeeds(t testing.TB) (files [][]byte, marshalled [][]byte) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no spec files: %v", err)
	}
	add := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		marshalled = append(marshalled, b)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, data)
		var spec sim.CampaignSpec
		if err := sim.UnmarshalSpecJSON(data, &spec); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		add(spec)
		js, err := spec.JobSpace()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		js.Cells(func(_ int, first sim.TrialJob) error {
			add(js.Spec().CellSpec(first))
			return nil
		})
	}
	add(sim.CampaignSpec{Workers: 8, FreshBuild: true, BaseSeed: 3, CommRange: 1.5})
	add(sim.CampaignSpec{})
	return files, marshalled
}

// TestSpecHashFastFormCoversSpecs: every spec the repository hashes
// takes the fast canonical form, and it equals the map round trip.
func TestSpecHashFastFormCoversSpecs(t *testing.T) {
	_, marshalled := specSeeds(t)
	for _, b := range marshalled {
		if !checkCanonicalSpec(t, b) {
			t.Errorf("the fast form declines the marshalled spec %s", b)
		}
	}
	for _, b := range []string{
		`{}`, `{"workers":3}`, `{"b":1,"a":[{"z":1,"y":2}],"workers":1,"cell_count":4}`,
		`{"a":"x,y}z","b":{"c":[1,2,{"d":"]"}]}}`,
	} {
		if !checkCanonicalSpec(t, []byte(b)) {
			t.Errorf("the fast form declines %s", b)
		}
	}
	for _, b := range []string{
		`null`, `[1]`, `"s"`, `{"a":1,"a":2}`, `{"a": 1}`, `{"a\u0062":1}`, `{"a":"\u003c"}`,
		`{"a":"<"}`, "{\"a\":\"\xe2\x80\xa8\"}", "{\"\xc3\xa9\":1}", `{"a":1,}`, `{"a":}`,
	} {
		if checkCanonicalSpec(t, []byte(b)) {
			t.Errorf("the fast form covers %s, which it must leave to the round trip", b)
		}
	}
}

// FuzzSpecHash holds the fast canonical form to the map round trip on
// whatever json.Marshal makes of arbitrary bytes (a compact, escaped
// copy of valid JSON; an error otherwise, for SpecHash too) and on the
// bytes themselves when they are valid JSON.
func FuzzSpecHash(f *testing.F) {
	files, marshalled := specSeeds(f)
	for _, b := range append(files, marshalled...) {
		f.Add(b)
	}
	for _, s := range []string{`{"workers":1,"a":{"b":[1,"<"]}}`, `{"a":1,"a":2}`, `{"é":1}`, `[]`, `{"a" :1}`, `nul`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := json.Marshal(json.RawMessage(data))
		if _, herr := SpecHash(json.RawMessage(data)); (herr != nil) != (err != nil) {
			t.Fatalf("SpecHash error %v, json.Marshal error %v", herr, err)
		}
		if err != nil {
			return
		}
		checkCanonicalSpec(t, b)
		if json.Valid(data) {
			checkCanonicalSpec(t, data)
		}
	})
}

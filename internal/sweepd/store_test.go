package sweepd

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wsncover/internal/experiment"
	"wsncover/internal/telemetry"
)

func TestHashHexRejectsMalformedAndTraversal(t *testing.T) {
	good := "sha256:" + strings.Repeat("ab", 32)
	if hex, err := hashHex(good); err != nil || len(hex) != 64 {
		t.Fatalf("hashHex(%q) = %q, %v", good, hex, err)
	}
	for _, bad := range []string{
		"",
		"sha256:",
		"sha256:short",
		strings.Repeat("ab", 32),             // missing prefix
		"sha256:" + strings.Repeat("AB", 32), // uppercase
		"sha256:../../../../etc/passwd00000000000000000000000000", // traversal shape
		"sha256:" + strings.Repeat("zz", 32),                      // non-hex
	} {
		if _, err := hashHex(bad); err == nil {
			t.Errorf("hashHex(%q) accepted a malformed hash", bad)
		}
	}
}

func TestStoreInstallGetResolveList(t *testing.T) {
	store, err := OpenStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	hashA := "sha256:" + strings.Repeat("aa", 32)
	hashB := "sha256:" + strings.Repeat("ab", 32)
	if _, ok := store.Get(hashA); ok {
		t.Fatal("empty store reported a hit")
	}

	src := &experiment.Manifest{Name: "x", Jobs: 1, Points: []experiment.Point{}}
	pathA, err := store.Install(hashA, src)
	if err != nil {
		t.Fatal(err)
	}
	// The file is there, but it carries no spec hashing to hashA, so Get
	// does not serve it (TestStoreGetRecomputesUnverifiedManifests
	// covers verified hits).
	if _, ok := store.Get(hashA); ok {
		t.Fatalf("Get(%s) served a manifest whose spec does not hash to the key", hashA)
	}
	if _, err := store.Install(hashB, src); err != nil {
		t.Fatal(err)
	}

	// Prefix resolution matches file names, git-style; ambiguous and
	// unknown refs fail. A full hash is a lookup verified like Get, so
	// these spec-less files do not resolve by full hash
	// (TestStoreResolveFullHashIsDirect covers verified ones).
	if h, p, err := store.Resolve("aaaa"); err != nil || h != hashA || p != pathA {
		t.Errorf("Resolve(aaaa) = %q, %q, %v", h, p, err)
	}
	if h, _, err := store.Resolve(hashB); err == nil {
		t.Errorf("Resolve(full) = %q for a manifest whose spec does not hash to the key", h)
	}
	if _, _, err := store.Resolve("a"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("Resolve(a) = %v, want ambiguous", err)
	}
	if _, _, err := store.Resolve("ffff"); err == nil {
		t.Error("Resolve of an unknown ref should fail")
	}

	// List joins the ledger's newest record per hash.
	for _, rec := range []telemetry.Record{
		{Name: "old", Mode: "sweepd", SpecHash: hashA, Status: telemetry.StatusFailed},
		{Name: "new", Mode: "sweepd", SpecHash: hashA, Status: telemetry.StatusCompleted},
	} {
		if err := telemetry.AppendRecord(store.LedgerPath(), rec); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("List() = %d entries, want 2", len(entries))
	}
	if entries[0].SpecHash != hashA || entries[1].SpecHash != hashB {
		t.Errorf("List order: %s, %s", entries[0].SpecHash, entries[1].SpecHash)
	}
	if entries[0].Record == nil || entries[0].Record.Name != "new" {
		t.Errorf("entry A record = %+v, want the newest ledger record", entries[0].Record)
	}
	if entries[1].Record != nil {
		t.Errorf("entry B record = %+v, want nil (no ledger line)", entries[1].Record)
	}
	if entries[0].Bytes == 0 {
		t.Error("entry A should report its size")
	}
}

// TestStoreGetRecomputesUnverifiedManifests: a file under a campaign's
// key is a cache hit only when it parses and its spec re-hashes to the
// key. A truncated write, garbage, or another campaign's manifest is a
// miss: the submission runs the campaign again, and the manifest then
// served is the cold run's, byte for byte.
func TestStoreGetRecomputesUnverifiedManifests(t *testing.T) {
	d, store := newTestDaemon(t, Options{})
	spec, other := smallSpec(), smallSpec()
	other.BaseSeed++
	cold := referenceManifest(t, spec, "verify")
	hash, err := telemetry.SpecHash(spec.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	submit := func(wantRun bool) {
		t.Helper()
		v, created, err := d.Submit(mustJSON(t, spec), "verify")
		if err != nil || created != wantRun {
			t.Fatalf("Submit = %+v, created %v, %v; want created %v", v, created, err, wantRun)
		}
		if !d.Wait(context.Background(), v.ID) {
			t.Fatal("campaign never finished")
		}
		done, _ := d.Campaign(v.ID)
		served, err := os.ReadFile(done.Manifest)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(served, cold) {
			t.Fatalf("served manifest (status %s) differs from the cold run", done.Status)
		}
	}
	submit(true)
	path, ok := store.Get(hash)
	if !ok {
		t.Fatal("completed campaign is not a store hit")
	}
	submit(false)

	for name, bad := range map[string][]byte{
		"truncated":      cold[:len(cold)/2],
		"garbage":        []byte("not a manifest\n"),
		"other campaign": referenceManifest(t, other, "verify"),
	} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := store.Get(hash); ok {
			t.Errorf("%s: Get served the file", name)
		}
		submit(true)
		if _, ok := store.Get(hash); !ok {
			t.Errorf("%s: the recomputed manifest is not a store hit", name)
		}
	}
}

// TestStoreResolveFullHashIsDirect: a full hash resolves by a verified
// path lookup, with or without the "sha256:" prefix, and never needs
// the ledger; a file under the key that fails verification does not
// resolve.
func TestStoreResolveFullHashIsDirect(t *testing.T) {
	store, err := OpenStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec().Normalized()
	hash, err := telemetry.SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := experiment.NewManifest("direct", spec, spec.NumJobs(), 0, []experiment.Point{})
	if err != nil {
		t.Fatal(err)
	}
	path, err := store.Install(hash, m)
	if err != nil {
		t.Fatal(err)
	}
	// A directory where the ledger should be: every ledger read fails.
	if err := os.Mkdir(store.LedgerPath(), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, ref := range []string{hash, strings.TrimPrefix(hash, "sha256:")} {
		if h, p, err := store.Resolve(ref); err != nil || h != hash || p != path {
			t.Errorf("Resolve(%s) = %q, %q, %v; want %s at %s", ref, h, p, err, hash, path)
		}
	}
	if h, p, err := store.Resolve(strings.TrimPrefix(hash, "sha256:")[:8]); err != nil || h != hash || p != path {
		t.Errorf("prefix Resolve = %q, %q, %v", h, p, err)
	}
	if err := os.WriteFile(path, []byte("not a manifest\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Resolve(hash); err == nil {
		t.Error("Resolve served a full-hash file that fails verification")
	}
}

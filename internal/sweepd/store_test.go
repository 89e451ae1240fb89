package sweepd

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
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
	if _, _, ok := store.Get(hashA); ok {
		t.Fatal("empty store reported a hit")
	}

	src := &experiment.Manifest{Name: "x", Jobs: 1, Points: []experiment.Point{}}
	pathA, err := store.Install(hashA, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(pathA); err != nil {
		t.Fatal(err)
	}
	// The file is there, but it carries no spec hashing to hashA, so Get
	// does not serve it (TestStoreGetRecomputesUnverifiedManifests
	// covers verified hits).
	if _, _, ok := store.Get(hashA); ok {
		t.Fatalf("Get(%s) served a manifest whose spec does not hash to the key", hashA)
	}
	if _, err := store.Install(hashB, src); err != nil {
		t.Fatal(err)
	}

	// A prefix matches file names, git-style; ambiguous and unknown
	// refs fail. The one file a prefix matches is then verified like
	// Get, as a full hash is, so these spec-less files resolve by
	// neither (TestStoreResolveFullHashIsDirect covers verified ones).
	if _, p, _, err := store.Resolve("aaaa"); err == nil || !strings.Contains(err.Error(), "no verified") {
		t.Errorf("Resolve(aaaa) = %q, %v for a manifest whose spec does not hash to the key", p, err)
	}
	if h, _, _, err := store.Resolve(hashB); err == nil {
		t.Errorf("Resolve(full) = %q for a manifest whose spec does not hash to the key", h)
	}
	if _, _, _, err := store.Resolve("a"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("Resolve(a) = %v, want ambiguous", err)
	}
	if _, _, _, err := store.Resolve("ffff"); err == nil {
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
// miss even right after a memoized hit: Get misses, the manifest
// handler answers 404 by full hash and by prefix, and the submission
// runs the campaign again, whose manifest then served is the cold
// run's, byte for byte. A rewrite that still passes the check (a point
// value edited, the spec intact) is served, as the full check alone
// would serve it: the memo changes what a lookup costs, not what it
// answers.
func TestStoreGetRecomputesUnverifiedManifests(t *testing.T) {
	d, store := newTestDaemon(t, Options{})
	h := d.Handler()
	spec, other := smallSpec(), smallSpec()
	other.BaseSeed++
	cold := referenceManifest(t, spec, "verify")
	hash, err := telemetry.SpecHash(spec.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	prefix := strings.TrimPrefix(hash, "sha256:")[:8]
	submit := func(wantStatus string, want []byte) {
		t.Helper()
		v, created, err := d.Submit(mustJSON(t, spec), "verify")
		if err != nil || created != (wantStatus == StatusCompleted) {
			t.Fatalf("Submit = %+v, created %v, %v; want %s", v, created, err, wantStatus)
		}
		if !d.Wait(context.Background(), v.ID) {
			t.Fatal("campaign never finished")
		}
		if done, _ := d.Campaign(v.ID); done.Status != wantStatus {
			t.Fatalf("campaign %s (%s), want %s", done.Status, done.Error, wantStatus)
		}
		if code, served := serve(h, "/api/v1/manifests/"+hash); code != 200 || !bytes.Equal(served, want) {
			t.Fatalf("served manifest (status %s, HTTP %d) differs from the one expected", wantStatus, code)
		}
	}
	// memoized fails unless hash's memo entry digests the file as it is,
	// so a Get now is a hit that decodes nothing.
	memoized := func(when string) {
		t.Helper()
		_, data, ok := store.Get(hash)
		store.mu.Lock()
		sum, known := store.verified[hash]
		store.mu.Unlock()
		if !ok || !known || sum != sha256.Sum256(data) {
			t.Fatalf("%s: Get = %v, memo %v; want a memoized hit", when, ok, known)
		}
	}
	submit(StatusCompleted, cold)
	memoized("after install")
	submit(StatusCached, cold)
	path, _, _ := store.Get(hash)

	for _, tc := range []struct {
		name string
		bad  []byte
	}{
		{"truncated", cold[:len(cold)/2]},
		{"garbage", []byte("not a manifest\n")},
		{"other campaign", referenceManifest(t, other, "verify")},
	} {
		memoized(tc.name)
		if err := os.WriteFile(path, tc.bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := store.Get(hash); ok {
			t.Errorf("%s: Get served the file", tc.name)
		}
		for _, ref := range []string{hash, prefix} {
			if code, _ := serve(h, "/api/v1/manifests/"+ref); code != http.StatusNotFound {
				t.Errorf("%s: GET manifest %s = HTTP %d, want 404", tc.name, ref, code)
			}
		}
		submit(StatusCompleted, cold)
	}

	// Edit one point value: the file still parses and its spec still
	// hashes to the key, so it passes the check and is served.
	var m experiment.Manifest
	if err := json.Unmarshal(cold, &m); err != nil {
		t.Fatal(err)
	}
	for name, desc := range m.Points[0].Metrics {
		desc.Mean++
		m.Points[0].Metrics[name] = desc
		break
	}
	edited, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(edited, cold) {
		t.Fatal("the edit changed no byte")
	}
	memoized("before edit")
	if err := os.WriteFile(path, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	submit(StatusCached, edited)
	memoized("after edit")
}

// TestManifestHandlerServesVerifiedBytes: the manifest handler serves
// exactly the bytes Get verified, by full hash and by prefix, and the
// diff handler compares them.
func TestManifestHandlerServesVerifiedBytes(t *testing.T) {
	d, store := newTestDaemon(t, Options{})
	h := d.Handler()
	spec := smallSpec()
	v, _, err := d.Submit(mustJSON(t, spec), "served")
	if err != nil || !d.Wait(context.Background(), v.ID) {
		t.Fatalf("Submit = %+v, %v", v, err)
	}
	_, verified, ok := store.Get(v.SpecHash)
	if !ok {
		t.Fatal("completed campaign is not a store hit")
	}
	prefix := strings.TrimPrefix(v.SpecHash, "sha256:")[:8]
	for _, ref := range []string{v.SpecHash, prefix} {
		if code, body := serve(h, "/api/v1/manifests/"+ref); code != 200 || !bytes.Equal(body, verified) {
			t.Errorf("GET manifest %s = HTTP %d, body equal to Get's bytes: %v", ref, code, bytes.Equal(body, verified))
		}
	}
	code, body := serve(h, "/api/v1/diff?a="+prefix+"&b="+v.SpecHash)
	if code != 200 || !bytes.Contains(body, []byte(`"equivalent": true`)) {
		t.Errorf("diff of a manifest with itself = HTTP %d: %s", code, body)
	}

	// Readers share the memo with a writer that re-installs the manifest
	// and forgets every digest, so full checks, memo hits and memo
	// writes interleave; every read still serves the verified bytes.
	var m experiment.Manifest
	if err := json.Unmarshal(verified, &m); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if code, body := serve(h, "/api/v1/manifests/"+prefix); code != 200 || !bytes.Equal(body, verified) {
					t.Errorf("concurrent GET manifest = HTTP %d, body equal: %v", code, bytes.Equal(body, verified))
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if _, err := store.Install(v.SpecHash, &m); err != nil {
			t.Error(err)
			break
		}
		store.mu.Lock()
		clear(store.verified)
		store.mu.Unlock()
	}
	wg.Wait()
}

// serve sends one GET through h and returns the status and body.
func serve(h http.Handler, target string) (int, []byte) {
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", target, nil))
	return rw.Code, rw.Body.Bytes()
}

// TestStoreResolveFullHashIsDirect: a full hash resolves by a verified
// path lookup, with or without the "sha256:" prefix, and never needs
// the ledger; a prefix resolves through the same verified read. A file
// under the key that fails verification resolves by neither, and the
// diff handler answers 404 for it.
func TestStoreResolveFullHashIsDirect(t *testing.T) {
	d, store := newTestDaemon(t, Options{})
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
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A directory where the ledger should be: every ledger read fails.
	if err := os.Mkdir(store.LedgerPath(), 0o755); err != nil {
		t.Fatal(err)
	}
	prefix := strings.TrimPrefix(hash, "sha256:")[:8]
	for _, ref := range []string{hash, strings.TrimPrefix(hash, "sha256:"), prefix} {
		if h, p, data, err := store.Resolve(ref); err != nil || h != hash || p != path || !bytes.Equal(data, want) {
			t.Errorf("Resolve(%s) = %q, %q, %v; want %s at %s with its bytes", ref, h, p, err, hash, path)
		}
	}
	if err := os.WriteFile(path, []byte("not a manifest\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, ref := range []string{hash, prefix} {
		if _, _, _, err := store.Resolve(ref); err == nil {
			t.Errorf("Resolve(%s) served a file that fails verification", ref)
		}
	}
	if code, body := serve(d.Handler(), "/api/v1/diff?a="+prefix+"&b="+prefix); code != http.StatusNotFound {
		t.Errorf("diff of a corrupt manifest by prefix = HTTP %d: %s", code, body)
	}
}

// TestStoreGetMemoizedAllocs: a memoized Get of the service-mix base
// manifest reads the file and hashes it, nothing more. A full decode
// allocates thousands of times; the bound is the file buffer plus a
// handful (path join, open file).
func TestStoreGetMemoizedAllocs(t *testing.T) {
	d, store := newTestDaemon(t, Options{})
	base, _ := serviceMixSpecs(1000)
	v, _, err := d.Submit(mustJSON(t, base), "allocs")
	if err != nil || !d.Wait(context.Background(), v.ID) {
		t.Fatalf("Submit = %+v, %v", v, err)
	}
	if _, _, ok := store.Get(v.SpecHash); !ok {
		t.Fatal("completed campaign is not a store hit")
	}
	const bound = 10
	if n := testing.AllocsPerRun(20, func() { store.Get(v.SpecHash) }); n > bound {
		t.Errorf("memoized Get: %v allocs per call, want at most %d", n, bound)
	}
}

// TestStoreInstalledManifestVerifies: the bytes Install writes, built by
// the direct manifest encoder and remembered unchecked, pass the full
// check. The service-mix base campaign's manifest is encoding/json's
// bytes for the manifest it decodes to, and with the memo emptied Get
// serves it through the decode and spec re-hash, and remembers it.
func TestStoreInstalledManifestVerifies(t *testing.T) {
	d, store := newTestDaemon(t, Options{})
	base, _ := serviceMixSpecs(1000)
	v, _, err := d.Submit(mustJSON(t, base), "installed")
	if err != nil || !d.Wait(context.Background(), v.ID) {
		t.Fatalf("Submit = %+v, %v", v, err)
	}
	path, data, ok := store.Get(v.SpecHash)
	if !ok {
		t.Fatal("completed campaign is not a store hit")
	}
	var m experiment.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Points) != 32 {
		t.Fatalf("manifest holds %d points, want 32", len(m.Points))
	}
	var ref bytes.Buffer
	enc := json.NewEncoder(&ref)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, ref.Bytes()) {
		t.Fatal("the installed manifest is not encoding/json's bytes for what it decodes to")
	}

	// Install what the file decodes to afresh, then forget every check.
	if p, err := store.Install(v.SpecHash, &m); err != nil || p != path {
		t.Fatalf("Install = %s, %v; want %s", p, err, path)
	}
	store.mu.Lock()
	clear(store.verified)
	store.mu.Unlock()
	if _, got, ok := store.Get(v.SpecHash); !ok || !bytes.Equal(got, data) {
		t.Fatalf("with the memo emptied, Get = %v (equal bytes %v)", ok, bytes.Equal(got, data))
	}
	store.mu.Lock()
	remembered := store.verified[v.SpecHash] == sha256.Sum256(data)
	store.mu.Unlock()
	if !remembered {
		t.Error("the full check's pass was not remembered")
	}
}

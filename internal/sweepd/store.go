// Package sweepd is the always-on campaign service: a daemon that
// accepts campaign specs over HTTP, executes them through the same
// engine cmd/sweep drives, and serves the resulting manifests from a
// content-addressed store keyed by telemetry.SpecHash. Determinism is
// what makes the store a cache: the spec hash ignores execution-only
// fields (worker count, shard layout), and a campaign's manifest is
// byte-identical at any worker count and under any shard layout, so
// one stored manifest answers every future submission of the same
// science.
//
// The same argument holds one level down. A cell — one (group, N) pair
// with all its replicates — depends only on its own dimension values,
// the seed and the replicate count, so the store's cells/ directory is
// a dispatch.CellStore: every cell a campaign computes is stored the
// moment it completes, and a campaign sharing cells with earlier ones
// (a widened sweep, a resubmission after a drain, the shards cmd/sweep
// ran with -store on this directory) computes only the cells it lacks.
// Every stored cell is re-verified when it is reused; one that fails
// is recomputed.
//
// The package splits along the same seams as the rest of the repo:
// store.go is the artifact store, sweepd.go the daemon (submission,
// dedupe, the bounded FIFO job queue, drain), run.go the campaign
// runner (the in-process engine), and server.go the HTTP surface.
// cmd/sweepd wires it to flags and signals.
package sweepd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"wsncover/internal/dispatch"
	"wsncover/internal/experiment"
	"wsncover/internal/telemetry"
)

// Store is a content-addressed campaign-manifest and cell store rooted
// at one directory:
//
//	<dir>/manifests/sha256-<hex>.json   completed campaign manifests
//	<dir>/cells/<writer>.ndjson         the cell store (dispatch.CellStore):
//	                                    one append-only segment per process
//	<dir>/ledger.ndjson                 the run ledger (telemetry.Record)
//
// Keys are telemetry.SpecHash values ("sha256:<64 hex>"). Only full,
// unsharded campaign manifests are installed — Daemon.Submit enforces
// that with sim.CampaignSpec.ValidateUnsharded, because the hash
// deliberately ignores shard layout and a partial manifest stored
// under the full campaign's key would poison every later cache hit.
//
// The cell index is built by one scan of every segment on the first
// campaign a daemon runs, so opening a store reads nothing. A running
// daemon therefore sees cells that other processes append to the
// directory later (cmd/sweep -store runs) only after a restart; until
// then it recomputes them, with the same bytes.
type Store struct {
	dir   string
	cells *dispatch.CellStore
}

// OpenStore opens (creating if needed) the store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "manifests"), 0o755); err != nil {
		return nil, fmt.Errorf("sweepd: store: %w", err)
	}
	return &Store{dir: dir, cells: dispatch.OpenCellStore(dir)}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// LedgerPath is the store's run-ledger file (telemetry NDJSON records).
func (s *Store) LedgerPath() string { return filepath.Join(s.dir, "ledger.ndjson") }

// hashHex validates a spec hash and returns its hex digest — the only
// component that ever reaches a file name, so a malicious "hash" can
// not traverse out of the store.
func hashHex(hash string) (string, error) {
	hex, ok := strings.CutPrefix(hash, "sha256:")
	if !ok || len(hex) != 64 {
		return "", fmt.Errorf("sweepd: malformed spec hash %q (want sha256:<64 hex>)", hash)
	}
	for _, c := range hex {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", fmt.Errorf("sweepd: malformed spec hash %q (want sha256:<64 hex>)", hash)
		}
	}
	return hex, nil
}

// manifestPath maps a validated spec hash to its store location.
func (s *Store) manifestPath(hex string) string {
	return filepath.Join(s.dir, "manifests", "sha256-"+hex+".json")
}

// Get returns the stored manifest path for hash and whether the store
// holds a verified manifest for it: one that parses and whose echoed
// spec re-hashes to hash. Any other file under the key (a truncated or
// corrupt write, another campaign's manifest) is a miss, so the
// campaign is recomputed and Install replaces the file.
func (s *Store) Get(hash string) (string, bool) {
	hex, err := hashHex(hash)
	if err != nil {
		return "", false
	}
	path := s.manifestPath(hex)
	if err := verifyManifest(path, hash); err != nil {
		return "", false
	}
	return path, true
}

// verifyManifest checks that the manifest at path parses and that its
// echoed spec re-hashes to wantHash, the key it is stored under.
func verifyManifest(path, wantHash string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var m experiment.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("unreadable manifest %s: %w", path, err)
	}
	got, err := telemetry.SpecHash(m.Spec)
	if err != nil {
		return err
	}
	if got != wantHash {
		return fmt.Errorf("%s has spec hash %s, want %s", path, got, wantHash)
	}
	return nil
}

// Install writes m into the store under hash, atomically (temp +
// rename), and returns the stored path. Installing the same hash twice
// is fine: determinism guarantees the bytes match, and the rename just
// replaces like with like.
func (s *Store) Install(hash string, m *experiment.Manifest) (string, error) {
	hex, err := hashHex(hash)
	if err != nil {
		return "", err
	}
	dst := s.manifestPath(hex)
	if err := m.WriteAtomic(dst); err != nil {
		return "", fmt.Errorf("sweepd: store install: %w", err)
	}
	return dst, nil
}

// Resolve finds the stored manifest a ref names and returns its full
// hash and path. A full hash (with or without the "sha256:" prefix) is
// a direct lookup, verified like Get. A shorter ref is a git-style
// prefix matched against the stored file names only; an unknown or
// ambiguous prefix errors.
func (s *Store) Resolve(ref string) (hash, path string, err error) {
	prefix := strings.TrimPrefix(strings.TrimSpace(ref), "sha256:")
	if prefix == "" {
		return "", "", fmt.Errorf("sweepd: empty manifest ref")
	}
	if len(prefix) == 64 {
		hash = "sha256:" + prefix
		if path, ok := s.Get(hash); ok {
			return hash, path, nil
		}
		return "", "", fmt.Errorf("sweepd: no verified stored manifest for %s", hash)
	}
	names, err := s.manifestNames()
	if err != nil {
		return "", "", err
	}
	var matches []storedName
	for _, n := range names {
		if strings.HasPrefix(n.hex, prefix) {
			matches = append(matches, n)
		}
	}
	switch len(matches) {
	case 0:
		return "", "", fmt.Errorf("sweepd: no stored manifest matches %q", ref)
	case 1:
		return "sha256:" + matches[0].hex, s.manifestPath(matches[0].hex), nil
	}
	return "", "", fmt.Errorf("sweepd: ref %q is ambiguous (%d matches)", ref, len(matches))
}

// Entry is one stored manifest joined with its newest ledger record
// (nil when the ledger has none — e.g. a manifest installed by hand).
type Entry struct {
	SpecHash string            `json:"spec_hash"`
	Path     string            `json:"path"`
	Bytes    int64             `json:"bytes"`
	Record   *telemetry.Record `json:"record,omitempty"`
}

// List scans the store's manifests, sorted by hash, each joined with
// the latest ledger record carrying its spec hash.
func (s *Store) List() ([]Entry, error) {
	names, err := s.manifestNames()
	if err != nil {
		return nil, err
	}
	latest := make(map[string]*telemetry.Record)
	if recs, err := telemetry.ReadLedger(s.LedgerPath()); err == nil {
		for i := range recs {
			latest[recs[i].SpecHash] = &recs[i]
		}
	}
	var out []Entry
	for _, n := range names {
		e := Entry{SpecHash: "sha256:" + n.hex, Path: s.manifestPath(n.hex)}
		if info, err := n.de.Info(); err == nil {
			e.Bytes = info.Size()
		}
		e.Record = latest[e.SpecHash]
		out = append(out, e)
	}
	return out, nil
}

// storedName is one manifest file in the store's manifests directory.
type storedName struct {
	hex string
	de  os.DirEntry
}

// manifestNames lists the store's manifest files by name alone, sorted
// by hash (os.ReadDir sorts by file name); other files are skipped.
func (s *Store) manifestNames() ([]storedName, error) {
	des, err := os.ReadDir(filepath.Join(s.dir, "manifests"))
	if err != nil {
		return nil, fmt.Errorf("sweepd: store: %w", err)
	}
	var out []storedName
	for _, de := range des {
		hex, ok := strings.CutPrefix(de.Name(), "sha256-")
		hex, ok2 := strings.CutSuffix(hex, ".json")
		if ok && ok2 && len(hex) == 64 {
			out = append(out, storedName{hex, de})
		}
	}
	return out, nil
}

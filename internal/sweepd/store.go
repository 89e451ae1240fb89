// Package sweepd is the always-on campaign service: a daemon that
// accepts campaign specs over HTTP, executes them through the same
// engine cmd/sweep drives, and serves the resulting manifests from a
// content-addressed store keyed by telemetry.SpecHash. Determinism is
// what makes the store a cache: the spec hash ignores execution-only
// fields (worker count, arena pooling), and a campaign's manifest is
// byte-identical at any worker count and when assembled from shards,
// so one stored manifest answers every future submission of the same
// science.
//
// The same argument holds one level down. A cell — one (group, N) pair
// with all its replicates — depends only on its own dimension values,
// the seed and the replicate count, so the store's cells/ directory is
// a dispatch.CellStore: every cell a campaign computes is stored the
// moment it completes, and a campaign sharing cells with earlier ones
// (a widened sweep, a resubmission after a drain, the shards cmd/sweep
// ran with -store on this directory) computes only the cells it lacks.
// A stored cell is reused only from a line that passes the cell
// store's check, one that fails is recomputed, and the check is
// memoized by the line's content: a line the daemon verified or wrote
// before is re-read and hashed, not decoded again.
//
// The package splits along the same seams as the rest of the repo:
// store.go is the artifact store, sweepd.go the daemon (submission,
// dedupe, the bounded FIFO job queue, drain), run.go the campaign
// runner (the in-process engine), and server.go the HTTP surface.
// cmd/sweepd wires it to flags and signals.
package sweepd

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

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
// Keys are telemetry.SpecHash values ("sha256:<64 hex>"). Only full
// campaign manifests are installed, by the spec's type: a
// sim.CampaignSpec cannot name a cell range (sharding is a property of a
// cmd/sweep run), so no submission can ask for a partial manifest that
// would poison its campaign's key.
//
// A stored manifest is served or counted as a hit only as bytes that
// passed the full check: they parse, and their echoed spec re-hashes to
// the key. That check is a pure function of the bytes and the key, so
// the store memoizes it by content: it keeps the SHA-256 of the bytes
// that last passed under each key, and a lookup whose file hashes to
// that digest is verified without decoding. Any other digest (a key
// seen for the first time, a rewritten file) runs the full check again.
// A digest match is therefore the full check's own answer, up to a
// SHA-256 collision. The memo holds one 32-byte digest per manifest
// the process has verified, so it is bounded by the manifests the store
// has held. Full-hash and prefix refs go through the same verified read,
// and every lookup returns the bytes it verified, so nothing serves a
// file that changed after its check.
//
// The cell index is built by one scan of every segment on the first
// campaign a daemon runs, so opening a store reads nothing. It stays
// live: a campaign that misses a cell re-scans the segments that
// appeared or grew since, so cells other processes append to the
// directory later (cmd/sweep -store runs) are served without a
// restart.
type Store struct {
	dir   string
	cells *dispatch.CellStore

	mu       sync.Mutex
	verified map[string][sha256.Size]byte // spec hash -> digest of the bytes that last passed
}

// OpenStore opens (creating if needed) the store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "manifests"), 0o755); err != nil {
		return nil, fmt.Errorf("sweepd: store: %w", err)
	}
	return &Store{
		dir:      dir,
		cells:    dispatch.OpenCellStore(dir),
		verified: make(map[string][sha256.Size]byte),
	}, nil
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

// Get returns the path and bytes of the manifest stored under hash,
// and whether they verify: they parse and their echoed spec re-hashes
// to hash. Any other file under the key (a truncated or corrupt write,
// another campaign's manifest) is a miss, so the campaign is recomputed
// and Install replaces the file. The file is read once; bytes whose
// SHA-256 matches the memo are not decoded again.
func (s *Store) Get(hash string) (path string, data []byte, ok bool) {
	hex, err := hashHex(hash)
	if err != nil {
		return "", nil, false
	}
	path = s.manifestPath(hex)
	data, err = os.ReadFile(path)
	if err != nil {
		return "", nil, false
	}
	sum := sha256.Sum256(data)
	s.mu.Lock()
	known := s.verified[hash] == sum
	s.mu.Unlock()
	if !known {
		if verifyManifest(data, hash) != nil {
			return "", nil, false
		}
		s.remember(hash, sum)
	}
	return path, data, true
}

// remember records sum as the digest of bytes that passed the full
// check under hash.
func (s *Store) remember(hash string, sum [sha256.Size]byte) {
	s.mu.Lock()
	s.verified[hash] = sum
	s.mu.Unlock()
}

// verifyManifest is the full check: data parses as a manifest and its
// echoed spec re-hashes to wantHash, the key it is stored under.
func verifyManifest(data []byte, wantHash string) error {
	var m experiment.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("unreadable manifest: %w", err)
	}
	got, err := telemetry.SpecHash(m.Spec)
	if err != nil {
		return err
	}
	if got != wantHash {
		return fmt.Errorf("manifest has spec hash %s, want %s", got, wantHash)
	}
	return nil
}

// Install writes m into the store under hash, atomically (temp +
// rename), and returns the stored path. The manifest is encoded once.
// When m's spec hashes to the key, the written bytes pass the full
// check, so their digest is remembered and the next Get reads without
// decoding: Manifest.Encode writes the bytes encoding/json writes for
// m, which decode back to m's spec, and SpecHash of that spec is the
// key. The encoder is not encoding/json, so that is not true by
// construction; TestStoreInstalledManifestVerifies empties the memo and
// holds the written bytes to the full check. Installing the same hash
// twice is fine: determinism guarantees the bytes match, and the rename
// just replaces like with like.
func (s *Store) Install(hash string, m *experiment.Manifest) (string, error) {
	hex, err := hashHex(hash)
	if err != nil {
		return "", err
	}
	data, err := m.Encode()
	if err != nil {
		return "", fmt.Errorf("sweepd: store install: %w", err)
	}
	dst := s.manifestPath(hex)
	if err := experiment.WriteFileAtomic(dst, data); err != nil {
		return "", fmt.Errorf("sweepd: store install: %w", err)
	}
	if got, err := telemetry.SpecHash(m.Spec); err == nil && got == hash {
		s.remember(hash, sha256.Sum256(data))
	}
	return dst, nil
}

// Resolve finds the stored manifest a ref names and returns its full
// hash, path and verified bytes. A full hash (with or without the
// "sha256:" prefix) is a direct lookup; a shorter ref is a git-style
// prefix of the stored file names. Either way the manifest is read and
// verified like Get, so a ref whose only match fails the check, like an
// unknown or ambiguous prefix, errors.
func (s *Store) Resolve(ref string) (hash, path string, data []byte, err error) {
	prefix := strings.TrimPrefix(strings.TrimSpace(ref), "sha256:")
	if prefix == "" {
		return "", "", nil, fmt.Errorf("sweepd: empty manifest ref")
	}
	hash = "sha256:" + prefix
	if len(prefix) != 64 {
		names, err := s.manifestNames()
		if err != nil {
			return "", "", nil, err
		}
		var matches []storedName
		for _, n := range names {
			if strings.HasPrefix(n.hex, prefix) {
				matches = append(matches, n)
			}
		}
		switch len(matches) {
		case 0:
			return "", "", nil, fmt.Errorf("sweepd: no stored manifest matches %q", ref)
		case 1:
			hash = "sha256:" + matches[0].hex
		default:
			return "", "", nil, fmt.Errorf("sweepd: ref %q is ambiguous (%d matches)", ref, len(matches))
		}
	}
	path, data, ok := s.Get(hash)
	if !ok {
		return "", "", nil, fmt.Errorf("sweepd: no verified stored manifest for %s", hash)
	}
	return hash, path, data, nil
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

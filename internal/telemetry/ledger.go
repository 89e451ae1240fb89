package telemetry

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"
)

// Run outcomes recorded in Record.Status. Ledgers written before the
// field existed have it empty, which readers treat as completed (only
// successful runs were recorded then).
const (
	StatusCompleted = "completed"
	StatusFailed    = "failed"
	StatusAborted   = "aborted"
)

// Record is one campaign run in the ledger — the append-only NDJSON
// run-history file cmd/sweep and sweepd write when a run ends
// (successfully or not) and cmd/runlog queries. One line, one run; the spec is keyed by
// content hash so identical campaigns are recognizable across runs,
// names, and machines (determinism makes the hash a result key too).
type Record struct {
	// Time is the completion time (UTC).
	Time time.Time `json:"time"`
	// Name is the campaign name (the manifest's base name).
	Name string `json:"name"`
	// Mode says how the run executed: "run" (single process), "shard"
	// (one cell block of a larger campaign), or "sweepd". Older ledgers
	// also hold "merge" records (shard manifests assembled by the
	// retired cmd/sweep -merge) and, from before the fleet supervisor
	// was retired, "dispatch" records, whose extra "shards" and
	// "retries" keys decoding ignores.
	Mode string `json:"mode"`
	// Status says how the run ended: StatusCompleted, StatusFailed (the
	// engine or an artifact write errored), or StatusAborted (drained on
	// SIGINT/SIGTERM). Empty means completed (pre-status ledgers).
	Status string `json:"status,omitempty"`
	// SpecHash is SpecHash() of the normalized campaign spec — the same
	// spec the manifest embeds, so re-marshaling a manifest's spec
	// reproduces it.
	SpecHash string `json:"spec_hash"`
	// Manifest is the path of the written campaign manifest.
	Manifest string `json:"manifest"`
	// Jobs and Points mirror the manifest's accounting.
	Jobs   int `json:"jobs"`
	Points int `json:"points"`
	// Workers is the per-process pool size (0 = all cores).
	Workers int `json:"workers,omitempty"`
	// CellFirst/CellCount echo a shard run's cell range
	// (sim.JobSpace.CellRange).
	CellFirst int `json:"cell_first,omitempty"`
	CellCount int `json:"cell_count,omitempty"`
	// WallS is the run's wall-clock seconds, CPUS the process's CPU
	// seconds, TrialsPerS the executed-trial rate over the wall clock.
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s,omitempty"`
	TrialsPerS float64 `json:"trials_per_s,omitempty"`
	// GroupSeconds is each executed group's wall span, from its first
	// completed trial to its last, as the run timed it
	// (dispatch.LocalRun.GroupSeconds); a run that ended early spans
	// the trials it ran.
	GroupSeconds map[string]float64 `json:"group_s,omitempty"`
}

// execOnlySpecKeys are the top-level campaign-spec JSON fields that
// change how a run executes — parallelism, memory pooling — but never
// what the campaign computes. The spec hash strips them so it
// identifies the science alone: a campaign run with -workers 1 or
// -workers 8 hashes to the same key, and the content-addressed
// manifest store dedupes them to one entry.
var execOnlySpecKeys = []string{"workers", "fresh_build"}

// SpecHash content-addresses a campaign spec: "sha256:" plus the hex
// digest of its JSON form with execution-only fields removed. The
// stripped object re-marshals with sorted keys and the original raw
// field values, so equal science hashes equal regardless of where, how
// parallel, or in which field order it ran.
//
// The canonical form is defined by a round trip through
// map[string]json.RawMessage: unmarshal, delete the execution-only
// keys, marshal. A spec marshals to a compact object whose keys and
// strings need no escaping, and for that the round trip only sorts the
// members and drops some, so canonicalSpec does exactly that to the
// marshalled bytes without decoding them. Any other input (not an
// object, whitespace, a key listed twice, a key or string holding a
// backslash, <, >, & or a non-ASCII byte) takes the round trip itself.
// Non-object specs hash their raw form.
func SpecHash(spec any) (string, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("telemetry: marshal spec for hashing: %w", err)
	}
	var buf [1024]byte
	c, ok := appendCanonicalSpec(buf[:0], b)
	if !ok {
		c = canonicalSpecRoundTrip(b)
	}
	sum := sha256.Sum256(c)
	var out [len("sha256:") + 2*sha256.Size]byte
	return string(hex.AppendEncode(append(out[:0], "sha256:"...), sum[:])), nil
}

// canonicalSpecRoundTrip is SpecHash's canonical form by definition:
// b's members, when b is a JSON object, through a map with the
// execution-only keys deleted and marshalled again; otherwise b itself.
// Stripping at the JSON layer rather than on a concrete spec type keeps
// the package agnostic of what a spec is.
func canonicalSpecRoundTrip(b []byte) []byte {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(b, &fields); err == nil && fields != nil {
		for _, k := range execOnlySpecKeys {
			delete(fields, k)
		}
		if nb, err := json.Marshal(fields); err == nil {
			return nb
		}
	}
	return b
}

// specMember is one top-level member of a compact JSON object: its key
// and its whole "key":value text.
type specMember struct {
	key, text []byte
}

// appendCanonicalSpec appends canonicalSpecRoundTrip(b)'s bytes to dst
// when b, json.Marshal's output, is an object the fast form covers: its
// members sorted by key and joined, the execution-only ones left out.
// It reports false, having appended nothing, for any input it does not
// cover.
func appendCanonicalSpec(dst, b []byte) ([]byte, bool) {
	if len(b) < 2 || b[0] != '{' || b[len(b)-1] != '}' {
		return dst, false
	}
	var buf [32]specMember
	members := buf[:0]
	for i := 1; i < len(b)-1; {
		// A key: plain ASCII, nothing JSON would escape.
		if b[i] != '"' {
			return dst, false
		}
		k := i + 1
		for k < len(b) && b[k] != '"' {
			if !plainByte(b[k]) {
				return dst, false
			}
			k++
		}
		if k+1 >= len(b) || b[k+1] != ':' {
			return dst, false
		}
		end, ok := skipCompactValue(b, k+2)
		if !ok {
			return dst, false
		}
		members = append(members, specMember{key: b[i+1 : k], text: b[i:end]})
		if b[end] == ',' {
			end++
		} else if end != len(b)-1 {
			return dst, false
		}
		i = end
	}
	if len(b) > 2 && b[len(b)-2] == ',' {
		return dst, false
	}
	slices.SortFunc(members, func(x, y specMember) int { return bytes.Compare(x.key, y.key) })
	for i := 1; i < len(members); i++ {
		if bytes.Equal(members[i].key, members[i-1].key) {
			return dst, false // the map keeps the last; leave that to the round trip
		}
	}
	dst = append(dst, '{')
	first := true
	for _, m := range members {
		if slices.Contains(execOnlySpecKeys, string(m.key)) {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		dst, first = append(dst, m.text...), false
	}
	return append(dst, '}'), true
}

// plainByte reports whether c stands for itself in a JSON string that
// encoding/json writes: printable ASCII other than the quote, the
// backslash and the HTML-escaped <, > and &.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x80 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// skipCompactValue returns the end of the compact JSON value starting
// at b[i]: the index of the ',' or '}' closing the member it belongs
// to. It reports false for an empty value, for whitespace, and for a
// string holding a byte plainByte rejects.
func skipCompactValue(b []byte, i int) (int, bool) {
	start, depth := i, 0
	for ; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if !plainByte(b[i]) {
					return 0, false
				}
			}
		case '{', '[':
			depth++
		case ',':
			if depth == 0 {
				return i, i > start
			}
		case '}', ']':
			if depth == 0 {
				return i, i > start
			}
			depth--
		case ' ', '\t', '\n', '\r':
			return 0, false
		}
	}
	return 0, false
}

// AppendRecord appends one record to the ledger at path (created if
// missing), stamping Time with the current UTC time when unset. The
// record is written as a single line, so concurrent appenders (shards
// sharing an out directory) interleave whole records.
func AppendRecord(path string, r Record) error {
	if r.Time.IsZero() {
		r.Time = time.Now().UTC()
	}
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("telemetry: marshal ledger record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("telemetry: ledger: %w", err)
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("telemetry: ledger append: %w", err)
	}
	return f.Close()
}

// ReadLedger loads every record of the ledger at path in append order.
// Blank lines are skipped; a malformed line fails with its line number,
// because a silently dropped record would falsify the run history.
func ReadLedger(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: ledger: %w", err)
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(text, &r); err != nil {
			return nil, fmt.Errorf("telemetry: ledger %s line %d: %w", path, line, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: ledger %s: %w", path, err)
	}
	return out, nil
}

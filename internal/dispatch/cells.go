package dispatch

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"wsncover/internal/experiment"
	"wsncover/internal/sim"
	"wsncover/internal/telemetry"
)

// CellStore is the one place a computed campaign cell is kept. A cell —
// one (group, N) pair with all its replicates — depends only on its own
// dimension values, the seed and the replicate count, so it is keyed by
// the telemetry.SpecHash of its one-cell campaign
// (sim.CampaignSpec.CellSpec) and serves every campaign that contains
// it: a widened sweep, a shard of another box, a killed run's rerun.
//
// The store lives under one root directory:
//
//	<root>/cells/<writer>.ndjson   one append-only segment per writing process
//
// A line is {"engine":E,"spec":<one-cell spec>,"point":..,"trials":R}.
// Its key is re-derived from the spec on every read, never stored. Each
// process appends to its own segment, created on its first append, so
// writers sharing a directory never interleave, and a torn last line
// can only sit in the segment of a writer that died. Copying segments
// from other boxes into cells/ merges their results.
//
// The index from key to lines covers every segment and is built by one
// scan on the first lookup, so opening a store reads nothing; lines
// this store appends are indexed as they land. The index stays live: a
// later lookup that misses re-scans each segment that appeared or grew
// since it was scanned, from the end of the last whole line it indexed,
// so cells other processes append to the directory are served without
// reopening the store, and no line is indexed twice. A lookup re-reads
// a key's lines, latest first, and serves the first that verifies
// (verifyCellLine); a cell without one is a miss, and is recomputed.
//
// That check is a pure function of the line's bytes and the cell's
// address, so the store memoizes it by content, as sweepd's manifest
// store does: it remembers the last cellMemoLines lines that passed,
// by the SHA-256 of their bytes, with the address they passed under and
// their decoded point. A lookup still re-reads every line it tries and
// hashes it; a line whose digest and address are remembered is served
// without decoding it or re-hashing its spec, and any other line (one
// rewritten in place, one never checked) runs the full check. A
// remembered line is therefore the full check's own answer, up to a
// SHA-256 collision. The lines this store appends are remembered as
// they land, unchecked: append writes, without reflection, the bytes
// json.Marshal writes for a cellLine whose spec hashes to the key, so
// each is a line the full check accepts. That is not true by
// construction of the full check, so a test empties the memo and serves
// every appended line through it (TestCellStoreAppendsVerify). A served
// point is shared with the memo, so callers must not modify it.
//
// A line records the sim.EngineVersion that computed it and a line of
// another version is a miss, so a change of results never serves a
// stale cell. There is no fsync: a killed process loses at most the
// line it was writing, which then misses.
type CellStore struct {
	dir    string // <root>/cells
	writer string // this store's segment file name

	// mu guards the index, the memo and the segment.
	mu       sync.Mutex
	index    map[string][]lineAt // nil until the first lookup
	scanned  map[string]int64    // per segment, the bytes of whole lines indexed
	size     int64               // bytes appended to the segment
	verified lineMemo
	buf      []byte // the line serveLocked is reading
}

// cellMemoLines bounds the verified lines a CellStore remembers; past
// it the oldest is forgotten first. It holds a widened service-mix
// campaign's 48 cells.
const cellMemoLines = 64

// lineMemo remembers lines that passed verifyCellLine, by the SHA-256
// of their bytes: the address each passed under and its point.
type lineMemo struct {
	lines map[[sha256.Size]byte]verifiedLine
	order [][sha256.Size]byte // the remembered digests, a ring; next is the oldest
	next  int
}

// verifiedLine is a line the full check accepted: the address it was
// checked against (its spec left out) and the point it holds.
type verifiedLine struct {
	addr  cellAddr
	point *experiment.Point
}

// get returns the point of the line with digest sum when it passed
// the check under an address equal to a's, and nil otherwise.
func (m *lineMemo) get(sum [sha256.Size]byte, a cellAddr) *experiment.Point {
	v, ok := m.lines[sum]
	if !ok || v.addr.key != a.key || v.addr.group != a.group || v.addr.x != a.x || v.addr.trials != a.trials {
		return nil
	}
	return v.point
}

// put remembers that the line with digest sum passed the check under
// a with point p, forgetting the oldest line when the memo is full.
func (m *lineMemo) put(sum [sha256.Size]byte, a cellAddr, p *experiment.Point) {
	if m.lines == nil {
		m.lines = make(map[[sha256.Size]byte]verifiedLine, cellMemoLines)
	}
	a.spec = nil
	if _, ok := m.lines[sum]; !ok {
		if len(m.order) < cellMemoLines {
			m.order = append(m.order, sum)
		} else {
			delete(m.lines, m.order[m.next])
			m.order[m.next] = sum
			m.next = (m.next + 1) % cellMemoLines
		}
	}
	m.lines[sum] = verifiedLine{a, p}
}

// OpenCellStore opens the cell store rooted at root. It reads and
// creates nothing until the first lookup or append.
func OpenCellStore(root string) *CellStore {
	return &CellStore{dir: filepath.Join(root, "cells"), writer: rand.Text() + ".ndjson"}
}

// cellAddr addresses one cell of a run in the store: key is the
// SpecHash of spec, the cell's one-cell campaign in JSON. A stored line
// serves the cell only when it holds one point at the cell's (group, X)
// folded from trials trials.
type cellAddr struct {
	group  string
	x      float64
	key    string
	spec   json.RawMessage
	trials int
}

// addressCell addresses the cell of job j in spec.
func addressCell(spec sim.CampaignSpec, j sim.TrialJob) (cellAddr, error) {
	a := cellAddr{group: j.Group(), x: float64(j.Spares), trials: spec.Replicates}
	var err error
	if a.spec, err = json.Marshal(spec.CellSpec(j)); err == nil {
		a.key, err = telemetry.SpecHash(a.spec)
	}
	return a, err
}

// cellLine is one line of a segment.
type cellLine struct {
	Engine int               `json:"engine"`
	Spec   json.RawMessage   `json:"spec"`
	Point  *experiment.Point `json:"point"`
	Trials int               `json:"trials"`
}

// lineAt locates one whole line, newline included, in a segment.
type lineAt struct {
	seg string
	off int64
	n   int
}

// lookup returns one result per address, in addrs order: the point the
// store serves for it, or nil for a cell without a verified line. The
// first miss scans the segments for lines appended since the last scan
// (every line, on the first lookup) before it counts.
func (s *CellStore) lookup(addrs []cellAddr) []*experiment.Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.index == nil {
		s.index, s.scanned = make(map[string][]lineAt), make(map[string]int64)
	}
	files := make(map[string]*os.File)
	defer func() {
		for _, f := range files {
			f.Close() // a nil file (one that would not open) is a no-op error
		}
	}()
	points := make([]*experiment.Point, len(addrs))
	rescanned := false
	for k, a := range addrs {
		if points[k] = s.serveLocked(a, files); points[k] == nil && !rescanned {
			rescanned = true
			s.scanLocked()
			points[k] = s.serveLocked(a, files)
		}
	}
	return points
}

// serveLocked returns the point of a's latest line that verifies, or
// nil, reading segments through files (each opened on first use). A
// line the memo remembers under a is served without the full check.
func (s *CellStore) serveLocked(a cellAddr, files map[string]*os.File) *experiment.Point {
	lines := s.index[a.key]
	for i := len(lines) - 1; i >= 0; i-- {
		at := lines[i]
		f, opened := files[at.seg]
		if !opened {
			// A segment that will not open stays nil, and its lines
			// miss: reading a nil file is an error.
			f, _ = os.Open(filepath.Join(s.dir, at.seg))
			files[at.seg] = f
		}
		s.buf = slices.Grow(s.buf[:0], at.n)[:at.n]
		if _, err := f.ReadAt(s.buf, at.off); err != nil {
			continue
		}
		sum := sha256.Sum256(s.buf)
		if p := s.verified.get(sum, a); p != nil {
			return p
		}
		if p, err := verifyCellLine(s.buf, a); err == nil {
			s.verified.put(sum, a, p)
			return p
		}
	}
	return nil
}

// scanLocked indexes the whole lines each segment gained since it was
// last scanned — every line of a segment not seen before — in file-name
// order.
func (s *CellStore) scanLocked() {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return // nothing stored yet (or an unreadable directory: every lookup misses)
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".ndjson") {
			continue
		}
		if info, err := de.Info(); err == nil && info.Size() > s.scanned[name] {
			s.indexSegment(name)
		}
	}
}

// indexSegment adds each whole line of segment name past its scanned
// offset to the lines of the key its spec hashes to, and advances the
// offset past them. Lines of another engine version or without a
// readable spec are skipped, and a torn last line is left unscanned;
// their cells are misses until a later scan finds the line whole.
func (s *CellStore) indexSegment(name string) {
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		return
	}
	defer f.Close()
	off := s.scanned[name]
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return
	}
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			s.scanned[name] = off
			return // EOF, possibly after a torn last line
		}
		var l struct {
			Engine int             `json:"engine"`
			Spec   json.RawMessage `json:"spec"`
		}
		if json.Unmarshal(line, &l) == nil && l.Engine == sim.EngineVersion && len(l.Spec) > 0 {
			if key, err := telemetry.SpecHash(l.Spec); err == nil {
				s.index[key] = append(s.index[key], lineAt{name, off, len(line)})
			}
		}
		off += int64(len(line))
	}
}

// verifyCellLine returns line's point when line is one whole,
// newline-terminated cell line of this engine version that decodes
// strictly (no unknown field, nothing after the object), whose spec
// re-hashes to a.key, whose one point sits at a's (group, X), and whose
// trials equal a.trials.
func verifyCellLine(line []byte, a cellAddr) (*experiment.Point, error) {
	body, ok := bytes.CutSuffix(line, []byte("\n"))
	if !ok || bytes.IndexByte(body, '\n') >= 0 {
		return nil, fmt.Errorf("not one whole line")
	}
	var l cellLine
	if err := strictUnmarshal(body, &l); err != nil {
		return nil, err
	}
	if l.Engine != sim.EngineVersion {
		return nil, fmt.Errorf("cell line from engine %d, this is engine %d", l.Engine, sim.EngineVersion)
	}
	if len(l.Spec) == 0 || l.Point == nil {
		return nil, fmt.Errorf("cell line lacks a spec or a point")
	}
	if key, err := telemetry.SpecHash(l.Spec); err != nil || key != a.key {
		return nil, fmt.Errorf("cell line's spec does not hash to %s", a.key)
	}
	if l.Point.Group != a.group || l.Point.X != a.x || l.Trials != a.trials {
		return nil, fmt.Errorf("cell line holds %q N=%g over %d trials, want %q N=%g over %d",
			l.Point.Group, l.Point.X, l.Trials, a.group, a.x, a.trials)
	}
	return l.Point, nil
}

// strictUnmarshal decodes exactly one JSON value with no unknown
// fields and nothing after it.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

// append stores p as the cell a with one write(2) to this store's
// segment, creating the segment on the first append, and indexes the
// line if the index is built (an unbuilt index finds it when it scans),
// marking it scanned so no re-scan indexes it again. The line is
// {"engine":E,"spec":<a.spec>,"point":<p>,"trials":R}, appended
// directly: a.spec is json.Marshal's compact output and
// Point.AppendJSON writes json.Marshal's bytes for p, so the line is
// json.Marshal's for the cellLine. It is remembered as verified: it is
// what verifyCellLine accepts for a, since a.spec hashes to a.key
// (addressCell).
// The segment is opened and closed around each line, so a store holds
// no file between appends.
func (s *CellStore) append(a cellAddr, p experiment.Point) error {
	line := make([]byte, 0, 64+len(a.spec)+192*(1+len(p.Metrics)))
	line = append(line, `{"engine":`...)
	line = strconv.AppendInt(line, sim.EngineVersion, 10)
	line = append(line, `,"spec":`...)
	line = append(line, a.spec...)
	line = append(line, `,"point":`...)
	line, err := p.AppendJSON(line)
	if err != nil {
		return err
	}
	line = append(line, `,"trials":`...)
	line = strconv.AppendInt(line, int64(a.trials), 10)
	line = append(line, "}\n"...)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.size == 0 {
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return fmt.Errorf("dispatch: cell store: %w", err)
		}
	}
	f, err := os.OpenFile(filepath.Join(s.dir, s.writer), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("dispatch: cell store: %w", err)
	}
	_, err = f.Write(line)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("dispatch: cell store: %w", err)
	}
	if s.index != nil {
		s.index[a.key] = append(s.index[a.key], lineAt{s.writer, s.size, len(line)})
		s.scanned[s.writer] = s.size + int64(len(line))
	}
	s.size += int64(len(line))
	s.verified.put(sha256.Sum256(line), a, &p)
	return nil
}

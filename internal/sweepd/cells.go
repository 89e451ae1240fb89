package sweepd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"wsncover/internal/experiment"
	"wsncover/internal/sim"
	"wsncover/internal/telemetry"
)

// Cell is one (group, N) cell of a campaign as the cell store addresses
// it. Spec is the cell's one-cell campaign (sim.CampaignSpec.CellSpec)
// in JSON and Key its telemetry.SpecHash; a stored line serves the cell
// only when it holds one point at (Group, X) folded from Trials trials.
type Cell struct {
	Key    string
	Spec   json.RawMessage
	Group  string
	X      float64
	Trials int
}

// campaignCells lists the cells of an unsharded spec in job order.
func campaignCells(spec sim.CampaignSpec) ([]Cell, error) {
	spec = spec.Normalized()
	var cells []Cell
	var err error
	spec.ExecutedJobs(nil, func(j sim.TrialJob) {
		if j.Replicate != 0 || err != nil {
			return
		}
		c := Cell{Group: j.Group(), X: float64(j.Spares), Trials: spec.Replicates}
		if c.Spec, err = json.Marshal(spec.CellSpec(j)); err == nil {
			c.Key, err = telemetry.SpecHash(c.Spec)
		}
		cells = append(cells, c)
	})
	return cells, err
}

// cellLine is one line of cells.ndjson. Its key is re-derived from
// Spec on every read, never stored.
type cellLine struct {
	Spec   json.RawMessage   `json:"spec"`
	Point  *experiment.Point `json:"point"`
	Trials int               `json:"trials"`
}

// cellID is a cell's identity within one campaign: its point's
// (group, X).
type cellID struct {
	group string
	x     float64
}

// lineAt locates one whole line, newline included, in cells.ndjson.
type lineAt struct {
	off int64
	n   int
}

func (s *Store) cellsPath() string { return filepath.Join(s.dir, "cells.ndjson") }

// storedCells splits cells into the points the cell store serves for
// them and the cells it does not (fresh), both in cells order. Every
// hit re-reads its line and is served only if the line verifies as the
// cell's (see verifyCellLine); anything else — no line, a torn,
// garbled or foreign one, an index entry pointing at the wrong line —
// is a miss, and the caller recomputes the cell.
func (s *Store) storedCells(cells []Cell) (points []experiment.Point, fresh []Cell) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.indexCellsLocked()
	var f *os.File
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	for _, c := range cells {
		if at, ok := s.cellIndex[c.Key]; ok {
			if f == nil {
				// A file that will not open leaves f nil, and readCell
				// then misses: the cells are recomputed.
				f, _ = os.Open(s.cellsPath())
			}
			if p, err := readCell(f, at, c); err == nil {
				points = append(points, p)
				continue
			}
		}
		fresh = append(fresh, c)
	}
	return points, fresh
}

// indexCellsLocked builds the cell index on first use: one scan of
// cells.ndjson mapping the key each whole line's spec hashes to onto
// that line, a later line for a key replacing an earlier one. Lines
// without a readable spec are skipped, and a torn last line is not
// indexed; their cells are misses.
func (s *Store) indexCellsLocked() {
	if s.cellIndex != nil {
		return
	}
	s.cellIndex = make(map[string]lineAt)
	f, err := os.Open(s.cellsPath())
	if err != nil {
		return // no cell stored yet (or an unreadable file: every lookup misses)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var off int64
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			return // EOF, possibly after a torn last line
		}
		var l struct {
			Spec json.RawMessage `json:"spec"`
		}
		if json.Unmarshal(line, &l) == nil && len(l.Spec) > 0 {
			if key, err := telemetry.SpecHash(l.Spec); err == nil {
				s.cellIndex[key] = lineAt{off, len(line)}
			}
		}
		off += int64(len(line))
	}
}

// readCell reads the line at `at` and returns its point if the line
// verifies as c's.
func readCell(f *os.File, at lineAt, c Cell) (experiment.Point, error) {
	if f == nil {
		return experiment.Point{}, fmt.Errorf("cell store unreadable")
	}
	line := make([]byte, at.n)
	if _, err := f.ReadAt(line, at.off); err != nil {
		return experiment.Point{}, err
	}
	return verifyCellLine(line, c)
}

// verifyCellLine returns line's point when line is one whole,
// newline-terminated cell line that decodes strictly (no unknown field,
// nothing after the object), whose spec re-hashes to c.Key, whose one
// point sits at c's (group, X), and whose trials equal c.Trials.
func verifyCellLine(line []byte, c Cell) (experiment.Point, error) {
	body, ok := bytes.CutSuffix(line, []byte("\n"))
	if !ok || bytes.IndexByte(body, '\n') >= 0 {
		return experiment.Point{}, fmt.Errorf("not one whole line")
	}
	var l cellLine
	if err := experiment.StrictUnmarshal(body, &l); err != nil {
		return experiment.Point{}, err
	}
	if len(l.Spec) == 0 || l.Point == nil {
		return experiment.Point{}, fmt.Errorf("cell line lacks a spec or a point")
	}
	if key, err := telemetry.SpecHash(l.Spec); err != nil || key != c.Key {
		return experiment.Point{}, fmt.Errorf("cell line's spec does not hash to %s", c.Key)
	}
	if l.Point.Group != c.Group || l.Point.X != c.X || l.Trials != c.Trials {
		return experiment.Point{}, fmt.Errorf("cell line holds %q N=%g over %d trials, want %q N=%g over %d",
			l.Point.Group, l.Point.X, l.Trials, c.Group, c.X, c.Trials)
	}
	return *l.Point, nil
}

// appendCells appends m's point for each of cells to cells.ndjson in a
// single write(2) under the store mutex, and indexes the new lines if
// the index is built (an unbuilt index finds them when it scans).
func (s *Store) appendCells(m *experiment.Manifest, cells []Cell) error {
	if len(cells) == 0 {
		return nil
	}
	points := make(map[cellID]*experiment.Point, len(m.Points))
	for i := range m.Points {
		points[cellID{m.Points[i].Group, m.Points[i].X}] = &m.Points[i]
	}
	var buf bytes.Buffer
	ends := make([]int, len(cells))
	for i, c := range cells {
		p := points[cellID{c.Group, c.X}]
		if p == nil {
			return fmt.Errorf("manifest %s has no point for cell %q N=%g", m.Name, c.Group, c.X)
		}
		line, err := json.Marshal(cellLine{Spec: c.Spec, Point: p, Trials: c.Trials})
		if err != nil {
			return err
		}
		buf.Write(line)
		buf.WriteByte('\n')
		ends[i] = buf.Len()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := os.OpenFile(s.cellsPath(), os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	data, err := startOnFreshLine(f, buf.Bytes())
	if err == nil {
		_, err = f.Write(data)
	}
	// With O_APPEND the write lands at the end of the file, wherever
	// that is by then; the offset after it locates the new lines.
	var end int64
	if err == nil {
		end, err = f.Seek(0, io.SeekCurrent)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if s.cellIndex != nil {
		start := end - int64(buf.Len())
		prev := 0
		for i, c := range cells {
			s.cellIndex[c.Key] = lineAt{start + int64(prev), ends[i] - prev}
			prev = ends[i]
		}
	}
	return nil
}

// startOnFreshLine prefixes data with a newline when f ends in a torn
// line (a writer killed mid-append), so the torn fragment cannot
// swallow the first new line.
func startOnFreshLine(f *os.File, data []byte) ([]byte, error) {
	info, err := f.Stat()
	if err != nil || info.Size() == 0 {
		return data, err
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, info.Size()-1); err != nil {
		return nil, err
	}
	if last[0] == '\n' {
		return data, nil
	}
	return append([]byte{'\n'}, data...), nil
}

package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// CellLog is the append-only checkpoint of a running campaign, one JSON
// document per line:
//
//	{"name":..,"spec":..,"workers":..}          header: the manifest without points
//	{"point":{..},"trials":n}                   one line per completed (group, X) cell
//
// The header (plus any cells carried over from a prior run) lands once,
// atomically, when the log is created; after that every completed cell
// costs one write(2) on an O_APPEND file. There is no fsync: the
// contract is process-crash safety — a killed process loses at most the
// line it was writing — not power-loss durability. ReadCellLog accepts
// every complete, well-formed line up to the first torn or garbled one,
// so a torn last line just means that cell is not done and a resume
// recomputes it.
//
// A CellLog is not safe for concurrent use; the campaign sink that
// feeds it is serialized.
type CellLog struct {
	f   *os.File
	buf bytes.Buffer
	enc *json.Encoder // encodes into buf
}

// CellLogPath is where the campaign named name keeps its checkpoint
// log beside its manifest in dir: dir/<name>.cells.ndjson.
func CellLogPath(dir, name string) string {
	return filepath.Join(dir, name+".cells.ndjson")
}

// CellRecord is one completed cell of a CellLog: its aggregated point
// and the number of trials folded into it.
type CellRecord struct {
	Point  Point `json:"point"`
	Trials int   `json:"trials"`
}

// cellLogHeader is the log's first line: the manifest fields a cell
// line does not carry.
type cellLogHeader struct {
	Name    string          `json:"name"`
	Spec    json.RawMessage `json:"spec,omitempty"`
	Workers int             `json:"workers"`
}

// CreateCellLog atomically replaces path with a log holding head's
// header (its Jobs and Points are ignored) followed by carried, and
// opens it for appending. Replacing rather than appending to an older
// log drops that log's torn tail and any cells the caller chose not to
// carry.
func CreateCellLog(path string, head *Manifest, carried []CellRecord) (*CellLog, error) {
	l := &CellLog{}
	l.enc = json.NewEncoder(&l.buf)
	err := writeAtomic(path, func(w io.Writer) error {
		if err := l.encode(cellLogHeader{Name: head.Name, Spec: head.Spec, Workers: head.Workers}); err != nil {
			return err
		}
		for _, rec := range carried {
			if err := l.encode(rec); err != nil {
				return err
			}
		}
		_, err := w.Write(l.buf.Bytes())
		return err
	})
	if err != nil {
		return nil, err
	}
	if l.f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0); err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	return l, nil
}

// Append records one completed cell with a single write.
func (l *CellLog) Append(rec CellRecord) error {
	l.buf.Reset()
	if err := l.encode(rec); err != nil {
		return err
	}
	if _, err := l.f.Write(l.buf.Bytes()); err != nil {
		return fmt.Errorf("experiment: cell log: %w", err)
	}
	return nil
}

// Close closes the log file; closing twice returns an error and has no
// other effect.
func (l *CellLog) Close() error {
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("experiment: cell log: %w", err)
	}
	return nil
}

// encode appends v as one JSON line to the buffer (json.Encoder adds
// the newline and never emits one inside a document).
func (l *CellLog) encode(v any) error {
	if err := l.enc.Encode(v); err != nil {
		return fmt.Errorf("experiment: cell log: %w", err)
	}
	return nil
}

// ReadCellLog reads the log at path as the manifest of its accepted
// cells (see ParseCellLog).
func ReadCellLog(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := ParseCellLog(data)
	if err != nil {
		return nil, fmt.Errorf("cell log %s: %w", path, err)
	}
	return m, nil
}

// ParseCellLog decodes a cell log into the manifest of the cells it
// records: the header's name, spec and workers, the accepted points in
// canonical order, and Jobs as the sum of their trial counts. Cell lines are
// accepted up to the first one that is unterminated, does not parse,
// lacks a point or a positive trial count, or repeats an earlier cell;
// that line and everything after it are ignored. A missing or malformed
// header, or one without a spec, is an error: the log cannot say which
// campaign it belongs to.
func ParseCellLog(data []byte) (*Manifest, error) {
	line, rest, ok := bytes.Cut(data, []byte("\n"))
	if !ok {
		return nil, fmt.Errorf("no complete header line")
	}
	var head cellLogHeader
	if err := StrictUnmarshal(line, &head); err != nil {
		return nil, fmt.Errorf("malformed header: %w", err)
	}
	if len(head.Spec) == 0 {
		return nil, fmt.Errorf("header echoes no spec")
	}
	m := &Manifest{Name: head.Name, Spec: head.Spec, Workers: head.Workers}
	seen := make(map[accKey]bool)
	for {
		if line, rest, ok = bytes.Cut(rest, []byte("\n")); !ok {
			break // empty remainder or a torn last line
		}
		var rec struct {
			Point  *Point `json:"point"`
			Trials int    `json:"trials"`
		}
		if StrictUnmarshal(line, &rec) != nil || rec.Point == nil || rec.Trials <= 0 {
			break
		}
		k := accKey{rec.Point.Group, rec.Point.X}
		if seen[k] {
			break
		}
		seen[k] = true
		m.Points = append(m.Points, *rec.Point)
		m.Jobs += rec.Trials
	}
	SortPoints(m.Points)
	return m, nil
}

// StrictUnmarshal decodes exactly one JSON value with no unknown
// fields and nothing after it.
func StrictUnmarshal(line []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Manifest is the JSON artifact describing one aggregated campaign: the
// spec that produced it (opaque to this package), the job accounting,
// and every aggregated point. Map keys marshal sorted and points come
// in the canonical (group, X) order of Aggregate, Accumulator.Points
// and SortPoints, so the serialized form is deterministic.
//
// One encoder writes it (Encode, and Point.AppendJSON for a cell line's
// point): it appends the bytes encoding/json writes for these types
// directly, and encoding/json, through the field tags below, is the
// reference its tests compare against and the decoder that reads a
// manifest back.
type Manifest struct {
	// Name labels the campaign (used as the artifact base name).
	Name string `json:"name"`
	// Spec echoes the caller's sweep specification verbatim.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Jobs is the number of trials executed; Workers the pool size used.
	Jobs    int `json:"jobs"`
	Workers int `json:"workers"`
	// Points holds the aggregated results.
	Points []Point `json:"points"`
}

// NewManifest bundles aggregated points with a marshalled copy of spec.
func NewManifest(name string, spec any, jobs, workers int, points []Point) (*Manifest, error) {
	m := &Manifest{Name: name, Jobs: jobs, Workers: workers, Points: points}
	if spec != nil {
		raw, err := json.Marshal(spec)
		if err != nil {
			return nil, fmt.Errorf("experiment: marshal spec: %w", err)
		}
		m.Spec = raw
	}
	return m, nil
}

// Write writes the manifest's serialized form, Encode's bytes.
func (m *Manifest) Write(w io.Writer) error {
	data, err := m.Encode()
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("experiment: write manifest: %w", err)
	}
	return nil
}

// Encode returns the serialized manifest: exactly the bytes a
// json.Encoder with SetIndent("", "  ") writes for m, final newline
// included, built without reflection.
func (m *Manifest) Encode() ([]byte, error) {
	data, err := m.encode()
	if err != nil {
		return nil, fmt.Errorf("experiment: encode manifest: %w", err)
	}
	return data, nil
}

// Save writes the manifest to dir/<name>.json, creating dir when needed,
// and returns the written path. The write is atomic — a uniquely named
// temp file in dir, renamed over the target — so a reader (or a process
// killed mid-save) never observes a torn manifest: the path holds either
// the previous complete manifest or the new one, nothing in between.
func (m *Manifest) Save(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("experiment: %w", err)
	}
	path := filepath.Join(dir, m.Name+".json")
	return path, m.WriteAtomic(path)
}

// WriteAtomic atomically replaces path with the serialized manifest
// (see WriteFileAtomic).
func (m *Manifest) WriteAtomic(path string) error {
	data, err := m.Encode()
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, data)
}

// WriteFileAtomic atomically replaces path with data: the bytes go to a
// uniquely named temp file in the same directory, which is then renamed
// over path, so a reader (or a writer killed mid-write) sees the old
// content or the new, never a prefix. The temp file is removed on every
// failure path.
func WriteFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("experiment: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("experiment: %w", err)
	}
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("experiment: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("experiment: %w", err)
	}
	return nil
}

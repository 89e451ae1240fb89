package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"

	"wsncover/internal/stats"
)

// encoder appends the JSON a campaign writes to b: json.Marshal's
// compact form, or with indent set the layout of a json.Encoder with
// SetIndent("", "  "). It writes exactly encoding/json's bytes for the
// types it knows (the differential tests and FuzzPointJSON hold it to
// that) without reflection. The first value it cannot encode, a NaN or
// an infinity, is kept in err, as encoding/json would fail on it.
type encoder struct {
	b      []byte
	indent bool
	depth  int
	err    error
}

// newline breaks the line and indents to the current depth, when
// indenting.
func (e *encoder) newline() {
	if e.indent {
		e.b = append(e.b, '\n')
		for range e.depth {
			e.b = append(e.b, "  "...)
		}
	}
}

// open starts an object or an array.
func (e *encoder) open(c byte) {
	e.b = append(e.b, c)
	e.depth++
}

// close ends an object or an array of n members or elements: an empty
// one stays "{}" or "[]" when indenting, as json.Indent leaves it.
func (e *encoder) close(c byte, n int) {
	e.depth--
	if n > 0 {
		e.newline()
	}
	e.b = append(e.b, c)
}

// elem starts element i of an array.
func (e *encoder) elem(i int) {
	if i > 0 {
		e.b = append(e.b, ',')
	}
	e.newline()
}

// key starts member i of an object, named k.
func (e *encoder) key(i int, k string) {
	e.elem(i)
	e.string(k)
	e.b = append(e.b, ':')
	if e.indent {
		e.b = append(e.b, ' ')
	}
}

// string appends s quoted. A string that encoding/json would escape
// (a quote, a backslash, a control byte, <, > or &, or any byte of a
// multi-byte or invalid UTF-8 sequence) is left to json.Marshal.
func (e *encoder) string(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// int appends n in decimal.
func (e *encoder) int(n int) { e.b = strconv.AppendInt(e.b, int64(n), 10) }

// float appends x as encoding/json formats a float64: the shortest
// decimal that reads back as x, in exponent form below 1e-6 and from
// 1e21 up (with a one-digit negative exponent written e-7, not e-07).
// NaN and the infinities have no JSON form and fail the encoding.
func (e *encoder) float(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(x, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, x, format, -1, 64)
	if n := len(e.b); format == 'e' && n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// point appends p: its group, X and metrics by sorted name.
func (e *encoder) point(p *Point) {
	e.open('{')
	e.key(0, "group")
	e.string(p.Group)
	e.key(1, "x")
	e.float(p.X)
	e.key(2, "metrics")
	if p.Metrics == nil {
		e.b = append(e.b, "null"...)
	} else {
		var buf [16]string
		names := buf[:0]
		for name := range p.Metrics {
			names = append(names, name)
		}
		slices.Sort(names)
		e.open('{')
		for i, name := range names {
			e.key(i, name)
			e.description(p.Metrics[name])
		}
		e.close('}', len(names))
	}
	e.close('}', 3)
}

// description appends d with stats.Description's field names, and
// median_approx only when set.
func (e *encoder) description(d stats.Description) {
	e.open('{')
	e.key(0, "N")
	e.int(d.N)
	for i, f := range [...]struct {
		name string
		v    float64
	}{{"Mean", d.Mean}, {"StdDev", d.StdDev}, {"CI95", d.CI95}, {"Min", d.Min}, {"Max", d.Max}, {"Median", d.Median}} {
		e.key(i+1, f.name)
		e.float(f.v)
	}
	n := 7
	if d.MedianApprox {
		e.key(n, "median_approx")
		e.b = append(e.b, "true"...)
		n++
	}
	e.close('}', n)
}

// AppendJSON appends p's compact JSON encoding to b: the bytes
// json.Marshal writes for p. A NaN or infinite value fails it.
func (p *Point) AppendJSON(b []byte) ([]byte, error) {
	e := encoder{b: b}
	e.point(p)
	return e.b, e.err
}

// encode returns the manifest's JSON, indented, with a final newline.
func (m *Manifest) encode() ([]byte, error) {
	e := encoder{b: make([]byte, 0, 256+4*len(m.Spec)+2560*len(m.Points)), indent: true}
	e.open('{')
	e.key(0, "name")
	e.string(m.Name)
	n := 1
	if len(m.Spec) > 0 {
		e.key(n, "spec")
		n++
		// The spec is opaque here: json.Marshal compacts it (escaping
		// HTML, as the encoder of a whole manifest does) and checks it,
		// and json.Indent lays it out one level down.
		spec, err := json.Marshal(m.Spec)
		if err != nil {
			return nil, err
		}
		buf := bytes.NewBuffer(e.b)
		if err := json.Indent(buf, spec, "  ", "  "); err != nil {
			return nil, err
		}
		e.b = buf.Bytes()
	}
	e.key(n, "jobs")
	e.int(m.Jobs)
	e.key(n+1, "workers")
	e.int(m.Workers)
	e.key(n+2, "points")
	if m.Points == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.open('[')
		for i := range m.Points {
			e.elem(i)
			e.point(&m.Points[i])
		}
		e.close(']', len(m.Points))
	}
	e.close('}', n+3)
	e.b = append(e.b, '\n')
	return e.b, e.err
}

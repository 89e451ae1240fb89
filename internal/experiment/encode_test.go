package experiment

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"wsncover/internal/stats"
)

// referencePoint is json.Marshal's encoding of p, the bytes
// Point.AppendJSON must write.
func referencePoint(p *Point) ([]byte, error) { return json.Marshal(p) }

// referenceManifest is the encoding of m by a json.Encoder indenting by
// two spaces, the bytes Manifest.Encode must write.
func referenceManifest(m *Manifest) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(m)
	return buf.Bytes(), err
}

// checkEncodings fails unless the direct encoder writes encoding/json's
// bytes for p (compact) and for a manifest holding it (indented), and
// fails exactly when encoding/json does.
func checkEncodings(t *testing.T, m *Manifest) {
	t.Helper()
	for i := range m.Points {
		p := &m.Points[i]
		want, wantErr := referencePoint(p)
		got, err := p.AppendJSON([]byte("prefix"))
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("point %+v: AppendJSON error %v, json.Marshal error %v", p, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("point %+v:\n got %s\nwant prefix%s", p, got, want)
		}
	}
	want, wantErr := referenceManifest(m)
	got, err := m.Encode()
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("manifest: Encode error %v, json.Encoder error %v", err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("manifest:\n got %s\nwant %s", got, want)
	}
	var buf bytes.Buffer
	if werr := m.Write(&buf); (werr != nil) != (err != nil) || !bytes.Equal(buf.Bytes(), got) {
		t.Fatalf("Write wrote %q (%v), Encode %q (%v)", buf.Bytes(), werr, got, err)
	}
}

// encodingFloats are the floats whose formatting encoding/json special-
// cases: the exponent-form thresholds, subnormals, signed zero,
// integers, and the values with no JSON form.
var encodingFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 16, 1e6, 1e20, 123456789012345678901,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, 1e-7, 1.5e-9, 1e-10, 1e-100,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e100, 1e300,
	5e-324, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308, math.MaxFloat64,
	0.1, 1.0 / 3, 11.5, 2.5066282746310002,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// encodingStrings are group and metric names that exercise escaping.
var encodingStrings = []string{
	"", "SR", "SR 16x16 holes=3", `quo"te`, `back\slash`, "tab\there", "nl\n", "\x00\x1f\x7f",
	"<b>&amp;</b>", "caf\u00e9", "line\u2028sep\u2029", "bad\xffutf8\xc3", "\U0001F600",
}

func TestEncodeMatchesEncodingJSON(t *testing.T) {
	desc := func(x float64, approx bool) stats.Description {
		return stats.Description{N: 7, Mean: x, StdDev: x / 3, CI95: -x, Min: x * 1e-3, Max: x * 1e3, Median: x, MedianApprox: approx}
	}
	for _, x := range encodingFloats {
		for _, approx := range []bool{false, true} {
			m := &Manifest{Name: "floats", Jobs: 3, Workers: 1, Points: []Point{
				{Group: "SR", X: x, Metrics: map[string]stats.Description{"moves": desc(x, approx), "distance": desc(1, !approx)}},
			}}
			checkEncodings(t, m)
		}
	}
	for _, s := range encodingStrings {
		m := &Manifest{Name: s, Spec: json.RawMessage(`{"note":"a<b&c"}`), Points: []Point{
			{Group: s, X: 10, Metrics: map[string]stats.Description{s: desc(2, false), s + "z": desc(3, true)}},
		}}
		checkEncodings(t, m)
	}
	for _, m := range []*Manifest{
		{},
		{Name: "nil-points"},
		{Name: "empty-points", Points: []Point{}},
		{Name: "metrics", Points: []Point{{Group: "nil"}, {Group: "empty", Metrics: map[string]stats.Description{}}}},
		{Name: "spec", Spec: json.RawMessage(`{"a" : [1, {"b":2}], "c":{}, "d":[]}`), Points: Aggregate(sampleFixture())},
		{Name: "null-spec", Spec: json.RawMessage(`null`)},
		{Name: "bad-spec", Spec: json.RawMessage(`{"a":`)},
	} {
		checkEncodings(t, m)
	}
}

// FuzzPointJSON holds the direct encoder to encoding/json, compact and
// indented, for points and whole manifests: equal bytes, or an error on
// both sides. shape picks nil or empty metrics and points and a second
// metric.
func FuzzPointJSON(f *testing.F) {
	for i, x := range encodingFloats {
		s := encodingStrings[i%len(encodingStrings)]
		f.Add(s, encodingStrings[(i+3)%len(encodingStrings)], x, x/7, -x, i, i%2 == 0, uint8(i), []byte(`{"schemes":["SR"],"x":"<&>"}`))
	}
	for i, s := range encodingStrings {
		f.Add(s, s, float64(i), 1e-7, 1e21, -i, i%2 == 1, uint8(i*5), []byte(nil))
	}
	f.Add("", "", 0.0, 0.0, 0.0, 0, false, uint8(0), []byte(`{}`))
	f.Fuzz(func(t *testing.T, group, metric string, x, mean, spread float64, n int, approx bool, shape uint8, spec []byte) {
		d := stats.Description{N: n, Mean: mean, StdDev: spread, CI95: spread / 2, Min: mean - spread, Max: mean + spread, Median: x, MedianApprox: approx}
		p := Point{Group: group, X: x, Metrics: map[string]stats.Description{metric: d}}
		switch shape % 4 {
		case 1:
			p.Metrics = nil
		case 2:
			p.Metrics = map[string]stats.Description{}
		case 3:
			d.MedianApprox = !approx
			p.Metrics[metric+group] = d
		}
		m := &Manifest{Name: metric, Spec: spec, Jobs: n, Workers: int(shape), Points: []Point{p, {Group: group + "'", X: -x}}}
		switch shape / 4 % 4 {
		case 1:
			m.Points = nil
		case 2:
			m.Points = []Point{}
		}
		checkEncodings(t, m)
	})
}

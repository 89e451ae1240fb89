package telemetry

import (
	"bytes"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wsncover/internal/sim"
)

func TestLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.ndjson")
	recs := []Record{
		{
			Time: time.Date(2026, 8, 7, 10, 0, 0, 0, time.UTC),
			Name: "churn", Mode: "run", SpecHash: "sha256:0011", Manifest: "out/churn.json",
			Jobs: 96, Points: 12, WallS: 3.5, TrialsPerS: 27.4,
			GroupSeconds: map[string]float64{"SR": 1.2, "AR": 2.1},
		},
		{
			Name: "churn", Mode: "merge", SpecHash: "sha256:0011", Manifest: "out/churn.json",
			Jobs: 96, Points: 12, WallS: 1.1,
		},
	}
	for _, r := range recs {
		if err := AppendRecord(path, r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d records, want 2", len(got))
	}
	if got[0].Time != recs[0].Time || got[0].GroupSeconds["AR"] != 2.1 {
		t.Errorf("record 0 = %+v", got[0])
	}
	// A zero Time is stamped at append, so the history is always ordered.
	if got[1].Time.IsZero() {
		t.Error("AppendRecord should stamp a zero Time")
	}
	if got[1].Mode != "merge" || got[1].Jobs != 96 {
		t.Errorf("record 1 = %+v", got[1])
	}

	// A record of the retired fleet supervisor carries keys Record no
	// longer has; the history stays readable.
	old := `{"time":"2026-08-01T12:00:00Z","name":"nightly","mode":"dispatch","status":"completed",` +
		`"spec_hash":"sha256:0011","manifest":"out/nightly.json","jobs":96,"points":12,"shards":2,"retries":1,"wall_s":0.9}`
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(old + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err = ReadLedger(path)
	if err != nil {
		t.Fatalf("a dispatch-era record no longer decodes: %v", err)
	}
	if len(got) != 3 || got[2].Mode != "dispatch" || got[2].Name != "nightly" || got[2].Jobs != 96 {
		t.Errorf("dispatch-era record = %+v", got[len(got)-1])
	}
}

func TestReadLedgerRejectsMalformedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.ndjson")
	content := `{"name":"ok","mode":"run"}` + "\n\n" + "{broken\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadLedger(path)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("err = %v, want a line-3 parse failure (blank lines skipped but counted)", err)
	}
}

func TestSpecHashDeterministicAndDiscriminating(t *testing.T) {
	spec := sim.CampaignSpec{
		Schemes: []sim.SchemeKind{sim.SR, sim.AR},
		Grids:   []sim.GridSize{{Cols: 16, Rows: 16}},
		Spares:  []int{8, 16}, Replicates: 10, BaseSeed: 42,
	}.Normalized()
	h1, err := SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := SpecHash(spec)
	if h1 != h2 {
		t.Errorf("hash not deterministic: %s vs %s", h1, h2)
	}
	if !strings.HasPrefix(h1, "sha256:") || len(h1) != len("sha256:")+64 {
		t.Errorf("hash format %q", h1)
	}
	other := spec
	other.BaseSeed = 43
	if h3, _ := SpecHash(other); h3 == h1 {
		t.Error("different specs must hash differently")
	}
}

// TestSpecHashIgnoresExecutionOnlyFields pins the cache-key contract:
// two differently-parallelized submissions of the same science must
// collide to one content-addressed store entry. Worker pool size and
// arena pooling change wall clock, never the campaign results.
func TestSpecHashIgnoresExecutionOnlyFields(t *testing.T) {
	base := sim.CampaignSpec{
		Schemes: []sim.SchemeKind{sim.SR, sim.AR},
		Grids:   []sim.GridSize{{Cols: 12, Rows: 12}},
		Spares:  []int{15, 60}, Replicates: 8, BaseSeed: 2008,
	}.Normalized()
	want, err := SpecHash(base)
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]func(*sim.CampaignSpec){
		"workers=1":   func(s *sim.CampaignSpec) { s.Workers = 1 },
		"workers=8":   func(s *sim.CampaignSpec) { s.Workers = 8 },
		"fresh_build": func(s *sim.CampaignSpec) { s.FreshBuild = true },
	}
	for name, mutate := range variants {
		v := base
		mutate(&v)
		got, err := SpecHash(v)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: hash %s, want the base spec's %s (execution-only fields must not affect the cache key)",
				name, got, want)
		}
	}
	// The science itself still discriminates.
	science := base
	science.Spares = []int{15, 61}
	if got, _ := SpecHash(science); got == want {
		t.Error("a different spare list must change the hash")
	}
}

// TestSpecHashPinned pins one unsharded spec's hash to the literal the
// hash had before shards split whole cells: renaming the range fields
// must not move any store key.
func TestSpecHashPinned(t *testing.T) {
	spec := sim.CampaignSpec{
		Schemes:    []sim.SchemeKind{sim.SR, sim.AR},
		Grids:      []sim.GridSize{{Cols: 8, Rows: 8}},
		Spares:     []int{8, 24},
		Workloads:  []sim.WorkloadSpec{{Kind: sim.WorkloadHoles}, {Kind: sim.WorkloadJam}},
		Replicates: 12,
		BaseSeed:   21,
	}.Normalized()
	const want = "sha256:66795a58de67690e87af61c55bc1234a160fb4b504cca3315231f1a9f9bc67a5"
	if got, err := SpecHash(spec); err != nil || got != want {
		t.Errorf("SpecHash = %s, %v; want %s", got, err, want)
	}
}

func TestParseLogLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"":        slog.LevelInfo,
		"info":    slog.LevelInfo,
		"DEBUG":   slog.LevelDebug,
		" warn ":  slog.LevelWarn,
		"warning": slog.LevelWarn,
		"error":   slog.LevelError,
	} {
		got, err := ParseLogLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLogLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLogLevel("verbose"); err == nil {
		t.Error("bad level should error")
	}
}

func TestNewLoggerEnvConfig(t *testing.T) {
	t.Setenv(LogLevelEnv, "debug")
	t.Setenv(LogFormatEnv, "json")
	var buf bytes.Buffer
	log := NewLogger(&buf)
	log.Debug("fleet event", "shard", 3)
	out := buf.String()
	if !strings.Contains(out, `"shard":3`) || !strings.Contains(out, "fleet event") {
		t.Errorf("json debug output = %q", out)
	}

	// Default: text at info — debug is filtered.
	t.Setenv(LogLevelEnv, "")
	t.Setenv(LogFormatEnv, "")
	buf.Reset()
	log = NewLogger(&buf)
	log.Debug("hidden")
	log.Info("shown", "attempt", 2)
	out = buf.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, "attempt=2") {
		t.Errorf("text info output = %q", out)
	}

	// A typo'd level degrades to info with a warning, not a failure.
	t.Setenv(LogLevelEnv, "loud")
	buf.Reset()
	log = NewLogger(&buf)
	if !strings.Contains(buf.String(), "ignoring bad log level") {
		t.Errorf("bad level should warn on the logger itself, got %q", buf.String())
	}
	log.Info("still works")
	if !strings.Contains(buf.String(), "still works") {
		t.Error("logger should stay usable after a bad level")
	}
}

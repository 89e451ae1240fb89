// Command perfbench is the repository benchmark. It drives the campaign
// engine (sim.RunCampaignStream) and the campaign service (sweepd) from
// one process through their public functions, checks every output
// against a reference, and prints one JSON result as its last line:
//
//	bash perfbench/run.sh --workload field-1024 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures one workload's end-to-end metrics. With
// --trace 1 it re-runs a sample of every workload's trials and requests
// on one worker, with a span around each call into a layer, and reports
// per-layer self times, counts and ratios. workloads.json holds the
// workload specs, the reason for each, and which end-to-end metric each
// per-layer metric should move.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"syscall"
	"time"

	"wsncover/internal/sim"
)

//go:embed workloads.json
var workloadsJSON []byte

// benchFile is the part of workloads.json the benchmark executes; the
// rest of the file documents it.
type benchFile struct {
	SetupReps int           `json:"setup_repetitions"`
	Workloads []workloadDef `json:"workloads"`
}

// workloadDef is one workload. Campaign workloads run Spec as a
// sequence of campaigns; the service workload submits Spec and its
// widened copy to an in-process sweepd.
type workloadDef struct {
	Name    string          `json:"name"`
	Service bool            `json:"service"`
	Spec    json.RawMessage `json:"spec"`
	// TraceReplicates is how many replicates of each campaign cell the
	// traced run rebuilds.
	TraceReplicates int `json:"trace_replicates"`
	// Service workload only.
	WidenSpares []int `json:"widen_spares"`
	Hits        int   `json:"hits"`
	BlockRounds int   `json:"block_rounds"`
	TraceRounds int   `json:"trace_rounds"`
}

// campaignSpec returns the workload's k-th campaign under the benchmark
// seed: the spec with seed = 1000*seed + k.
func (w *workloadDef) campaignSpec(seed int64, k int) (sim.CampaignSpec, error) {
	var s sim.CampaignSpec
	if err := sim.UnmarshalSpecJSON(w.Spec, &s); err != nil {
		return s, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	s.BaseSeed = 1000*seed + int64(k)
	return s, s.ValidateUnsharded()
}

func loadBenchFile() (*benchFile, error) {
	var f benchFile
	if err := json.Unmarshal(workloadsJSON, &f); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	if f.SetupReps < 1 {
		f.SetupReps = 1
	}
	return &f, nil
}

func (f *benchFile) workload(name string) (*workloadDef, error) {
	for i := range f.Workloads {
		if f.Workloads[i].Name == name {
			return &f.Workloads[i], nil
		}
	}
	names := make([]string, len(f.Workloads))
	for i, w := range f.Workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// metricValue is one metric of the JSON result.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the operation tally, the metrics of the
// JSON line, and a human-readable report printed before it.
type result struct {
	tally
	metrics map[string]metricValue
	lines   []string
}

func newResult() *result { return &result{metrics: make(map[string]metricValue)} }

// metric records a JSON metric and reports it.
func (r *result) metric(name string, v float64, unit string) {
	r.metrics[name] = metricValue{v, unit}
	r.report(name, v, unit, "")
}

// report adds a line to the human-readable report only.
func (r *result) report(name string, v float64, unit, note string) {
	r.lines = append(r.lines, fmt.Sprintf("%-28s %16.4f  %-10s %s", name, v, unit, note))
}

// note adds free text to the report.
func (r *result) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// percentiles reports name.pNN for each p over xs, with the sample count
// and whether the percentile has enough samples beyond it.
func (r *result) percentiles(name string, xs []float64, unit string, ps ...float64) {
	for _, p := range ps {
		v, ok := percentile(xs, p)
		note := fmt.Sprintf("n=%d", len(xs))
		if !ok {
			note += fmt.Sprintf(" (fewer than %d samples beyond; not reportable)", minBeyond)
		}
		r.report(fmt.Sprintf("%s.p%d", name, int(p*100+0.5)), v, unit, note)
	}
}

// maxRSSMiB returns the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() {
	workload := flag.String("workload", "", "workload name (see workloads.json)")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "how long the timed phase runs")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	out := flag.String("out", ".bench_build", "directory for temporary stores and span files")
	flag.Parse()

	res, err := run(*workload, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, l := range res.lines {
		fmt.Println(l)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(name string, seed int64, seconds float64, traced bool, out string) (*result, error) {
	f, err := loadBenchFile()
	if err != nil {
		return nil, err
	}
	w, err := f.workload(name)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	// Every run ends well inside the 180 s a run may take.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	var res *result
	switch {
	case traced:
		res, err = runTraced(ctx, f, seed, scratch, out)
	case w.Service:
		res, err = runService(ctx, f, w, seed, seconds, scratch)
	default:
		res, err = runCampaigns(ctx, f, w, seed, seconds)
	}
	if err != nil {
		return nil, err
	}
	res.report("failed_frac", res.failedFrac(), "ratio",
		fmt.Sprintf("%d failed of %d attempted", res.failed, res.attempted))
	return res, nil
}

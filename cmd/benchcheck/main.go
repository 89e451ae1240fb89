// Command benchcheck gates CI on benchmark regressions: it reads `go
// test -bench` output on stdin, looks each requested benchmark up in
// the BENCH_trial.json history, and fails when a measured metric
// exceeds the recorded baseline by more than the allowed ratio.
//
// Usage:
//
//	go test -bench ReplicateSteadyState -benchtime 20x -run '^$' . |
//	    benchcheck -baseline BENCH_trial.json \
//	        -check 'ReplicateSteadyState/pooled-64x64:bytes_op:1.5' \
//	        -check 'ReplicateSteadyState/pooled-64x64:allocs_op:1.5'
//
// Each -check is NAME:METRIC:MAXRATIO, where NAME is the benchmark name
// without the "Benchmark" prefix (matching the keys of the baseline's
// "benchmarks" object), METRIC is ns_op, bytes_op, or allocs_op, and
// MAXRATIO bounds measured/baseline. Allocation metrics are stable
// across machines, which is what makes them CI-gateable; ns_op gates
// should use generous ratios if used at all. The baseline for a name is
// the most recent history entry that records it.
//
// -soft NAME:METRIC:MAXRATIO (repeatable) is the report-only form: the
// ratio is checked like -check and a breach prints a loud SOFT-WARN
// row, but the exit status stays zero, and a missing baseline or
// measurement prints as such. It is the right shape for ns_op budgets —
// ns_op on shared CI boxes is too noisy to gate, but a 1.3x warn
// threshold surfaces real slowdowns in the log without letting a noisy
// shared box fail the build.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

type checkSpec struct {
	name     string
	metric   string
	maxRatio float64
}

type checkList []checkSpec

func (c *checkList) String() string { return fmt.Sprintf("%v", []checkSpec(*c)) }

func (c *checkList) Set(s string) error {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return fmt.Errorf("bad check %q (want NAME:METRIC:MAXRATIO)", s)
	}
	if err := validMetric(parts[1]); err != nil {
		return err
	}
	ratio, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || ratio <= 0 {
		return fmt.Errorf("bad ratio %q", parts[2])
	}
	*c = append(*c, checkSpec{name: parts[0], metric: parts[1], maxRatio: ratio})
	return nil
}

func validMetric(m string) error {
	switch m {
	case "ns_op", "bytes_op", "allocs_op":
		return nil
	}
	return fmt.Errorf("bad metric %q (want ns_op, bytes_op, or allocs_op)", m)
}

// baselineFile mirrors the slice of BENCH_trial.json benchcheck needs.
type baselineFile struct {
	History []struct {
		PR         int                           `json:"pr"`
		Benchmarks map[string]map[string]float64 `json:"benchmarks"`
	} `json:"history"`
}

// baselineFor returns the named benchmark's metrics from the most
// recent history entry recording it (entries are ordered newest first).
func (b baselineFile) baselineFor(name string) (map[string]float64, bool) {
	for _, entry := range b.History {
		if m, ok := entry.Benchmarks[name]; ok {
			return m, true
		}
	}
	return nil, false
}

// benchLine matches one `go test -bench` result line; the trailing
// -<GOMAXPROCS> suffix of the name is stripped.
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parseBench extracts {name -> {metric -> value}} from bench output.
func parseBench(lines *bufio.Scanner) (map[string]map[string]float64, error) {
	metricName := map[string]string{"ns/op": "ns_op", "B/op": "bytes_op", "allocs/op": "allocs_op"}
	out := make(map[string]map[string]float64)
	for lines.Scan() {
		m := benchLine.FindStringSubmatch(lines.Text())
		if m == nil {
			continue
		}
		fields := strings.Fields(m[2])
		vals := make(map[string]float64)
		for i := 0; i+1 < len(fields); i += 2 {
			key, ok := metricName[fields[i+1]]
			if !ok {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bench line %q: %w", lines.Text(), err)
			}
			vals[key] = v
		}
		out[m[1]] = vals
	}
	return out, lines.Err()
}

func run() error {
	var checks, softs checkList
	baselinePath := flag.String("baseline", "BENCH_trial.json", "benchmark history file")
	flag.Var(&checks, "check", "NAME:METRIC:MAXRATIO assertion (repeatable)")
	flag.Var(&softs, "soft", "NAME:METRIC:MAXRATIO report-only warning, never a failure (repeatable)")
	flag.Parse()
	if len(checks) == 0 && len(softs) == 0 {
		return fmt.Errorf("no -check assertions or -soft warnings given")
	}
	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		return err
	}
	var baseline baselineFile
	if err := json.Unmarshal(data, &baseline); err != nil {
		return fmt.Errorf("baseline %s: %w", *baselinePath, err)
	}
	measured, err := parseBench(bufio.NewScanner(os.Stdin))
	if err != nil {
		return err
	}
	failed := 0
	for _, c := range checks {
		base, ok := baseline.baselineFor(c.name)
		if !ok {
			return fmt.Errorf("benchmark %q not in %s", c.name, *baselinePath)
		}
		baseVal, ok := base[c.metric]
		if !ok || baseVal <= 0 {
			return fmt.Errorf("benchmark %q has no positive baseline %s", c.name, c.metric)
		}
		got, ok := measured[c.name]
		if !ok {
			return fmt.Errorf("benchmark %q not in the piped bench output", c.name)
		}
		gotVal, ok := got[c.metric]
		if !ok {
			return fmt.Errorf("benchmark %q output lacks %s (missing -benchmem / ReportAllocs?)", c.name, c.metric)
		}
		ratio := gotVal / baseVal
		status := "ok"
		if ratio > c.maxRatio {
			status = "REGRESSION"
			failed++
		}
		fmt.Printf("%-50s %-10s %12.0f vs baseline %12.0f  (%.2fx, limit %.2fx) %s\n",
			c.name, c.metric, gotVal, baseVal, ratio, c.maxRatio, status)
	}
	// Soft gates warn loudly past their ratio but never fail the run;
	// missing baselines or measurements are reported, not fatal.
	for _, c := range softs {
		gotVal, haveGot := measured[c.name][c.metric]
		base, _ := baseline.baselineFor(c.name)
		baseVal, haveBase := base[c.metric]
		switch {
		case !haveGot:
			fmt.Printf("%-50s %-10s not in the piped bench output (soft)\n", c.name, c.metric)
		case !haveBase || baseVal <= 0:
			fmt.Printf("%-50s %-10s %12.0f — no baseline (soft)\n", c.name, c.metric, gotVal)
		default:
			ratio := gotVal / baseVal
			status := "ok (soft)"
			if ratio > c.maxRatio {
				status = "SOFT-WARN"
			}
			fmt.Printf("%-50s %-10s %12.0f vs baseline %12.0f  (%.2fx, warn %.2fx) %s\n",
				c.name, c.metric, gotVal, baseVal, ratio, c.maxRatio, status)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d benchmark regression(s) beyond threshold", failed)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
}

package main

import (
	"bufio"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	out := `goos: linux
goarch: amd64
BenchmarkReplicateSteadyState/pooled-64x64-4         	     100	    512345 ns/op	   61234 B/op	      90 allocs/op
BenchmarkReplicateSteadyState/fresh-64x64            	      50	   1400000 ns/op	 1440000 B/op	    9000 allocs/op
BenchmarkTrialLarge/128x128-4                        	      10	   4786799 ns/op
PASS
`
	got, err := parseBench(bufio.NewScanner(strings.NewReader(out)))
	if err != nil {
		t.Fatal(err)
	}
	pooled, ok := got["ReplicateSteadyState/pooled-64x64"]
	if !ok {
		t.Fatalf("pooled benchmark missing from %v", got)
	}
	if pooled["bytes_op"] != 61234 || pooled["allocs_op"] != 90 || pooled["ns_op"] != 512345 {
		t.Errorf("pooled metrics = %v", pooled)
	}
	// A name without a -N suffix parses too.
	if got["ReplicateSteadyState/fresh-64x64"]["allocs_op"] != 9000 {
		t.Errorf("fresh metrics = %v", got["ReplicateSteadyState/fresh-64x64"])
	}
	// ns-only lines keep just ns_op.
	if m := got["TrialLarge/128x128"]; m["ns_op"] != 4786799 || len(m) != 1 {
		t.Errorf("TrialLarge metrics = %v", m)
	}
}

func TestCheckListParsing(t *testing.T) {
	var c checkList
	if err := c.Set("ReplicateSteadyState/pooled-64x64:bytes_op:1.5"); err != nil {
		t.Fatal(err)
	}
	if len(c) != 1 || c[0].metric != "bytes_op" || c[0].maxRatio != 1.5 {
		t.Errorf("checkList = %+v", c)
	}
	for _, bad := range []string{"", "a:b", "a:watts:2", "a:ns_op:0", "a:ns_op:x"} {
		var cl checkList
		if err := cl.Set(bad); err == nil {
			t.Errorf("Set(%q) should fail", bad)
		}
	}
}

package main

import (
	"os"
	"strings"
	"testing"
)

// TestEnvIntRejectsMalformed: an integer setting read from the
// environment is its default when unset and its value when well formed;
// anything else is an error naming the variable, and run fails on it
// before it opens a store or a listener.
func TestEnvIntRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		key, val string
		want     int
		ok       bool
	}{
		{"SWEEPD_QUEUE", "", 32, true},
		{"SWEEPD_QUEUE", "64", 64, true},
		{"SWEEPD_QUEUE", "64k", 0, false},
		{"SWEEPD_QUEUE", " 8", 0, false},
		{"SWEEPD_CONCURRENCY", "", 1, true},
		{"SWEEPD_CONCURRENCY", "2", 2, true},
		{"SWEEPD_CONCURRENCY", "two", 0, false},
		{"SWEEPD_CONCURRENCY", "1.5", 0, false},
	} {
		t.Run(tc.key+"="+tc.val, func(t *testing.T) {
			t.Setenv(tc.key, tc.val)
			def := map[string]int{"SWEEPD_QUEUE": 32, "SWEEPD_CONCURRENCY": 1}[tc.key]
			got, err := envInt(tc.key, def)
			if tc.ok {
				if err != nil || got != tc.want {
					t.Errorf("envInt = %d, %v; want %d", got, err, tc.want)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.key) {
				t.Errorf("envInt = %d, %v; want an error naming %s", got, err, tc.key)
			}
			store := t.TempDir() + "/store"
			if err := run([]string{"-addr", "127.0.0.1:0", "-store", store}); err == nil ||
				!strings.Contains(err.Error(), tc.key) {
				t.Errorf("run = %v; want a startup error naming %s", err, tc.key)
			}
			if _, err := os.Stat(store); !os.IsNotExist(err) {
				t.Errorf("a failed startup created the store (stat err %v)", err)
			}
		})
	}
}

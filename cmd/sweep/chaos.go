package main

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// Chaos harness: WSNSWEEP_CHAOS injects worker faults so the dispatch
// driver's fault tolerance is testable end to end — every mode must
// converge to a merged manifest equivalent to the unsharded run's
// (the chaos matrix in chaos_test.go pins that).
//
//	WSNSWEEP_CHAOS          comma-separated fault modes:
//	                          hang             stop heartbeating (lease expiry path)
//	                          crash            exit non-zero mid-run (retry path)
//	                          slow             sleep per trial (steal path)
//	                          corrupt-progress emit a malformed progress line
//	                          partial-manifest exit 0 with only the cell log on disk
//	WSNSWEEP_CHAOS_DIR      claim directory: each mode fires in exactly one
//	                        process across the whole fleet (O_EXCL claim
//	                        files), so retries and siblings run clean.
//	                        Empty means every mode fires in this process.
//	WSNSWEEP_CHAOS_AFTER    completed trials before a fault fires (default 2)
//	WSNSWEEP_CHAOS_SLOW_MS  slow mode's per-trial sleep (default 150)
//
// Faults fire from the trial sink, after a completed cell's line is
// appended to the checkpoint log (<name>.cells.ndjson, see
// experiment.CellLog) — exactly where a real worker loss hurts: state
// on disk is a valid prefix of cells, in-memory progress is gone. The
// log is not fsynced, which is enough here: every fault kills or
// abandons the process, never the machine, and a line torn by a kill
// mid-write only makes its cell rerun.
type chaosInjector struct {
	modes  map[string]bool
	dir    string
	after  int
	slowMS int
	log    *slog.Logger
}

// chaosModes is the closed set of valid fault modes.
var chaosModes = map[string]bool{
	"hang": true, "crash": true, "slow": true,
	"corrupt-progress": true, "partial-manifest": true,
}

// chaosFromEnv builds the injector from the environment; nil when
// WSNSWEEP_CHAOS is unset. Unknown modes fail loudly — a typo that
// silently disables a fault would green a chaos test that tested
// nothing.
func chaosFromEnv(logger *slog.Logger) *chaosInjector {
	raw := os.Getenv("WSNSWEEP_CHAOS")
	if raw == "" {
		return nil
	}
	c := &chaosInjector{
		modes:  make(map[string]bool),
		dir:    os.Getenv("WSNSWEEP_CHAOS_DIR"),
		after:  2,
		slowMS: 150,
		log:    logger,
	}
	for _, m := range strings.Split(raw, ",") {
		m = strings.TrimSpace(m)
		if m == "" {
			continue
		}
		if !chaosModes[m] {
			fmt.Fprintf(os.Stderr, "sweep: unknown WSNSWEEP_CHAOS mode %q\n", m)
			os.Exit(2)
		}
		c.modes[m] = true
	}
	if s := os.Getenv("WSNSWEEP_CHAOS_AFTER"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			c.after = n
		}
	}
	if s := os.Getenv("WSNSWEEP_CHAOS_SLOW_MS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 0 {
			c.slowMS = n
		}
	}
	// Slow mode claims at startup: it shapes the whole process's pace,
	// not a single moment.
	if c.modes["slow"] && !c.claim("slow") {
		delete(c.modes, "slow")
	}
	return c
}

// claim reports whether this process gets to fire the mode. With a
// claim directory the first process across the fleet to create the
// mode's claim file (O_EXCL) wins and everyone else — including this
// worker's own retry — runs clean; without one the mode always fires.
func (c *chaosInjector) claim(mode string) bool {
	if c.dir == "" {
		return true
	}
	f, err := os.OpenFile(filepath.Join(c.dir, "chaos-"+mode), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return false
	}
	f.Close()
	return true
}

// trialDone fires pending faults; called from the campaign sink after
// each completed trial (a cell it completed is already logged).
func (c *chaosInjector) trialDone(ran int) {
	if c.modes["slow"] {
		time.Sleep(time.Duration(c.slowMS) * time.Millisecond)
	}
	if ran != c.after {
		return
	}
	if c.modes["corrupt-progress"] && c.claim("corrupt-progress") {
		// A truncated JSON event, as if the worker died mid-write: the
		// driver must log-and-skip it without crediting the heartbeat.
		c.log.Warn("chaos: emitting corrupt progress line")
		progressOut.Write([]byte(`{"done":` + strconv.Itoa(ran) + `,"tot`))
		progressOut.Write([]byte("\n"))
	}
	if c.modes["partial-manifest"] && c.claim("partial-manifest") {
		// Exit 0 with only the cell log on disk: a worker that lies
		// about being done. The driver's manifest validation must catch
		// the missing manifest and requeue; the retry resumes from the log.
		c.log.Warn("chaos: clean exit with partial manifest", "trials", ran)
		os.Exit(0)
	}
	if c.modes["crash"] && c.claim("crash") {
		c.log.Warn("chaos: crashing", "trials", ran)
		os.Exit(7)
	}
	if c.modes["hang"] && c.claim("hang") {
		c.log.Warn("chaos: hanging (no further heartbeats)", "trials", ran)
		// Block the sink forever; the lease watchdog must kill us.
		select {}
	}
}

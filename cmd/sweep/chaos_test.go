package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// chaosCampaign returns the common flag set for the chaos tests: a small
// campaign that a 2-slot fleet splits into 4 one-cell blocks of 4
// trials each, so WSNSWEEP_CHAOS_AFTER=1 fires every fault mid-block —
// the worker's on-disk state is a valid (empty) prefix of cells.
func chaosCampaign(extra ...string) []string {
	return append(extra,
		"-schemes", "SR", "-grids", "8x8", "-spares", "8,16,24,40",
		"-replicates", "4", "-seed", "33", "-metrics", "", "-quiet")
}

// TestChaosMatrix is the fault-tolerance acceptance matrix: every
// WSNSWEEP_CHAOS mode is injected into a dispatched fleet, exactly one
// worker suffers the fault (claim-dir semantics), and the fleet must
// still converge to a merged manifest byte-identical to the same
// campaign run unsharded and fault-free.
func TestChaosMatrix(t *testing.T) {
	refDir := t.TempDir()
	if err := run(chaosCampaign("-out", refDir, "-name", "camp")); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"hang", "crash", "slow", "corrupt-progress", "partial-manifest"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			claims := t.TempDir()
			t.Setenv("WSNSWEEP_WORKER", "1") // shard subprocesses re-enter run()
			t.Setenv("WSNSWEEP_CHAOS", mode)
			t.Setenv("WSNSWEEP_CHAOS_DIR", claims)
			t.Setenv("WSNSWEEP_CHAOS_AFTER", "1")
			args := chaosCampaign("-dispatch", "2", "-out", dir, "-name", "camp")
			// A short lease so the hung worker's silence is detected
			// quickly — but with enough headroom that a healthy worker's
			// startup (slow under -race on a loaded box) still beats it.
			const lease = 3 * time.Second
			if mode == "hang" {
				args = append(args, "-lease-timeout", lease.String())
			}
			start := time.Now()
			if err := run(args); err != nil {
				t.Fatalf("fleet under %s chaos did not converge: %v", mode, err)
			}
			elapsed := time.Since(start)
			// The claim file proves the fault actually fired — a matrix
			// entry that silently skipped its fault would test nothing.
			if _, err := os.Stat(filepath.Join(claims, "chaos-"+mode)); err != nil {
				t.Errorf("the %s fault never fired (no claim file): %v", mode, err)
			}
			// Acceptance bound: a hung worker is detected and its shard
			// re-issued within 2x the lease timeout; the rest of the run
			// (reaping the corpse, rerunning one block, merging) rides in
			// the slack.
			if bound := 2*lease + 5*time.Second; mode == "hang" && elapsed > bound {
				t.Errorf("hang recovery took %v, want < %v (2x lease + slack)", elapsed, bound)
			}
			assertSameBytes(t, filepath.Join(dir, "camp.json"), filepath.Join(refDir, "camp.json"))
			// Every shard's checkpoint log is spent once its manifest
			// lands, a killed straggler's included.
			if logs, _ := filepath.Glob(filepath.Join(dir, "*.cells.ndjson")); len(logs) > 0 {
				t.Errorf("converged fleet left checkpoint logs behind: %v", logs)
			}
		})
	}
}

// TestDispatchDriverKillAtomicity is the kill-during-checkpoint /
// kill-during-merge satellite at fleet scope: SIGKILL the dispatch
// driver itself — once mid-fleet (first shard manifest just landed) and
// once in the merge window (all shard manifests present) — then assert
// the atomic-rewrite contract: every JSON artifact on disk parses whole
// (a rename either happened or didn't; no torn files), and a -resume
// rerun converges to a merged manifest byte-identical to an undisturbed
// fleet's.
func TestDispatchDriverKillAtomicity(t *testing.T) {
	refDir := t.TempDir()
	t.Setenv("WSNSWEEP_WORKER", "1")
	if err := run(chaosCampaign("-dispatch", "2", "-out", refDir, "-name", "camp")); err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(filepath.Join(refDir, "camp.json"))
	if err != nil {
		t.Fatal(err)
	}

	// shardManifests counts landed shard manifests, excluding the
	// .spec.json files the driver writes at startup.
	shardManifests := func(dir string) int {
		m, _ := filepath.Glob(filepath.Join(dir, "camp-b*.json"))
		n := 0
		for _, p := range m {
			if !strings.HasSuffix(p, ".spec.json") {
				n++
			}
		}
		return n
	}
	stages := []struct {
		name string
		// ready reports whether the kill trigger has been reached.
		ready func(dir string) bool
	}{
		{"mid-fleet", func(dir string) bool { return shardManifests(dir) >= 1 }},
		{"merge-window", func(dir string) bool { return shardManifests(dir) >= 4 }},
	}
	for _, stage := range stages {
		t.Run(stage.name, func(t *testing.T) {
			dir := t.TempDir()
			// The driver is this test binary re-entering run(); slow chaos
			// (no claim dir: every worker) stretches the fleet's runtime so
			// the kill lands inside it rather than after.
			cmd := exec.Command(os.Args[0],
				chaosCampaign("-dispatch", "2", "-out", dir, "-name", "camp")...)
			cmd.Env = append(os.Environ(),
				"WSNSWEEP_WORKER=1", "WSNSWEEP_CHAOS=slow", "WSNSWEEP_CHAOS_SLOW_MS=150")
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(30 * time.Second)
			for !stage.ready(dir) && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			cmd.Process.Signal(syscall.SIGKILL)
			cmd.Wait()
			// Orphaned workers die on their next progress write (the pipe's
			// read end is gone); give them a moment to finish or fall over.
			time.Sleep(1500 * time.Millisecond)

			// Atomicity: whatever JSON landed before the kill is whole.
			arts, err := filepath.Glob(filepath.Join(dir, "*.json"))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range arts {
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				if !json.Valid(data) {
					t.Errorf("%s is torn after the driver kill:\n%s", p, data)
				}
			}

			// Resume: the rerun picks up every checkpointed prefix and the
			// result is byte-identical to the undisturbed fleet's merge.
			if err := run(chaosCampaign(
				"-dispatch", "2", "-resume", "-out", dir, "-name", "camp")); err != nil {
				t.Fatalf("resume after driver kill: %v", err)
			}
			got, err := os.ReadFile(filepath.Join(dir, "camp.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref) {
				t.Errorf("resumed merge differs from undisturbed fleet:\n%s\nvs\n%s", got, ref)
			}
		})
	}
}

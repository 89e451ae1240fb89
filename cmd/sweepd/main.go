// Command sweepd is the always-on campaign service: a single-binary
// daemon that accepts campaign specs over HTTP, runs them through the
// same deterministic engine cmd/sweep drives, and serves the resulting
// manifests from a content-addressed store keyed by spec hash — so a
// campaign anyone already ran, at any worker count, is answered from
// the store without executing a single trial. The store also keeps
// every computed cell the moment it completes, verified on reuse, so a
// campaign sharing cells with earlier ones (a widened sweep, a
// resubmission after a drain) computes only the cells it lacks.
//
// Usage:
//
//	sweepd [-addr :8080] [-store dir] [-concurrency n] [-queue n] [-pprof]
//
// Every flag has an environment-variable default (flag beats env); a
// malformed integer value is a startup error naming the variable:
//
//	SWEEPD_ADDR         listen address           (:8080)
//	SWEEPD_STORE        store directory          (store)
//	SWEEPD_CONCURRENCY  concurrent campaigns     (1)
//	SWEEPD_QUEUE        queued-campaign bound    (32)
//	SWEEPD_ADDR_FILE    write the bound address here (":0" discovery)
//
// Campaigns run in-process on the engine's worker pool, which already
// uses every core. A campaign too big for one box runs as cmd/sweep
// "-shard i/n -store <store>" pieces on many boxes, which fill the
// store's cells/ directory; a daemon started on that directory
// afterwards computes none of those cells. The daemon's cell index is
// live: a campaign that misses a cell re-scans the segments that
// appeared or grew since the last scan, so cells other processes append
// while it runs are served without a restart.
//
// The API is documented on sweepd.Daemon.Handler; see the README's
// "Running as a service" section for the curl cookbook. Logs are
// structured slog on stderr (WSNSWEEP_LOG, WSNSWEEP_LOG_FORMAT).
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting,
// /readyz flips to 503, queued campaigns are recorded aborted in the
// ledger, and Drain cancels in-flight campaigns at the next trial
// boundary. Their completed cells are already stored, so resubmitting
// the same spec after a restart computes only the rest. A second signal
// exits immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"wsncover/internal/sweepd"
	"wsncover/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}

// envString and envInt resolve a flag default from the environment. A
// set value envInt cannot parse is an error naming the variable, never
// a silent fall back to def.
func envString(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func envInt(key string, def int) (int, error) {
	v := os.Getenv(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("%s=%q is not an integer", key, v)
	}
	return n, nil
}

func run(args []string) error {
	concurrencyDef, err := envInt("SWEEPD_CONCURRENCY", 1)
	if err != nil {
		return err
	}
	queueDef, err := envInt("SWEEPD_QUEUE", 32)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", envString("SWEEPD_ADDR", ":8080"), "listen address (host:port; port 0 picks a free one)")
		storeDir    = fs.String("store", envString("SWEEPD_STORE", "store"), "content-addressed manifest store directory")
		concurrency = fs.Int("concurrency", concurrencyDef, "campaigns executing at once")
		queueDepth  = fs.Int("queue", queueDef, "accepted-but-not-started campaign bound")
		pprofF      = fs.Bool("pprof", false, "expose net/http/pprof on the API server")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := telemetry.NewLogger(os.Stderr)

	store, err := sweepd.OpenStore(*storeDir)
	if err != nil {
		return err
	}
	daemon, err := sweepd.New(sweepd.Options{
		Store:       store,
		Concurrency: *concurrency,
		QueueDepth:  *queueDepth,
		Pprof:       *pprofF,
		Logger:      logger,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	bound := ln.Addr().String()
	logger.Info("sweepd serving", "addr", bound, "store", store.Dir(),
		"concurrency", *concurrency, "pprof", *pprofF)
	// ":0" discovery for scripts and CI: write the bound address where
	// SWEEPD_ADDR_FILE points, mirroring WSNSWEEP_DASH_ADDR_FILE.
	if path := os.Getenv("SWEEPD_ADDR_FILE"); path != "" {
		if err := os.WriteFile(path, []byte(bound), 0o644); err != nil {
			ln.Close()
			return err
		}
	}

	srv := &http.Server{Handler: daemon.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return fmt.Errorf("serve: %w", err)
	case sig := <-sigCh:
		logger.Warn("signal received: draining (in-flight campaigns cancel with their completed cells stored, queued campaigns record aborted); second signal exits immediately",
			"signal", sig.String())
	}
	go func() {
		sig := <-sigCh
		logger.Error("second signal: exiting immediately", "signal", sig.String())
		os.Exit(130)
	}()

	daemon.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	logger.Info("drained cleanly")
	return nil
}

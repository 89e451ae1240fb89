package telemetry

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
)

// Environment variables configuring every command's structured logging.
// WSNSWEEP_LOG sets the level (debug, info, warn, error; default info);
// WSNSWEEP_LOG_FORMAT selects text (default) or json, the latter making
// resume, install and ledger events machine-parseable in aggregated
// logs of many boxes.
const (
	LogLevelEnv  = "WSNSWEEP_LOG"
	LogFormatEnv = "WSNSWEEP_LOG_FORMAT"
)

// ParseLogLevel maps a WSNSWEEP_LOG value onto a slog level.
func ParseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "info":
		return slog.LevelInfo, nil
	case "debug":
		return slog.LevelDebug, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("telemetry: bad %s %q (want debug, info, warn, or error)", LogLevelEnv, s)
}

// NewLogger builds the slog.Logger shared by cmd/sweep and the dispatch
// driver, writing to w (normally stderr, so stdout protocols stay
// clean). Level and format come from the environment; an unparseable
// level falls back to info and is reported on the logger itself rather
// than failing a run over a typo.
func NewLogger(w io.Writer) *slog.Logger {
	level, levelErr := ParseLogLevel(os.Getenv(LogLevelEnv))
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if strings.EqualFold(strings.TrimSpace(os.Getenv(LogFormatEnv)), "json") {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	logger := slog.New(h)
	if levelErr != nil {
		logger.Warn("ignoring bad log level", "err", levelErr)
	}
	return logger
}

package telemetry

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

//go:embed dash.html
var dashHTML []byte

// Server is the live campaign dashboard: an HTTP server over a Hub.
//
//	GET /                 single-file HTML dashboard
//	GET /events           SSE stream of Snapshot JSON (one per publish)
//	GET /events?format=ndjson
//	                      the same stream as newline-delimited JSON
//	GET /healthz          liveness: {"status":"ok","uptime_s":...}
//	GET /debug/pprof/...  net/http/pprof, only when built with Pprof
//
// cmd/sweep starts one under -dash. sweepd does not embed it: it serves
// each campaign's hub through ServeHubEvents, the handler behind
// /events, which is why both live here and not in a command.
type Server struct {
	hub *Hub
	// Pprof opts the profiling endpoints in; off by default because a
	// dashboard port is often reachable by more than the operator.
	Pprof bool

	srv   *http.Server
	ln    net.Listener
	start time.Time
}

// NewServer wraps hub; call Start to serve.
func NewServer(hub *Hub) *Server {
	return &Server{hub: hub}
}

// Start listens on addr (host:port; port 0 picks a free one) and serves
// in the background. It returns the bound address, so callers can
// advertise the real port.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: dashboard listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/healthz", s.handleHealthz)
	if s.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.ln = ln
	s.start = time.Now()
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Close shuts the server down: the hub closes first, so connected event
// streams drain their buffered snapshots (the final one included) and
// end, then the listener stops. Safe to call without Start.
func (s *Server) Close() error {
	s.hub.Close()
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(dashHTML)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(),
	})
}

// handleEvents streams the hub to one client until the client leaves or
// the hub closes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	ServeHubEvents(w, r, s.hub)
}

// ServeHubEvents streams one hub to one HTTP client until the client
// leaves or the hub closes. SSE frames by default ("data: {...}\n\n");
// NDJSON with ?format=ndjson for curl/jq and programmatic consumers.
// A hub that closed before the client subscribed still serves its last
// published snapshot, so a late joiner to a finished run sees the final
// state instead of an empty stream. Shared by the -dash Server and
// sweepd's per-campaign event endpoints.
func ServeHubEvents(w http.ResponseWriter, r *http.Request, hub *Hub) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	ndjson := r.URL.Query().Get("format") == "ndjson"
	if ndjson {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	}
	writeFrame := func(b []byte) error {
		var err error
		if ndjson {
			_, err = fmt.Fprintf(w, "%s\n", b)
		} else {
			_, err = fmt.Fprintf(w, "data: %s\n\n", b)
		}
		if err == nil {
			flusher.Flush()
		}
		return err
	}
	sub := hub.Subscribe()
	defer hub.Unsubscribe(sub)
	// Send the headers now: a client whose request has returned is
	// subscribed and sees every later publish.
	flusher.Flush()
	wrote := false
	for {
		select {
		case b, open := <-sub.Events():
			if !open {
				if !wrote {
					if last := hub.Last(); last != nil {
						writeFrame(last)
					}
				}
				return
			}
			if err := writeFrame(b); err != nil {
				return
			}
			wrote = true
		case <-r.Context().Done():
			return
		}
	}
}

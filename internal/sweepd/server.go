package sweepd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"wsncover/internal/dispatch"
	"wsncover/internal/telemetry"
)

// maxSpecBytes bounds a submitted spec body; campaign specs are small,
// so anything past this is a mistake or an attack, not a campaign.
const maxSpecBytes = 1 << 20

// Handler returns the daemon's HTTP API:
//
//	POST /api/v1/campaigns?name=n        submit a spec (JSON body)
//	GET  /api/v1/campaigns               list campaigns
//	GET  /api/v1/campaigns/{id}          one campaign's state
//	GET  /api/v1/campaigns/{id}/events   live progress (SSE; ?format=ndjson)
//	GET  /api/v1/manifests               list stored manifests + ledger info
//	GET  /api/v1/manifests/{hash}        serve a stored manifest (prefix ok)
//	GET  /api/v1/diff?a=ref&b=ref        differential-compare two manifests
//	GET  /healthz                        liveness
//	GET  /readyz                         readiness (503 while draining)
//	GET  /debug/pprof/...                profiling, when Options.Pprof
//
// Submission responses: 202 for a newly queued campaign, 200 when the
// submission was answered from the store or coalesced onto an
// identical in-flight campaign, 400 for a bad spec, 429 when the queue
// is full, 503 while draining.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/campaigns", d.handleSubmit)
	mux.HandleFunc("GET /api/v1/campaigns", d.handleCampaigns)
	mux.HandleFunc("GET /api/v1/campaigns/{id}", d.handleCampaign)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/events", d.handleEvents)
	mux.HandleFunc("GET /api/v1/manifests", d.handleManifests)
	mux.HandleFunc("GET /api/v1/manifests/{hash}", d.handleManifest)
	mux.HandleFunc("GET /api/v1/diff", d.handleDiff)
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /readyz", d.handleReadyz)
	if d.opts.Pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	if len(body) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("spec exceeds %d bytes", maxSpecBytes))
		return
	}
	// The spec decode is strict (unknown fields error), so the name
	// rides the query string, not the body.
	view, created, err := d.Submit(body, r.URL.Query().Get("name"))
	switch {
	case errors.Is(err, ErrBadSpec):
		writeError(w, http.StatusBadRequest, err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	case created:
		writeJSON(w, http.StatusAccepted, view)
	default:
		writeJSON(w, http.StatusOK, view)
	}
}

func (d *Daemon) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, d.Campaigns())
}

// campaignID resolves the {id} path value; a nil pointer return means
// the response was already written.
func (d *Daemon) campaignID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad campaign id %q", r.PathValue("id")))
		return 0, false
	}
	return id, true
}

func (d *Daemon) handleCampaign(w http.ResponseWriter, r *http.Request) {
	id, ok := d.campaignID(w, r)
	if !ok {
		return
	}
	view, ok := d.Campaign(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no campaign %d", id))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (d *Daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	id, ok := d.campaignID(w, r)
	if !ok {
		return
	}
	hub, ok := d.Hub(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no campaign %d", id))
		return
	}
	if hub == nil {
		// A cache-hit campaign never ran, so it has no progress stream;
		// an empty, well-formed stream beats a 404 for generic clients.
		if r.URL.Query().Get("format") == "ndjson" {
			w.Header().Set("Content-Type", "application/x-ndjson")
		} else {
			w.Header().Set("Content-Type", "text/event-stream")
		}
		return
	}
	telemetry.ServeHubEvents(w, r, hub)
}

func (d *Daemon) handleManifests(w http.ResponseWriter, r *http.Request) {
	entries, err := d.store.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if entries == nil {
		entries = []Entry{}
	}
	writeJSON(w, http.StatusOK, entries)
}

func (d *Daemon) handleManifest(w http.ResponseWriter, r *http.Request) {
	_, _, data, err := d.store.Resolve(r.PathValue("hash"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleDiff runs the manifest differ over two stored manifests —
// the same merge-contract comparison cmd/manifestdiff applies, so
// "equivalent" here means equivalent there.
func (d *Daemon) handleDiff(w http.ResponseWriter, r *http.Request) {
	refA, refB := r.URL.Query().Get("a"), r.URL.Query().Get("b")
	if refA == "" || refB == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("diff needs ?a= and ?b= manifest refs"))
		return
	}
	hashA, _, dataA, err := d.store.Resolve(refA)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	hashB, _, dataB, err := d.store.Resolve(refB)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	diffs, err := dispatch.DiffManifestBytes(dataA, dataB, 1e-9)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if diffs == nil {
		diffs = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"a":           hashA,
		"b":           hashB,
		"equivalent":  len(diffs) == 0,
		"differences": diffs,
	})
}

func (d *Daemon) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(d.started).Seconds(),
	})
}

// handleReadyz reports readiness: a draining daemon answers 503 so a
// load balancer stops routing submissions to it while Drain cancels
// the in-flight campaigns, whose completed cells are already stored.
func (d *Daemon) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if d.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

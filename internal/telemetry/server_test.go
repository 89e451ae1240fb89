package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func startTestServer(t *testing.T, pprof bool) (*Server, *Hub, string) {
	t.Helper()
	hub := NewHub()
	srv := NewServer(hub)
	srv.Pprof = pprof
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, hub, "http://" + addr
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestServerIndexAndHealthz(t *testing.T) {
	_, _, base := startTestServer(t, false)
	resp, body := get(t, base+"/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "wsncover campaign") {
		t.Errorf("index: status %d, body %.80q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("index content type %q", ct)
	}
	resp, body = get(t, base+"/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path: status %d, body %q", resp.StatusCode, body)
	}
	resp, body = get(t, base+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var health struct {
		Status  string  `json:"status"`
		UptimeS float64 `json:"uptime_s"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.UptimeS < 0 {
		t.Errorf("healthz = %+v", health)
	}
}

func TestServerPprofGating(t *testing.T) {
	_, _, base := startTestServer(t, false)
	resp, _ := get(t, base+"/debug/pprof/")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: status %d, want 404", resp.StatusCode)
	}
	_, _, base = startTestServer(t, true)
	resp, body := get(t, base+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "profile") {
		t.Errorf("pprof on: status %d", resp.StatusCode)
	}
}

// readSSEEvent scans one "data: {...}" frame off an SSE stream.
func readSSEEvent(t *testing.T, r *bufio.Reader) Snapshot {
	t.Helper()
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if payload, ok := strings.CutPrefix(strings.TrimSpace(line), "data: "); ok {
			var s Snapshot
			if err := json.Unmarshal([]byte(payload), &s); err != nil {
				t.Fatalf("bad SSE payload %q: %v", payload, err)
			}
			return s
		}
	}
}

func TestServerEventsSSE(t *testing.T) {
	srv, hub, base := startTestServer(t, false)
	hub.Publish(Snapshot{Progress: Progress{Done: 1, Total: 8}})

	resp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/event-stream") {
		t.Errorf("SSE content type %q", ct)
	}
	r := bufio.NewReader(resp.Body)
	// The pre-subscribe publication replays immediately.
	if s := readSSEEvent(t, r); s.Progress.Done != 1 {
		t.Errorf("replayed event = %+v", s)
	}
	hub.Publish(Snapshot{Progress: Progress{Done: 8, Total: 8}, Final: true})
	if s := readSSEEvent(t, r); !s.Final || s.Progress.Done != 8 {
		t.Errorf("live event = %+v", s)
	}
	// Closing the server ends the stream after draining.
	done := make(chan error, 1)
	go func() {
		_, err := io.ReadAll(r)
		done <- err
	}()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("stream should end cleanly, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end after Close")
	}
}

func TestServerEventsNDJSON(t *testing.T) {
	_, hub, base := startTestServer(t, false)
	hub.Publish(Snapshot{Progress: Progress{Done: 3, Total: 9}})
	resp, err := http.Get(base + "/events?format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("NDJSON content type %q", ct)
	}
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(line), &s); err != nil {
		t.Fatalf("bad NDJSON line %q: %v", line, err)
	}
	if s.Progress.Done != 3 || s.Progress.Total != 9 {
		t.Errorf("event = %+v", s)
	}
}

func TestServerCloseWithoutStart(t *testing.T) {
	srv := NewServer(NewHub())
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func ExampleSnapshot_marshaling() {
	b, _ := json.Marshal(Snapshot{
		Progress:   Progress{Done: 2, Total: 4, Group: "SR", GroupDone: 2},
		ElapsedS:   1,
		TrialsPerS: 2,
		ETAS:       1,
	})
	fmt.Println(string(b))
	// Output: {"fleet":{"done":2,"total":4,"group":"SR","group_done":2},"elapsed_s":1,"trials_per_s":2,"eta_s":1}
}

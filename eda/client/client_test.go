package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"llm4eda/eda"
)

func TestJobTerminal(t *testing.T) {
	for state, want := range map[string]bool{
		"queued": false, "running": false,
		"done": true, "failed": true, "cancelled": true,
	} {
		if got := (&Job{State: state}).Terminal(); got != want {
			t.Errorf("Terminal(%q) = %v", state, got)
		}
	}
}

func TestDecodeReport(t *testing.T) {
	j := &Job{ID: "j1", State: "running"}
	if _, err := j.DecodeReport(); err == nil {
		t.Error("expected error for report-less job")
	}
	j.Report = json.RawMessage(`{"framework":"vrank","ok":true,"summary":"s","metrics":{"total":1}}`)
	r, err := j.DecodeReport()
	if err != nil {
		t.Fatal(err)
	}
	if r.Framework != "vrank" || !r.OK || r.Metrics["total"] != 1 {
		t.Errorf("decoded report = %+v", r)
	}
	j.Report = json.RawMessage(`{`)
	if _, err := j.DecodeReport(); err == nil {
		t.Error("expected error for malformed report")
	}
}

// TestEventsParsesSSE drives the SSE reader over a hand-written stream:
// comment frames are skipped, event frames land in the sink in order, a
// data line far past bufio's default buffer still decodes, and the end
// frame yields the terminal job status.
func TestEventsParsesSSE(t *testing.T) {
	long := strings.Repeat("x", 256<<10)
	stream := ": 2 earlier events evicted from the replay buffer\n\n" +
		"event: run-start\ndata: {\"kind\":\"run-start\",\"framework\":\"vrank\"}\n\n" +
		"event: note\ndata: {\"kind\":\"note\",\"detail\":\"working\"}\n\n" +
		"event: note\ndata: {\"kind\":\"note\",\"detail\":\"" + long + "\"}\n\n" +
		"event: end\ndata: {\"id\":\"j7\",\"state\":\"done\",\"cached\":true}\n\n"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs/j7/events" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Write([]byte(stream))
	}))
	defer ts.Close()

	var got []eda.Event
	final, err := New(ts.URL).Events(context.Background(), "j7",
		eda.SinkFunc(func(ev eda.Event) { got = append(got, ev) }))
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	if final.ID != "j7" || final.State != "done" || !final.Cached {
		t.Errorf("final = %+v", final)
	}
	if len(got) != 3 || got[0].Kind != eda.EventRunStart || got[1].Detail != "working" {
		t.Fatalf("got %d events, want 3", len(got))
	}
	if got[2].Detail != long {
		t.Errorf("long detail decoded to %d bytes, want %d", len(got[2].Detail), len(long))
	}

	// A stream that ends without the end frame is a truncation error.
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Write([]byte("event: note\ndata: {\"kind\":\"note\"}\n\n"))
	}))
	defer ts2.Close()
	if _, err := New(ts2.URL).Events(context.Background(), "j7", nil); err == nil {
		t.Error("expected error for truncated stream")
	}
}

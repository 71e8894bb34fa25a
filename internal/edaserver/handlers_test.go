package edaserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"llm4eda/eda"
)

// statusReplyRef and endFrameRef are the status encoders writeStatus
// replaced, kept as the wire-identity reference: encoding/json over the
// whole JobStatus, report included as a RawMessage. The JSON replies went
// through writeJSON (an Encoder without HTML escaping, plus its
// newline); the SSE end frame through json.Marshal.
func statusReplyRef(st JobStatus) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(st)
	return b.Bytes()
}

func endFrameRef(st JobStatus) []byte {
	b, _ := json.Marshal(st)
	return []byte(fmt.Sprintf("event: end\ndata: %s\n\n", b))
}

// TestStatusBodiesMatchEncodingJSON pins every status body byte for byte
// to the reference encoders: the submit/GET/DELETE replies and the SSE
// end frame, with and without a report, with a report whose text the
// encoder escapes, and with characters in Error that only the end frame
// escapes.
func TestStatusBodiesMatchEncodingJSON(t *testing.T) {
	run, err := eda.Run(context.Background(), eda.Spec{Framework: "vrank", Problem: "mux4",
		Params: map[string]float64{"k": 3}})
	if err != nil {
		t.Fatal(err)
	}
	runJSON, err := run.JSON()
	if err != nil {
		t.Fatal(err)
	}
	escaped, err := (&eda.Report{Framework: "x", Summary: "a<b & c>d",
		Detail: map[string]string{"t": "<i>\u2028&\u2029 Größe"}}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	base := JobStatus{ID: "j00000007", State: stateRunning, Created: "2026-10-17T10:00:00.000Z",
		Phases: []PhaseStatus{{Phase: "queue_wait", MS: 0.125, N: 1}, {Phase: "sim"}}}
	with := func(mod func(*JobStatus)) JobStatus {
		st := base
		mod(&st)
		return st
	}
	for name, st := range map[string]JobStatus{
		"no report":      base,
		"report":         with(func(st *JobStatus) { st.State, st.Report = stateDone, runJSON }),
		"escaped report": with(func(st *JobStatus) { st.State, st.Cached, st.Report = stateDone, true, escaped }),
		"error <&":       with(func(st *JobStatus) { st.State, st.Error = stateFailed, "x <- a && b > c" }),
		"error and report": with(func(st *JobStatus) {
			st.State, st.Error, st.EventsDropped, st.Report = stateCancelled, "<&>", 3, runJSON
		}),
	} {
		rec := httptest.NewRecorder()
		writeStatusJSON(rec, http.StatusAccepted, st)
		if got, want := rec.Body.Bytes(), statusReplyRef(st); !bytes.Equal(got, want) {
			t.Errorf("%s: reply\n got %q\nwant %q", name, got, want)
		}
		if rec.Code != http.StatusAccepted || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: reply code %d, content type %q", name, rec.Code, rec.Header().Get("Content-Type"))
		}
		var frame bytes.Buffer
		writeSSEEnd(&frame, st)
		if got, want := frame.Bytes(), endFrameRef(st); !bytes.Equal(got, want) {
			t.Errorf("%s: end frame\n got %q\nwant %q", name, got, want)
		}
	}
}

// TestServedStatusBodiesMatchEncodingJSON checks the bodies a running
// server sends (the submit, GET and DELETE replies and the SSE end
// frame, each with the job's report) against the reference encoding of
// the status they decode to.
func TestServedStatusBodiesMatchEncodingJSON(t *testing.T) {
	s := New(Options{Workers: 1})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewBufferString(body)))
		return rec
	}
	decode := func(what string, body []byte) JobStatus {
		t.Helper()
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("%s: %v\n%s", what, err, body)
		}
		return st
	}
	check := func(what string, body []byte) {
		t.Helper()
		if want := statusReplyRef(decode(what, body)); !bytes.Equal(body, want) {
			t.Errorf("%s\n got %q\nwant %q", what, body, want)
		}
	}
	spec := `{"framework":"vrank","problem":"mux4","params":{"k":3}}`
	first := serve(http.MethodPost, "/v1/jobs", spec)
	check("submit reply", first.Body.Bytes())
	id := decode("submit reply", first.Body.Bytes()).ID
	var done *httptest.ResponseRecorder
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		done = serve(http.MethodGet, "/v1/jobs/"+id, "")
		if decode("get reply", done.Body.Bytes()).State == stateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish: %s", id, done.Body.Bytes())
		}
	}
	if len(decode("get reply", done.Body.Bytes()).Report) == 0 {
		t.Fatal("finished job carries no report")
	}
	check("get reply", done.Body.Bytes())
	check("cached submit reply", serve(http.MethodPost, "/v1/jobs", spec).Body.Bytes())
	check("delete reply", serve(http.MethodDelete, "/v1/jobs/"+id, "").Body.Bytes())

	stream := serve(http.MethodGet, "/v1/jobs/"+id+"/events", "").Body.Bytes()
	i := bytes.LastIndex(stream, []byte("event: end\ndata: "))
	if i < 0 {
		t.Fatalf("stream has no end frame:\n%s", stream)
	}
	frame := stream[i:]
	data := bytes.TrimSuffix(bytes.TrimPrefix(frame, []byte("event: end\ndata: ")), []byte("\n\n"))
	if want := endFrameRef(decode("end frame", data)); !bytes.Equal(frame, want) {
		t.Errorf("end frame\n got %q\nwant %q", frame, want)
	}
}

package edaserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"

	"llm4eda/eda"
	"llm4eda/internal/faultinject"
	"llm4eda/internal/simfarm"
)

// maxSpecBytes bounds a submitted spec body; Source payloads are at most
// kernels, not repositories.
const maxSpecBytes = 4 << 20

// JobStatus is the wire form of one job, shared by every job endpoint
// and by the SSE terminal "end" event. Report carries the eda.Report in
// the shared wire encoding ((*eda.Report).JSON) once the job produced
// one — including the partial report of a failed or cancelled run.
type JobStatus struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Cached  bool   `json:"cached,omitempty"`
	Error   string `json:"error,omitempty"`
	Created string `json:"created"` // RFC 3339 UTC
	// EventsDropped counts events evicted from the job's replay ring —
	// history an SSE subscriber arriving (or resuming) late, or falling
	// behind, can no longer read. Subscribers read from the ring, so this
	// is all they can miss.
	EventsDropped uint64 `json:"events_dropped,omitempty"`
	// Phases is the job's span breakdown: every canonical phase
	// (queue_wait, lint_screen, compile, sim, store_write) plus any the
	// pipeline added, in flow order. N counts recordings folded into a
	// phase — 0 means the phase never ran (a cached hit reports sim with
	// N == 0 and 0 ms, not a missing row); sim accumulates N recordings
	// across candidate rounds. The queue_wait row is the job's
	// enqueue→worker-pop wait, 0 ms with N == 0 until the job is popped
	// (and forever for a job answered from the report cache at
	// submission, which never queues).
	Phases []PhaseStatus `json:"phases,omitempty"`

	// Report must stay the last field: writeStatus encodes the other
	// fields and writes the report bytes after them.
	Report json.RawMessage `json:"report,omitempty"`
}

// PhaseStatus is one row of a job's span breakdown.
type PhaseStatus struct {
	Phase string  `json:"phase"`
	MS    float64 `json:"ms"`
	N     int     `json:"n"`
}

// StatsReply is the wire form of /v1/stats.
type StatsReply struct {
	Workers    int  `json:"workers"`
	QueueDepth int  `json:"queue_depth"`
	Draining   bool `json:"draining,omitempty"`
	// JobStates counts retained jobs by state.
	JobStates map[string]int `json:"job_states"`
	Submitted uint64         `json:"submitted"`
	Completed uint64         `json:"completed"`
	Failed    uint64         `json:"failed"`
	Cancelled uint64         `json:"cancelled"`
	Rejected  uint64         `json:"rejected"`
	// Panics counts pipeline panics recovered into failed jobs (the
	// farm's own recovered worker panics are under Farm.Panics).
	Panics uint64 `json:"panics,omitempty"`
	// WatchdogKills counts jobs cancelled for event staleness.
	WatchdogKills uint64 `json:"watchdog_kills,omitempty"`
	// Retries counts transient-failure retries absorbed inside completed
	// runs' candidate loops.
	Retries uint64 `json:"retries,omitempty"`
	// StoreFails counts report-store writes that failed (fault-injected).
	StoreFails uint64 `json:"store_fails,omitempty"`
	// EventsDropped sums replay-ring evictions over retained jobs.
	EventsDropped uint64 `json:"events_dropped,omitempty"`
	// QueueWaitP50MS/P99MS summarize the enqueue→worker-pop wait
	// distribution over finished jobs (from the queue_wait phase
	// histogram — the early-warning signal before the queue fills and
	// submissions start bouncing with 429).
	QueueWaitP50MS float64 `json:"queue_wait_p50_ms"`
	QueueWaitP99MS float64 `json:"queue_wait_p99_ms"`
	// ReportCache is the cross-request report store's traffic.
	ReportCache ReportCacheStats `json:"report_cache"`
	// Farm is the shared simulation farm's per-layer traffic; its Results
	// hits are the cross-request design/simulation reuse the service
	// exists to exploit.
	Farm simfarm.FarmStats `json:"farm"`
}

// ReportCacheStats is the report store's corner of /v1/stats.
type ReportCacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Len    int    `json:"len"`
}

// errorReply is the JSON body of every non-2xx response.
type errorReply struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorReply{Error: fmt.Sprintf(format, args...)})
}

// writeStatusJSON is writeJSON for a job status.
func writeStatusJSON(w http.ResponseWriter, code int, st JobStatus) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	writeStatus(w, "", st, false, "\n")
}

// writeStatus writes prefix, st as one JSON object, and suffix. The other
// fields go through encoding/json, escaping HTML only when escapeHTML is
// set (as json.Marshal does, and writeJSON does not); the report bytes
// follow verbatim in their own Write. They only ever come from
// (*eda.Report).JSON in this process, so they are compact and escaped
// already, and the compaction encoding/json applies to a RawMessage
// would copy them unchanged.
func writeStatus(w io.Writer, prefix string, st JobStatus, escapeHTML bool, suffix string) {
	report := st.Report
	st.Report = nil
	var buf bytes.Buffer
	buf.WriteString(prefix)
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(escapeHTML)
	if err := enc.Encode(st); err != nil {
		return // a status always encodes; write nothing rather than half a frame
	}
	buf.Truncate(buf.Len() - 1) // Encode's newline
	if len(report) == 0 {
		buf.WriteString(suffix)
		w.Write(buf.Bytes())
		return
	}
	buf.Truncate(buf.Len() - 1) // the closing brace
	buf.WriteString(`,"report":`)
	w.Write(buf.Bytes())
	w.Write(report)
	io.WriteString(w, "}")
	io.WriteString(w, suffix)
}

// status snapshots the job's wire form. Lock order: jb.mu, then the
// broadcaster's own lock inside droppedCount — never the reverse.
func (jb *job) status() JobStatus {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	spans := jb.spans.Snapshot()
	phases := make([]PhaseStatus, len(spans))
	for i, sp := range spans {
		phases[i] = PhaseStatus{Phase: sp.Phase, MS: float64(sp.Dur) / 1e6, N: sp.N}
	}
	return JobStatus{
		ID:            jb.id,
		State:         jb.state,
		Cached:        jb.cached,
		Error:         jb.errDetail,
		Created:       jb.created.Format("2006-01-02T15:04:05.000Z07:00"),
		EventsDropped: jb.events.droppedCount(),
		Phases:        phases,
		Report:        jb.reportJSON,
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	var spec eda.Spec
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	spec = s.opts.Registry.Normalize(spec)
	if err := spec.ValidateIn(s.opts.Registry); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := contentKey(spec)
	// Submission-time dedup: an identical completed run answers
	// immediately, without consuming queue capacity (even while draining).
	e, cached := s.store.get(key)
	jb, err := s.newJob(spec, key, !cached)
	if err != nil {
		s.rejected.Add(1)
		s.log.Warn("job rejected", "framework", spec.Framework, "err", err)
		if errors.Is(err, errDraining) {
			writeError(w, http.StatusServiceUnavailable, "server is shutting down")
			return
		}
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "job queue full, retry later")
		return
	}
	if cached {
		s.log.Debug("job answered from report cache", "job", jb.id, "key", key)
		s.completeFromCache(jb, e)
		writeStatusJSON(w, http.StatusOK, jb.status())
		return
	}
	s.log.Debug("job queued", "job", jb.id, "framework", spec.Framework, "key", key)
	writeStatusJSON(w, http.StatusAccepted, jb.status())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	jb := s.lookup(r.PathValue("id"))
	if jb == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeStatusJSON(w, http.StatusOK, jb.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jb := s.jobs[r.PathValue("id")]
	// Leaving the queue frees the job's QueueDepth slot at once.
	s.queue = slices.DeleteFunc(s.queue, func(q *job) bool { return q == jb })
	s.mu.Unlock()
	if jb == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	jb.mu.Lock()
	switch jb.state {
	case stateQueued:
		// Out of the queue, or taken by a worker that has not started it:
		// the worker skips a job it finds already terminal.
		jb.mu.Unlock()
		s.finish(jb, stateCancelled, nil, false, "cancelled by client before start",
			eda.Event{Kind: eda.EventNote, Framework: jb.spec.Framework,
				Detail: "job cancelled before start"})
	case stateRunning:
		jb.userCancel = true // so a racing watchdog cannot re-label this
		cancel := jb.cancel
		jb.mu.Unlock()
		if cancel != nil {
			cancel() // the worker finalizes state when eda.Run returns
		}
	default:
		jb.mu.Unlock() // already terminal: cancellation is a no-op
	}
	writeStatusJSON(w, http.StatusOK, jb.status())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.stats())
}

// stats is the one snapshot behind /v1/stats and the server, report-store
// and farm families of /v1/metrics. The job pointers are copied under
// s.mu and their states counted outside it, so a stats poll holds the
// lock workers pop under only for the copy.
func (s *Server) stats() StatsReply {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, jb := range s.jobs {
		jobs = append(jobs, jb)
	}
	depth, draining := len(s.queue), s.draining
	s.mu.Unlock()
	st := StatsReply{
		Workers:        s.opts.Workers,
		QueueDepth:     depth,
		Draining:       draining,
		JobStates:      map[string]int{},
		Submitted:      s.submitted.Load(),
		Completed:      s.completed.Load(),
		Failed:         s.failed.Load(),
		Cancelled:      s.cancelled.Load(),
		Rejected:       s.rejected.Load(),
		Panics:         s.panics.Load(),
		WatchdogKills:  s.watchdogKills.Load(),
		Retries:        s.retries.Load(),
		StoreFails:     s.storeFails.Load(),
		QueueWaitP50MS: s.metrics.queueWaitQuantileMS(0.5),
		QueueWaitP99MS: s.metrics.queueWaitQuantileMS(0.99),
		ReportCache: ReportCacheStats{
			Hits:   s.store.hits.Load(),
			Misses: s.store.miss.Load(),
			Len:    s.store.len(),
		},
		Farm: simfarm.Default().Stats(),
	}
	for _, jb := range jobs {
		jb.mu.Lock()
		st.JobStates[jb.state]++
		jb.mu.Unlock()
		st.EventsDropped += jb.events.droppedCount()
	}
	return st
}

// handleEvents streams the job's event history and live tail as
// Server-Sent Events: one "id: <seq>" + "event: <kind>" + "data:
// <event JSON>" frame per core event, closed by a terminal "event: end"
// frame whose data is the job's final JobStatus (which carries the
// dropped-event count). Clients arriving after completion get the full
// replay and the end frame at once.
//
// On each wake-up the handler reads every event after the last one it
// wrote from the job's replay ring, writes them and flushes once. A
// finished job's stream needs no flush: net/http sends it on return.
//
// Resume: a client reconnecting after a broken stream sends the last
// sequence number it saw — the standard Last-Event-ID header, or an
// `after` query parameter for hand-driven curl — and the replay starts
// just past it. Events the ring evicted before the stream reached them
// are announced in a comment frame rather than silently skipped.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	jb := s.lookup(r.PathValue("id"))
	if jb == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	var after uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		fmt.Sscanf(v, "%d", &after)
	}
	if v := r.URL.Query().Get("after"); v != "" {
		fmt.Sscanf(v, "%d", &after)
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	wake, cancelSub := jb.events.subscribe()
	defer cancelSub()
	var batch []numbered
	for {
		var missed uint64
		var closed bool
		batch, missed, closed = jb.events.read(after, batch[:0])
		if missed > 0 {
			fmt.Fprintf(w, ": %d earlier events evicted from the replay buffer\n\n", missed)
		}
		for _, ne := range batch {
			if !s.writeFrame(w, r, ne) {
				return
			}
			after = ne.seq
		}
		if closed {
			writeSSEEnd(w, jb.status())
			return
		}
		fl.Flush()
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// writeFrame writes one SSE event frame, or aborts the stream (false)
// when the injected SSE fault drops the connection — the chaos stand-in
// for a proxy reset, exercising the client's reconnect-with-resume.
func (s *Server) writeFrame(w io.Writer, r *http.Request, ne numbered) bool {
	if s.opts.Faults != nil {
		if ferr := s.opts.Faults.Fire(r.Context(), faultinject.PointServerSSE); ferr != nil {
			return false
		}
	}
	writeSSE(w, ne)
	return true
}

func writeSSE(w io.Writer, ne numbered) {
	b, err := json.Marshal(ne.ev)
	if err != nil {
		return // core events always marshal; belt and braces
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ne.seq, ne.ev.Kind, b)
}

func writeSSEEnd(w io.Writer, st JobStatus) {
	writeStatus(w, "event: end\ndata: ", st, true, "\n\n")
}

// Package client is the typed HTTP client for the llm4eda job service
// (`llm4eda serve`, package internal/edaserver). It speaks the /v1 wire
// protocol: submit an eda.Spec as a job, poll or wait for its report,
// stream its progress events (the same core event vocabulary every local
// eda.Run emits) over Server-Sent Events, cancel it, and read the
// server's queue/cache statistics.
//
//	c := client.New("http://127.0.0.1:8372")
//	job, err := c.Submit(ctx, eda.Spec{Framework: "vrank", Problem: "mux4"})
//	err = c.Events(ctx, job.ID, eda.ProgressPrinter(os.Stdout, false))
//	job, err = c.Wait(ctx, job.ID)
//	report, err := job.DecodeReport()
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"llm4eda/eda"
	"llm4eda/internal/edaserver"
)

// Job mirrors the server's job status wire form.
type Job struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	// Created is the server-side submission time (RFC 3339).
	Created string `json:"created"`
	// EventsDropped counts events evicted from the job's server-side
	// replay ring before any subscriber (or resume) could see them.
	EventsDropped uint64 `json:"events_dropped,omitempty"`
	// Phases is the server's span breakdown of the job: every canonical
	// phase in flow order; N == 0 marks a phase that never ran (a cached
	// hit reports sim at 0 ms with N 0). PhaseMS("queue_wait") is how
	// long the job sat queued before a worker popped it (zero for jobs
	// answered from the report cache at submission).
	Phases []Phase `json:"phases,omitempty"`
	// Report is the raw shared-wire-format report ((*eda.Report).JSON)
	// once the job produced one; DecodeReport types it.
	Report json.RawMessage `json:"report,omitempty"`
}

// Phase is one row of a job's span breakdown.
type Phase struct {
	Phase string  `json:"phase"`
	MS    float64 `json:"ms"`
	N     int     `json:"n"`
}

// PhaseMS returns the accumulated milliseconds of one named phase
// (zero when the breakdown lacks it).
func (j *Job) PhaseMS(name string) float64 {
	for _, p := range j.Phases {
		if p.Phase == name {
			return p.MS
		}
	}
	return 0
}

// Terminal reports whether the job reached a final state.
func (j *Job) Terminal() bool {
	switch j.State {
	case "done", "failed", "cancelled":
		return true
	}
	return false
}

// Report is the shared report wire format — the exact type the server
// encodes ((*eda.Report).JSON), so server and client can never drift.
// Detail stays raw: callers that need the framework-native result decode
// it against that framework's result struct.
type Report = eda.ReportWire

// DecodeReport decodes the job's report, or fails when none is attached
// yet.
func (j *Job) DecodeReport() (*Report, error) {
	if len(j.Report) == 0 {
		return nil, fmt.Errorf("client: job %s (%s) carries no report", j.ID, j.State)
	}
	var r Report
	if err := json.Unmarshal(j.Report, &r); err != nil {
		return nil, fmt.Errorf("client: decoding job %s report: %w", j.ID, err)
	}
	return &r, nil
}

// Stats is the server's /v1/stats reply — the exact type the server
// encodes, so server and client can never drift.
type Stats = edaserver.StatsReply

// APIError is a non-2xx server reply.
type APIError struct {
	StatusCode int
	// RetryAfter is the server's backoff hint on 429/503 replies: the
	// parsed Retry-After header (delta-seconds or HTTP-date), or a small
	// default when the server sent none. Zero on other status codes.
	RetryAfter time.Duration
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server replied %d: %s", e.StatusCode, e.Message)
}

// IsQueueFull reports whether err is the server's 429 backpressure reply.
func IsQueueFull(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.StatusCode == http.StatusTooManyRequests
}

// Client talks to one server.
type Client struct {
	base       string
	hc         *http.Client
	poll       time.Duration
	retries    int           // non-stream requests: extra attempts on 429/503
	backoff    time.Duration // first retry's backoff (doubles, capped, jittered)
	sseRetries int           // Events: reconnect attempts after a broken stream
}

// Option adjusts a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports). The default client has no global timeout — event streams
// are long-lived — so bound calls with the context instead.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithPollInterval sets Wait's status poll interval (default 50ms).
func WithPollInterval(d time.Duration) Option {
	return func(c *Client) { c.poll = d }
}

// WithRetry sets how many times a non-stream request is retried after a
// retryable reply (429 queue-full, 503 draining) and the first retry's
// backoff. The wait honors the server's Retry-After hint when it gives
// one, otherwise doubles from base (capped at maxRetryBackoff) with
// jitter. WithRetry(0, 0) disables retries — tests asserting on raw
// backpressure replies want that. Defaults: 3 retries, 50ms base.
func WithRetry(max int, base time.Duration) Option {
	return func(c *Client) {
		if max < 0 {
			max = 0
		}
		c.retries = max
		if base > 0 {
			c.backoff = base
		}
	}
}

// WithSSEReconnect sets how many times Events re-dials a broken event
// stream (transport error or truncation before the terminal end frame),
// resuming past the last-seen event via Last-Event-ID. 0 disables
// reconnection. Default: 3.
func WithSSEReconnect(max int) Option {
	return func(c *Client) {
		if max < 0 {
			max = 0
		}
		c.sseRetries = max
	}
}

// New builds a client for the server at base (e.g. "http://host:8372").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:       strings.TrimRight(base, "/"),
		hc:         &http.Client{},
		poll:       50 * time.Millisecond,
		retries:    3,
		backoff:    50 * time.Millisecond,
		sseRetries: 3,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// maxRetryBackoff caps the doubling retry backoff.
const maxRetryBackoff = 2 * time.Second

// defaultRetryAfterHint stands in for a missing or unparseable
// Retry-After header on a 429/503 reply: back off a little instead of
// hammering an overloaded server with zero delay.
const defaultRetryAfterHint = 250 * time.Millisecond

// do issues one request, retrying retryable server replies (429/503) up
// to c.retries times. The body is kept as bytes so every attempt
// resends it from the start.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	backoff := c.backoff
	for attempt := 0; ; attempt++ {
		err := c.doOnce(ctx, method, path, body, out)
		if err == nil || attempt >= c.retries || !retryableReply(err) || ctx.Err() != nil {
			return err
		}
		wait := backoff
		var ae *APIError
		if errors.As(err, &ae) && ae.RetryAfter > 0 {
			wait = ae.RetryAfter
		}
		if err := sleepCtx(ctx, jitter(wait)); err != nil {
			return err
		}
		if backoff *= 2; backoff > maxRetryBackoff {
			backoff = maxRetryBackoff
		}
	}
}

func (c *Client) doOnce(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// retryableReply reports whether err is a server reply worth retrying:
// 429 (queue full) and 503 (draining) are load conditions that clear;
// everything else — 4xx misuse, transport failures — is not retried
// here (transport-level resilience belongs to the caller's *http.Client).
func retryableReply(err error) bool {
	var ae *APIError
	if !errors.As(err, &ae) {
		return false
	}
	return ae.StatusCode == http.StatusTooManyRequests ||
		ae.StatusCode == http.StatusServiceUnavailable
}

// jitter spreads a wait by up to +25% so synchronized clients desync.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d + time.Duration(rand.Int63n(int64(d)/4+1))
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func decodeError(resp *http.Response) error {
	ae := &APIError{
		StatusCode: resp.StatusCode,
		RetryAfter: parseRetryAfter(resp),
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&body); err == nil && body.Error != "" {
		ae.Message = body.Error
	} else {
		ae.Message = resp.Status
	}
	return ae
}

// parseRetryAfter reads the reply's Retry-After header in both RFC 9110
// forms — delta-seconds and HTTP-date — clamping negatives (a date in
// the past, a bogus delta) to zero. A 429/503 without a usable header
// still yields defaultRetryAfterHint, never zero: "retry immediately"
// is the one hint an overloaded server cannot mean.
func parseRetryAfter(resp *http.Response) time.Duration {
	throttled := resp.StatusCode == http.StatusTooManyRequests ||
		resp.StatusCode == http.StatusServiceUnavailable
	if ra := strings.TrimSpace(resp.Header.Get("Retry-After")); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil {
			if secs > 0 {
				return time.Duration(secs) * time.Second
			}
		} else if at, err := http.ParseTime(ra); err == nil {
			if d := time.Until(at); d > 0 {
				return d
			}
		}
		// Parsed to "now or past", or unparseable: fall through to the
		// status-code default.
	}
	if throttled {
		return defaultRetryAfterHint
	}
	return 0
}

// Submit validates and enqueues spec on the server, returning the queued
// (or, for a report-cache hit, already completed) job. Backpressure is
// retried per WithRetry; once the budget is exhausted it surfaces as an
// *APIError with StatusCode 429 — see IsQueueFull.
func (c *Client) Submit(ctx context.Context, spec eda.Spec) (*Job, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("client: encoding spec: %w", err)
	}
	var job Job
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", b, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Get fetches one job's status.
func (c *Client) Get(ctx context.Context, id string) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Cancel requests cancellation and returns the job's status at that
// moment (a running job may still read "running" until its context
// cancellation lands; poll or Wait for the terminal state).
func (c *Client) Cancel(ctx context.Context, id string) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Wait polls until the job reaches a terminal state or ctx expires.
func (c *Client) Wait(ctx context.Context, id string) (*Job, error) {
	t := time.NewTicker(c.poll)
	defer t.Stop()
	for {
		job, err := c.Get(ctx, id)
		if err != nil {
			return nil, err
		}
		if job.Terminal() {
			return job, nil
		}
		select {
		case <-ctx.Done():
			return job, ctx.Err()
		case <-t.C:
		}
	}
}

// Stats fetches the server's queue/cache statistics.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var st Stats
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// errBadFrame marks a malformed SSE event frame — a protocol error, not
// a transport flake, so Events does not reconnect over it.
var errBadFrame = errors.New("client: bad event frame")

// Events streams the job's events into sink until the server's terminal
// "end" frame (returning the job's final status), the stream fails for
// good, or ctx is cancelled. A late subscriber replays the job's
// retained history first, so Events after completion still yields the
// full stream.
//
// A stream broken before the end frame — transport reset, truncation, a
// proxy dropping the connection — is re-dialed up to WithSSEReconnect
// times, resuming just past the last event seen by sending its sequence
// number as Last-Event-ID. The server replays from there and any frames
// it resends anyway (seq at or below the last seen) are dropped here,
// so the sink observes each event exactly once across reconnects.
// Non-2xx replies and malformed frames are not reconnected over.
func (c *Client) Events(ctx context.Context, id string, sink eda.Sink) (*Job, error) {
	var lastSeq uint64
	backoff := c.backoff
	for attempt := 0; ; attempt++ {
		final, err := c.eventsOnce(ctx, id, sink, &lastSeq)
		if err == nil {
			return final, nil
		}
		var ae *APIError
		if errors.As(err, &ae) || errors.Is(err, errBadFrame) ||
			ctx.Err() != nil || attempt >= c.sseRetries {
			return nil, err
		}
		if serr := sleepCtx(ctx, jitter(backoff)); serr != nil {
			return nil, err
		}
		if backoff *= 2; backoff > maxRetryBackoff {
			backoff = maxRetryBackoff
		}
	}
}

// eventsOnce runs one SSE connection. *lastSeq carries resume state
// across attempts: it is sent as Last-Event-ID when non-zero, advanced
// as "id:" lines arrive, and any event frame whose sequence number is
// at or below it is a replay duplicate and skipped.
func (c *Client) eventsOnce(ctx context.Context, id string, sink eda.Sink, lastSeq *uint64) (*Job, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if *lastSeq > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(*lastSeq, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}

	var name string
	var seq uint64
	var data bytes.Buffer
	var final *Job
	dispatch := func() error {
		defer func() { name = ""; seq = 0; data.Reset() }()
		if data.Len() == 0 {
			return nil
		}
		if name == "end" {
			final = &Job{}
			return json.Unmarshal(data.Bytes(), final)
		}
		if seq > 0 {
			if seq <= *lastSeq {
				return nil // replayed duplicate from a resume
			}
			*lastSeq = seq
		}
		var ev eda.Event
		if err := json.Unmarshal(data.Bytes(), &ev); err != nil {
			return fmt.Errorf("%w: %v", errBadFrame, err)
		}
		if sink != nil {
			sink.Emit(ev)
		}
		return nil
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, maxSSELine) // starts at bufio's default, grows per long line
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := dispatch(); err != nil {
				return nil, err
			}
			if final != nil {
				return final, nil
			}
		case strings.HasPrefix(line, "id:"):
			seq, _ = strconv.ParseUint(strings.TrimSpace(strings.TrimPrefix(line, "id:")), 10, 64)
		case strings.HasPrefix(line, "event:"):
			name = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimSpace(strings.TrimPrefix(line, "data:")))
		case strings.HasPrefix(line, ":"):
			// comment frame (e.g. replay-buffer eviction notice)
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	return nil, io.ErrUnexpectedEOF
}

// maxSSELine bounds one SSE line; event frames embed report summaries and
// tool feedback heads, not whole sources, so 4 MB is generous.
const maxSSELine = 4 << 20

package edaserver_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llm4eda/eda"
	"llm4eda/eda/client"
	"llm4eda/internal/core"
	"llm4eda/internal/edaserver"
	"llm4eda/internal/testutil"
)

// quickSpec is the fast real workload the end-to-end tests submit: a
// vrank self-consistency run over one small problem, a few milliseconds
// of simulation through the shared farm.
func quickSpec(seed uint64) eda.Spec {
	return eda.Spec{
		Framework: "vrank",
		Problem:   "mux4",
		Run:       eda.RunSpec{Seed: seed},
		Params:    map[string]float64{"k": 3},
	}
}

// testHarness stands up a server over httptest plus a typed client whose
// transport is torn down with the test (so the goroutine leak checks see
// a quiet process afterwards).
type testHarness struct {
	srv *edaserver.Server
	ts  *httptest.Server
	c   *client.Client
}

func newHarness(t *testing.T, opts edaserver.Options) *testHarness {
	t.Helper()
	srv := edaserver.New(opts)
	ts := httptest.NewServer(srv)
	tr := &http.Transport{}
	// Retries off: these tests assert on the raw 429/503 contract, so the
	// client must surface the first backpressure reply, not absorb it.
	c := client.New(ts.URL,
		client.WithHTTPClient(&http.Client{Transport: tr}),
		client.WithPollInterval(5*time.Millisecond),
		client.WithRetry(0, 0))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		ts.Close()
		tr.CloseIdleConnections()
	})
	return &testHarness{srv: srv, ts: ts, c: c}
}

// newClient builds an additional independent client against the harness.
func (h *testHarness) newClient(t *testing.T) *client.Client {
	t.Helper()
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	return client.New(h.ts.URL,
		client.WithHTTPClient(&http.Client{Transport: tr}),
		client.WithPollInterval(5*time.Millisecond),
		client.WithRetry(0, 0))
}

// blockingRegistry registers a "block" pipeline that emits one note event
// and then parks until released or cancelled — the controllable workload
// behind the queue, cancellation and shutdown tests.
func blockingRegistry(t *testing.T) (*eda.Registry, chan struct{}) {
	t.Helper()
	reg := eda.NewRegistry()
	release := make(chan struct{})
	err := reg.Register(eda.Pipeline{
		Name: "block",
		Run: func(ctx context.Context, spec eda.Spec) (*eda.Report, error) {
			core.Emit(ctx, core.Event{Kind: core.EventNote, Framework: "block", Detail: "parked"})
			select {
			case <-release:
				return &eda.Report{OK: true, Summary: "released"}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg, release
}

// waitState polls until the job reaches state or the deadline passes.
func waitState(t *testing.T, c *client.Client, id, state string) *client.Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		job, err := c.Get(context.Background(), id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if job.State == state {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q waiting for %q", id, job.State, state)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestEndToEndConcurrentClients is the acceptance scenario: two clients
// submit the same quick-scale spec concurrently; both must receive
// byte-identical reports, /v1/stats must show the cross-request cache
// hit, the SSE stream must deliver start/progress/done, and shutdown
// must drain without leaking goroutines.
func TestEndToEndConcurrentClients(t *testing.T) {
	baseline := runtime.NumGoroutine()
	h := newHarness(t, edaserver.Options{Workers: 4})
	c2 := h.newClient(t)
	ctx := context.Background()

	spec := quickSpec(1)
	var jobs [2]*client.Job
	var errs [2]error
	var wg sync.WaitGroup
	for i, cl := range []*client.Client{h.c, c2} {
		wg.Add(1)
		go func(i int, cl *client.Client) {
			defer wg.Done()
			job, err := cl.Submit(ctx, spec)
			if err == nil {
				job, err = cl.Wait(ctx, job.ID)
			}
			jobs[i], errs[i] = job, err
		}(i, cl)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if jobs[i].State != "done" {
			t.Fatalf("client %d job %s finished %q: %s", i, jobs[i].ID, jobs[i].State, jobs[i].Error)
		}
	}
	if jobs[0].ID == jobs[1].ID {
		t.Fatalf("both clients got the same job id %s", jobs[0].ID)
	}
	if !bytes.Equal(jobs[0].Report, jobs[1].Report) {
		t.Errorf("concurrent identical submissions returned different reports:\n%s\nvs\n%s",
			jobs[0].Report, jobs[1].Report)
	}
	report, err := jobs[0].DecodeReport()
	if err != nil {
		t.Fatal(err)
	}
	if report.Framework != "vrank" || !report.OK {
		t.Errorf("report = %+v", report)
	}

	// One of the two identical jobs must have been served from the
	// content-addressed report store, and the farm's result layer must
	// have seen hits (bench reuse inside the run at minimum).
	st, err := h.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.ReportCache.Hits < 1 {
		t.Errorf("report cache hits = %d, want >= 1: %+v", st.ReportCache.Hits, st)
	}
	if st.Farm.Results.Hits == 0 {
		t.Error("no simulation result-cache hits recorded in /v1/stats")
	}
	if st.Completed != 2 {
		t.Errorf("completed = %d, want 2", st.Completed)
	}

	// The executed (non-cached) job's SSE stream replays the full run:
	// start, at least one progress event, done, then the end frame.
	execJob := jobs[0]
	if execJob.Cached {
		execJob = jobs[1]
	}
	sink := eda.NewCountingSink()
	final, err := h.c.Events(ctx, execJob.ID, sink)
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	if final.State != "done" {
		t.Errorf("end frame state = %q", final.State)
	}
	if n := sink.Count(eda.EventRunStart); n != 1 {
		t.Errorf("run-start events = %d, want 1", n)
	}
	if n := sink.Count(eda.EventRunEnd); n != 1 {
		t.Errorf("run-end events = %d, want 1", n)
	}
	if progress := sink.Total() - sink.Count(eda.EventRunStart) - sink.Count(eda.EventRunEnd); progress < 1 {
		t.Errorf("no progress events between start and done (total %d)", sink.Total())
	}

	// Drain and leak-check. Cleanup will shut down again (idempotent);
	// doing it explicitly here keeps the leak check inside the test body.
	ctxSD, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctxSD); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	h.ts.Close()
	testutil.CheckNoGoroutineLeak(t, baseline)
}

// TestCachedResubmission pins the submit-time dedup path: a spec
// resubmitted after completion answers done+cached immediately with the
// original bytes, and its event stream explains the cache hit.
func TestCachedResubmission(t *testing.T) {
	h := newHarness(t, edaserver.Options{Workers: 2})
	ctx := context.Background()

	first, err := h.c.Submit(ctx, quickSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	first, err = h.c.Wait(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	again, err := h.c.Submit(ctx, quickSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if again.State != "done" || !again.Cached {
		t.Fatalf("resubmission state=%q cached=%v, want immediate cached done", again.State, again.Cached)
	}
	if !bytes.Equal(first.Report, again.Report) {
		t.Error("cached report differs from the original")
	}
	// A different seed is a different content address.
	other, err := h.c.Submit(ctx, quickSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached {
		t.Error("distinct seed dedup'd against the wrong report")
	}
	if _, err := h.c.Wait(ctx, other.ID); err != nil {
		t.Fatal(err)
	}
	sink := eda.NewCountingSink()
	if _, err := h.c.Events(ctx, again.ID, sink); err != nil {
		t.Fatal(err)
	}
	if sink.Count(eda.EventRunEnd) != 1 || sink.Count(eda.EventNote) < 1 {
		t.Errorf("cached job stream lacks note+run-end: %d notes, %d run-ends",
			sink.Count(eda.EventNote), sink.Count(eda.EventRunEnd))
	}
}

// TestBackpressure fills a one-worker, depth-one queue and asserts the
// 429 + Retry-After contract, then drains and verifies the queued job
// still ran.
func TestBackpressure(t *testing.T) {
	reg, release := blockingRegistry(t)
	h := newHarness(t, edaserver.Options{Workers: 1, QueueDepth: 1, Registry: reg})
	ctx := context.Background()

	blockSpec := func(seed uint64) eda.Spec {
		return eda.Spec{Framework: "block", Run: eda.RunSpec{Seed: seed}}
	}
	running, err := h.c.Submit(ctx, blockSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, h.c, running.ID, "running")
	queued, err := h.c.Submit(ctx, blockSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if queued.State != "queued" {
		t.Fatalf("second job state = %q, want queued", queued.State)
	}
	_, err = h.c.Submit(ctx, blockSpec(3))
	if !client.IsQueueFull(err) {
		t.Fatalf("third submit err = %v, want 429 queue-full", err)
	}
	var ae *client.APIError
	if errors.As(err, &ae) && ae.RetryAfter <= 0 {
		t.Errorf("429 reply carries no Retry-After hint: %+v", ae)
	}
	st, err := h.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != 1 || st.QueueDepth != 1 {
		t.Errorf("stats rejected=%d queue_depth=%d, want 1/1", st.Rejected, st.QueueDepth)
	}

	close(release) // both blocked runs return
	if job := waitState(t, h.c, running.ID, "done"); job.Error != "" {
		t.Errorf("first job error: %s", job.Error)
	}
	waitState(t, h.c, queued.ID, "done")
}

// TestCancelQueued cancels a job before a worker reaches it: it must
// never run and the worker must skip it cleanly when popped.
func TestCancelQueued(t *testing.T) {
	reg, release := blockingRegistry(t)
	h := newHarness(t, edaserver.Options{Workers: 1, QueueDepth: 2, Registry: reg})
	ctx := context.Background()

	running, err := h.c.Submit(ctx, eda.Spec{Framework: "block", Run: eda.RunSpec{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, h.c, running.ID, "running")
	queued, err := h.c.Submit(ctx, eda.Spec{Framework: "block", Run: eda.RunSpec{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, err := h.c.Cancel(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cancelled.State != "cancelled" {
		t.Fatalf("queued cancel state = %q", cancelled.State)
	}
	// The cancelled job's QueueDepth reservation is returned immediately
	// (not when a worker drains past the corpse), so the full queue is
	// usable again while the first job still runs.
	st, err := h.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.QueueDepth != 0 {
		t.Errorf("queue depth after cancelling the only queued job = %d, want 0", st.QueueDepth)
	}
	refill, err := h.c.Submit(ctx, eda.Spec{Framework: "block", Run: eda.RunSpec{Seed: 3}})
	if err != nil {
		t.Fatalf("queue slot not reusable after cancel: %v", err)
	}
	close(release)
	waitState(t, h.c, refill.ID, "done")
	waitState(t, h.c, running.ID, "done")
	// The skipped job must still read cancelled after the worker drained
	// past it, and cancelling it again stays a no-op.
	if job := waitState(t, h.c, queued.ID, "cancelled"); job.Report != nil {
		t.Error("cancelled-before-start job carries a report")
	}
	if again, err := h.c.Cancel(ctx, queued.ID); err != nil || again.State != "cancelled" {
		t.Errorf("repeat cancel: %v %+v", err, again)
	}
}

// TestDistinctSpecNotBlockedByBusyKey: a duplicate of a running spec
// waits for its content key, while a distinct spec submitted after it
// starts at once on the free worker; once the first run finishes, the
// duplicate is answered from the report store at its pop. Seed 4 is the
// regression pick: under per-key sharding over two workers (FNV-32a of
// the content key modulo 2), seeds 1 and 4 share a shard, so a sharded
// scheduler leaves seed 4 queued behind the duplicate while the other
// worker idles.
func TestDistinctSpecNotBlockedByBusyKey(t *testing.T) {
	reg, release := blockingRegistry(t)
	h := newHarness(t, edaserver.Options{Workers: 2, Registry: reg})
	ctx := context.Background()

	blockSpec := func(seed uint64) eda.Spec {
		return eda.Spec{Framework: "block", Run: eda.RunSpec{Seed: seed}}
	}
	first, err := h.c.Submit(ctx, blockSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, h.c, first.ID, "running")
	dup, err := h.c.Submit(ctx, blockSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	distinct, err := h.c.Submit(ctx, blockSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, h.c, distinct.ID, "running")
	if job, err := h.c.Get(ctx, dup.ID); err != nil || job.State != "queued" {
		t.Fatalf("duplicate while its key runs: %+v, %v; want queued", job, err)
	}

	close(release)
	if final := waitState(t, h.c, dup.ID, "done"); !final.Cached {
		t.Error("duplicate ran again instead of taking the stored report at its pop")
	}
	waitState(t, h.c, first.ID, "done")
	waitState(t, h.c, distinct.ID, "done")
}

// TestCancelRunning cancels an in-flight job: its context must fire and
// the job must finish cancelled, promptly.
func TestCancelRunning(t *testing.T) {
	reg, _ := blockingRegistry(t)
	h := newHarness(t, edaserver.Options{Workers: 1, Registry: reg})
	ctx := context.Background()

	job, err := h.c.Submit(ctx, eda.Spec{Framework: "block"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, h.c, job.ID, "running")
	if _, err := h.c.Cancel(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, h.c, job.ID, "cancelled")
	if !strings.Contains(final.Error, "cancel") {
		t.Errorf("cancelled job error = %q", final.Error)
	}
}

// TestSSELiveStream subscribes while the job is parked and asserts
// events arrive live (not only as replay), then sees the end frame after
// release.
func TestSSELiveStream(t *testing.T) {
	reg, release := blockingRegistry(t)
	h := newHarness(t, edaserver.Options{Workers: 1, Registry: reg})
	ctx := context.Background()

	job, err := h.c.Submit(ctx, eda.Spec{Framework: "block"})
	if err != nil {
		t.Fatal(err)
	}
	type got struct {
		final *client.Job
		err   error
	}
	seen := make(chan eda.Event, 64)
	done := make(chan got, 1)
	go func() {
		final, err := h.c.Events(ctx, job.ID, eda.SinkFunc(func(ev eda.Event) { seen <- ev }))
		done <- got{final, err}
	}()
	// Live delivery: the parked pipeline has already emitted run-start
	// and its note; they must reach the subscriber while the job runs.
	deadline := time.After(10 * time.Second)
	var kinds []eda.EventKind
	for len(kinds) < 2 {
		select {
		case ev := <-seen:
			kinds = append(kinds, ev.Kind)
		case <-deadline:
			t.Fatalf("no live events before release; saw %v", kinds)
		}
	}
	close(release)
	g := <-done
	if g.err != nil {
		t.Fatalf("Events: %v", g.err)
	}
	if g.final.State != "done" {
		t.Errorf("end frame state = %q", g.final.State)
	}
}

// TestShutdownDrains: during drain, new submissions answer 503, the
// in-flight job finishes, queued jobs come back cancelled, and Shutdown
// returns nil once quiet.
func TestShutdownDrains(t *testing.T) {
	reg, release := blockingRegistry(t)
	h := newHarness(t, edaserver.Options{Workers: 1, QueueDepth: 2, Registry: reg})
	ctx := context.Background()

	running, err := h.c.Submit(ctx, eda.Spec{Framework: "block", Run: eda.RunSpec{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, h.c, running.ID, "running")
	queued, err := h.c.Submit(ctx, eda.Spec{Framework: "block", Run: eda.RunSpec{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}

	sdErr := make(chan error, 1)
	go func() {
		ctxSD, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		sdErr <- h.srv.Shutdown(ctxSD)
	}()
	// Draining flips synchronously with the queue sweep; poll stats until
	// visible, then probe the intake.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := h.c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never reported draining")
		}
		time.Sleep(2 * time.Millisecond)
	}
	_, err = h.c.Submit(ctx, eda.Spec{Framework: "block", Run: eda.RunSpec{Seed: 3}})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain err = %v, want 503", err)
	}

	close(release)
	if err := <-sdErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Reads still work on the drained server.
	if job := waitState(t, h.c, running.ID, "done"); job.Error != "" {
		t.Errorf("drained in-flight job error: %s", job.Error)
	}
	waitState(t, h.c, queued.ID, "cancelled")
}

// gateLog parks the first "job finished" record of a cancelled job until
// release is closed, closing held once it is parked. The record is logged
// by the job's terminal transition, so this pauses the shutdown sweep
// between the queued jobs it ends.
type gateLog struct {
	parked        atomic.Bool
	held, release chan struct{}
}

func (g *gateLog) Enabled(context.Context, slog.Level) bool { return true }
func (g *gateLog) WithAttrs([]slog.Attr) slog.Handler       { return g }
func (g *gateLog) WithGroup(string) slog.Handler            { return g }
func (g *gateLog) Handle(_ context.Context, r slog.Record) error {
	cancelled := false
	r.Attrs(func(a slog.Attr) bool {
		cancelled = cancelled || (a.Key == "state" && a.Value.String() == "cancelled")
		return true
	})
	if r.Message == "job finished" && cancelled && g.parked.CompareAndSwap(false, true) {
		close(g.held)
		<-g.release
	}
	return nil
}

// TestCancelRacingShutdownSweep: a DELETE that reaches a queued job after
// Shutdown took it off the queue, but before the sweep ended it, finishes
// the job once. The sweep then leaves it alone: one cancelled count and
// one job-duration fold per job, and the client's detail stands.
func TestCancelRacingShutdownSweep(t *testing.T) {
	reg, release := blockingRegistry(t)
	gate := &gateLog{held: make(chan struct{}), release: make(chan struct{})}
	h := newHarness(t, edaserver.Options{Workers: 1, QueueDepth: 2, Registry: reg, Log: slog.New(gate)})
	ctx := context.Background()

	running, err := h.c.Submit(ctx, eda.Spec{Framework: "block", Run: eda.RunSpec{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, h.c, running.ID, "running")
	var queued [2]*client.Job
	for i := range queued {
		if queued[i], err = h.c.Submit(ctx, eda.Spec{Framework: "block", Run: eda.RunSpec{Seed: uint64(2 + i)}}); err != nil {
			t.Fatal(err)
		}
	}

	sdErr := make(chan error, 1)
	go func() {
		ctxSD, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		sdErr <- h.srv.Shutdown(ctxSD)
	}()
	select {
	case <-gate.held: // the sweep ended queued[0] and has not reached queued[1]
	case <-time.After(10 * time.Second):
		t.Fatal("the shutdown sweep never ended a queued job")
	}
	if job, err := h.c.Cancel(ctx, queued[1].ID); err != nil || job.State != "cancelled" {
		t.Fatalf("DELETE during the sweep: %+v, %v; want cancelled", job, err)
	}
	close(gate.release)
	close(release)
	if err := <-sdErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	if job := waitState(t, h.c, queued[1].ID, "cancelled"); job.Error != "cancelled by client before start" {
		t.Errorf("raced job error = %q, want the client's cancel", job.Error)
	}
	st, err := h.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 3 || st.Completed != 1 || st.Cancelled != 2 {
		t.Errorf("submitted/completed/cancelled = %d/%d/%d, want 3/1/2", st.Submitted, st.Completed, st.Cancelled)
	}
	if _, vals := scrapeMetrics(t, h.ts.URL); vals["llm4eda_job_duration_seconds_count"] != 3 {
		t.Errorf("job_duration_seconds_count = %v, want 3 (one fold per job)", vals["llm4eda_job_duration_seconds_count"])
	}
}

// TestShutdownForcedCancel: a drain whose budget expires force-cancels
// the in-flight job but still waits for the workers to unwind.
func TestShutdownForcedCancel(t *testing.T) {
	reg, _ := blockingRegistry(t) // never released
	h := newHarness(t, edaserver.Options{Workers: 1, Registry: reg})
	ctx := context.Background()

	job, err := h.c.Submit(ctx, eda.Spec{Framework: "block"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, h.c, job.ID, "running")
	ctxSD, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := h.srv.Shutdown(ctxSD); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	waitState(t, h.c, job.ID, "cancelled")
}

// TestSubmitValidation covers the 400 paths: malformed JSON, unknown
// fields, and specs the registry rejects.
func TestSubmitValidation(t *testing.T) {
	h := newHarness(t, edaserver.Options{Workers: 1})
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(h.ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for name, body := range map[string]string{
		"malformed":         `{"framework": `,
		"unknown field":     `{"framework": "vrank", "probelm": "mux4"}`,
		"unknown framework": `{"framework": "quantum"}`,
		"unknown param":     `{"framework": "vrank", "params": {"depth": 2}}`,
		"bad payload":       `{"framework": "slt", "problem": "adder4"}`,
		"oversized source": `{"framework": "repair", "kernel": "f", "source": "` +
			strings.Repeat(" ", 256<<10+1) + `"}`,
	} {
		resp := post(body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
	// Nothing above may have consumed queue capacity or minted jobs.
	st, err := h.c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 0 || st.QueueDepth != 0 || len(st.JobStates) != 0 {
		t.Errorf("rejected specs left residue: %+v", st)
	}
}

// TestUnknownJob covers the 404 paths on every job endpoint.
func TestUnknownJob(t *testing.T) {
	h := newHarness(t, edaserver.Options{Workers: 1})
	ctx := context.Background()
	assert404 := func(err error, what string) {
		t.Helper()
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
			t.Errorf("%s: err = %v, want 404", what, err)
		}
	}
	_, err := h.c.Get(ctx, "j99999999")
	assert404(err, "Get")
	_, err = h.c.Cancel(ctx, "j99999999")
	assert404(err, "Cancel")
	_, err = h.c.Events(ctx, "j99999999", nil)
	assert404(err, "Events")
}

// TestJobCapEvictsOldestFinished: past JobCap the oldest finished jobs
// leave the table and answer 404, the newest stay, and a job still
// running is never evicted however old it is.
func TestJobCapEvictsOldestFinished(t *testing.T) {
	reg, release := blockingRegistry(t)
	if err := reg.Register(eda.Pipeline{
		Name: "quick",
		Run: func(context.Context, eda.Spec) (*eda.Report, error) {
			return &eda.Report{OK: true, Summary: "quick"}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, edaserver.Options{Workers: 2, JobCap: 4, Registry: reg})
	ctx := context.Background()
	parked, err := h.c.Submit(ctx, eda.Spec{Framework: "block"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, h.c, parked.ID, "running")
	var quick []string
	submitQuick := func(n int) {
		for range n {
			job, err := h.c.Submit(ctx, eda.Spec{Framework: "quick", Run: eda.RunSpec{Seed: uint64(len(quick) + 1)}})
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, h.c, job.ID, "done")
			quick = append(quick, job.ID)
		}
	}
	retained := func(want ...string) {
		t.Helper()
		keep := map[string]bool{}
		for _, id := range want {
			keep[id] = true
		}
		for _, id := range append([]string{parked.ID}, quick...) {
			_, err := h.c.Get(ctx, id)
			var ae *client.APIError
			switch {
			case keep[id] && err != nil:
				t.Errorf("job %s: %v, want it retained", id, err)
			case !keep[id] && (!errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound):
				t.Errorf("job %s: err = %v, want 404", id, err)
			}
		}
	}
	// The parked job is the oldest, so only three finished jobs fit.
	submitQuick(6)
	retained(parked.ID, quick[3], quick[4], quick[5])
	// Finished, the parked job is the oldest to go.
	close(release)
	waitState(t, h.c, parked.ID, "done")
	submitQuick(2)
	retained(quick[4:]...)
}

// TestFailedRunSurfacesError: a pipeline failure lands the job in
// "failed" with the error preserved, and failed runs are never cached —
// resubmission runs again.
func TestFailedRunSurfacesError(t *testing.T) {
	reg := eda.NewRegistry()
	var calls int32
	mu := sync.Mutex{}
	if err := reg.Register(eda.Pipeline{
		Name: "broken",
		Run: func(ctx context.Context, spec eda.Spec) (*eda.Report, error) {
			mu.Lock()
			calls++
			mu.Unlock()
			return nil, fmt.Errorf("substrate exploded")
		},
	}); err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, edaserver.Options{Workers: 1, Registry: reg})
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		job, err := h.c.Submit(ctx, eda.Spec{Framework: "broken"})
		if err != nil {
			t.Fatal(err)
		}
		job, err = h.c.Wait(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if job.State != "failed" || !strings.Contains(job.Error, "substrate exploded") {
			t.Fatalf("attempt %d: state=%q error=%q", i, job.State, job.Error)
		}
		if job.Cached {
			t.Error("failed run served from cache")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 2 {
		t.Errorf("broken pipeline ran %d times, want 2 (failures must not cache)", calls)
	}
}

// TestDeadlineFailsJob: a spec deadline that fires mid-run lands the job
// in failed (not cancelled — nobody asked for it to stop) with the
// partial report attached when the pipeline produced one.
func TestDeadlineFailsJob(t *testing.T) {
	reg, _ := blockingRegistry(t) // never released: only the deadline ends it
	h := newHarness(t, edaserver.Options{Workers: 1, Registry: reg})
	ctx := context.Background()

	job, err := h.c.Submit(ctx, eda.Spec{
		Framework: "block",
		Run:       eda.RunSpec{Deadline: 30 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, h.c, job.ID, "failed")
	if !strings.Contains(final.Error, "deadline") {
		t.Errorf("deadline failure error = %q", final.Error)
	}
}

// Package edaserver turns the one-shot eda front door into a long-running
// JSON service: the queued, shareable, streamable job layer the paper's
// Fig. 6 agent-as-a-service vision needs in front of the compute
// substrate. One Server embeds an eda.Registry and exposes
//
//	POST   /v1/jobs             validate an eda.Spec, enqueue it
//	GET    /v1/jobs/{id}        job status + the final eda.Report
//	DELETE /v1/jobs/{id}        cancel (queued jobs never start;
//	                            running jobs get their context cancelled)
//	GET    /v1/jobs/{id}/events stream the run's core events as SSE
//	GET    /v1/stats            queue depth, job counters, report-cache
//	                            and simfarm cache traffic
//
// Jobs land on one bounded FIFO queue drained by a pool of workers. A
// worker takes the oldest queued job whose content key is not already
// running, so identical specs run one at a time in submission order while
// a distinct spec never waits for a free worker; a full queue rejects
// with 429 and Retry-After (backpressure, never unbounded buffering).
// Every job runs
// through eda.Run against the one process-wide simfarm.Farm, so identical
// candidate designs compiled by different requests hit the design/result
// caches across requests; on top of that sits an LRU-bounded
// content-addressed report store — resubmitting a spec that normalizes
// identically (same framework, seed, tier, payload and params; Workers
// and Deadline are scheduling knobs, not result inputs) returns the
// cached report verbatim, checked both at submission and again when the
// job reaches a worker. Shutdown stops intake (503), lets in-flight jobs
// drain, fails queued-but-unstarted jobs as cancelled, and force-cancels
// the stragglers only when the caller's context expires.
package edaserver

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"llm4eda/eda"
	"llm4eda/internal/core"
	"llm4eda/internal/faultinject"
	"llm4eda/internal/obs"
)

// Options configure one Server. Zero values select defaults sized for a
// single-host deployment.
type Options struct {
	// Workers is the number of worker goroutines draining the job queue
	// (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds queued-but-unstarted jobs (default 64).
	// Submissions beyond it are rejected with 429.
	QueueDepth int
	// ReportCap bounds the content-addressed report store (default 256).
	ReportCap int
	// JobCap bounds the job table; the oldest finished jobs are evicted
	// past it (default 4096). Evicted job ids answer 404.
	JobCap int
	// EventHistory bounds each job's event replay ring (default 4096);
	// an SSE subscriber arriving late replays at most this many events.
	EventHistory int
	// Registry resolves frameworks (default eda.DefaultRegistry()).
	Registry *eda.Registry
	// Watchdog, when positive, arms a per-job staleness watchdog: a
	// running job that emits no event for longer than this window is
	// declared wedged and cancelled, finishing failed with a *WedgeError
	// detail. 0 disables (the default — pipelines may legitimately go
	// quiet for long stretches at full experiment scale).
	Watchdog time.Duration
	// Faults is the chaos-test injector, fired at the server.job,
	// server.sse and server.store hook points and carried into each
	// job's context for the layers below. Nil in production: every hook
	// is a nil check and nothing else.
	Faults *faultinject.Injector
	// Log receives structured job-lifecycle logs, every record carrying
	// the job id for correlation. Default: discard.
	Log *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.ReportCap <= 0 {
		o.ReportCap = 256
	}
	if o.JobCap <= 0 {
		o.JobCap = 4096
	}
	if o.EventHistory <= 0 {
		o.EventHistory = 4096
	}
	if o.Registry == nil {
		o.Registry = eda.DefaultRegistry()
	}
	if o.Log == nil {
		o.Log = slog.New(slog.DiscardHandler)
	}
	return o
}

// Server is the HTTP job service. Create one with New, mount it anywhere
// (it implements http.Handler), and stop it with Shutdown.
type Server struct {
	opts Options
	mux  *http.ServeMux

	// baseCtx parents every job context; baseCancel is the force-cancel
	// lever of a timed-out Shutdown.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	wg sync.WaitGroup

	// mu guards the job table and the queue. Lock ordering: mu before
	// job.mu.
	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order, for finished-job eviction
	seq   uint64
	// queue holds the queued jobs, oldest first; running holds the content
	// keys of the jobs workers have taken and not yet finished. work wakes
	// idle workers when a job is queued or draining starts.
	queue    []*job
	running  map[string]bool
	work     *sync.Cond
	draining bool

	store *reportStore

	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	cancelled atomic.Uint64
	rejected  atomic.Uint64

	// Resilience counters (all surfaced by /v1/stats): pipeline panics
	// recovered into failed jobs, watchdog kills of wedged jobs,
	// transient-failure retries harvested from completed reports, and
	// report-store writes that failed (injected — the in-memory store
	// itself cannot fail, but the hook models a remote store tier).
	panics        atomic.Uint64
	watchdogKills atomic.Uint64
	retries       atomic.Uint64
	storeFails    atomic.Uint64

	// metrics holds the latency histograms (job duration, per-phase
	// breakdown) that fold in at each job's terminal transition; log is
	// the structured job-lifecycle logger. Both always non-nil.
	metrics *serverMetrics
	log     *slog.Logger
}

// New builds a server and starts its worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		mux:     http.NewServeMux(),
		jobs:    make(map[string]*job),
		running: make(map[string]bool),
		store:   newReportStore(opts.ReportCap),
		metrics: newServerMetrics(),
		log:     opts.Log,
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.work = sync.NewCond(&s.mu)
	s.wg.Add(opts.Workers)
	for range opts.Workers {
		go s.worker()
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return s
}

// ServeHTTP dispatches to the /v1 API.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the server: intake stops (submissions answer 503),
// queued-but-unstarted jobs finish as cancelled without running, and
// in-flight jobs run to completion. When ctx expires first, the in-flight
// jobs' contexts are cancelled — eda.Run returns within one simulation
// job — and Shutdown still waits for the workers before returning
// ctx.Err(). A drained server returns nil and stays mounted: reads keep
// working, writes stay rejected.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	swept := s.queue
	s.queue = nil
	s.mu.Unlock()
	s.work.Broadcast()
	// A DELETE may end one of these first; finish keeps its outcome.
	for _, jb := range swept {
		s.finish(jb, stateCancelled, nil, false, "server shut down before the job started",
			eda.Event{Kind: eda.EventNote, Framework: jb.spec.Framework,
				Detail: "job cancelled: server shutting down"})
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

var (
	errQueueFull = errors.New("edaserver: job queue full")
	errDraining  = errors.New("edaserver: server is shutting down")
)

// worker runs queued jobs until the server drains.
func (s *Server) worker() {
	defer s.wg.Done()
	for jb := s.next(); jb != nil; jb = s.next() {
		s.runJob(jb)
		// The store write is done, so a queued duplicate taken next finds
		// the report at its pop-time probe. This worker's own next call
		// looks for that duplicate, so no other worker needs waking.
		s.mu.Lock()
		delete(s.running, jb.key)
		s.mu.Unlock()
	}
}

// next takes the oldest queued job whose content key is not running and
// marks the key running, waiting while there is none; nil once the server
// drains (Shutdown has emptied the queue by then).
func (s *Server) next() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.draining {
		for i, jb := range s.queue {
			if !s.running[jb.key] {
				s.queue = slices.Delete(s.queue, i, i+1)
				s.running[jb.key] = true
				return jb
			}
		}
		s.work.Wait()
	}
	return nil
}

// runJob drives one popped job to a terminal state.
func (s *Server) runJob(jb *job) {
	jb.mu.Lock()
	if jb.state != stateQueued {
		// A DELETE ended the job between the pop and here.
		jb.mu.Unlock()
		return
	}
	jb.endWaitLocked()
	// Pop-time dedup: an identical job queued ahead of us (same content
	// key, so it finished before we could be taken) may have stored its
	// report while we waited.
	if e, ok := s.store.peek(jb.key); ok {
		jb.mu.Unlock()
		s.completeFromCache(jb, e)
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	ctx = faultinject.With(ctx, s.opts.Faults)
	ctx = obs.WithSpans(ctx, jb.spans)
	jb.cancel = cancel
	jb.state = stateRunning
	jb.mu.Unlock()
	s.log.Debug("job started", "job", jb.id, "framework", jb.spec.Framework,
		"queue_wait", jb.queueWait)

	var wdStop chan struct{}
	if s.opts.Watchdog > 0 {
		jb.events.touch() // the staleness clock starts at job start
		wdStop = make(chan struct{})
		go s.watchdog(jb, cancel, wdStop)
	}
	report, err := s.runPipeline(ctx, jb)
	if wdStop != nil {
		close(wdStop)
	}
	cancel()

	var reportJSON []byte
	if report != nil {
		if b, jerr := report.JSON(); jerr == nil {
			reportJSON = b
		} else if err == nil {
			err = fmt.Errorf("edaserver: report encoding failed: %w", jerr)
		}
		// Transient failures the candidate loops absorbed surface as a
		// report metric; fold them into the server-wide counter.
		if n, ok := report.Metrics[eda.MetricTransientRetries]; ok && n > 0 {
			s.retries.Add(uint64(n))
		}
	}
	jb.mu.Lock()
	wedged, wedgeIdle, userCancel := jb.wedged, jb.wedgeIdle, jb.userCancel
	jb.mu.Unlock()
	cancelled := errors.Is(err, context.Canceled)
	switch {
	case err == nil && reportJSON != nil:
		// The store write is part of the job's span breakdown, so it
		// happens before the terminal fold into the aggregate histograms.
		s.storeReport(jb, &reportEntry{json: reportJSON, ok: report.OK, summary: report.Summary})
		s.finish(jb, stateDone, reportJSON, false, "")
	case wedged && err != nil && !(cancelled && userCancel):
		// The watchdog cancelled a stalled run: terminally failed, with
		// the structured staleness detail, not "cancelled" — nobody asked
		// for this job to stop, it stopped responding. The client's DELETE
		// still wins when it raced the watchdog.
		werr := &WedgeError{Idle: wedgeIdle, Window: s.opts.Watchdog}
		s.watchdogKills.Add(1)
		s.log.Warn("watchdog killed wedged job", "job", jb.id, "idle", wedgeIdle)
		s.finish(jb, stateFailed, reportJSON, false, werr.Error())
	case cancelled:
		// Client DELETE or forced shutdown; a partial report still
		// travels with the terminal status when the pipeline made one.
		s.finish(jb, stateCancelled, reportJSON, false, err.Error())
	default:
		detail := "pipeline returned no report"
		if err != nil {
			detail = err.Error()
		}
		s.finish(jb, stateFailed, reportJSON, false, detail)
	}
}

// finish is the one terminal transition. The first caller moves the job
// to state and bumps the matching counter under jb.mu, so a reader that
// sees the state also sees the count; every later caller (a DELETE that
// raced the shutdown sweep or a worker's pop-time store probe) is a
// no-op. It then folds the job into the aggregate telemetry, emits the
// notes and closes the event stream.
func (s *Server) finish(jb *job, state string, reportJSON []byte, cached bool, detail string, notes ...eda.Event) {
	jb.mu.Lock()
	if jb.state != stateQueued && jb.state != stateRunning {
		jb.mu.Unlock()
		return
	}
	jb.endWaitLocked() // a job ending while queued: the time it sat there is real wait
	jb.state, jb.reportJSON, jb.cached, jb.errDetail, jb.cancel = state, reportJSON, cached, detail, nil
	switch state {
	case stateDone:
		s.completed.Add(1)
	case stateFailed:
		s.failed.Add(1)
	default:
		s.cancelled.Add(1)
	}
	jb.mu.Unlock()
	s.jobFinished(jb, state, cached)
	for _, ev := range notes {
		jb.events.Emit(ev)
	}
	jb.events.close()
}

// runPipeline executes the job's spec with panic isolation: a panic
// anywhere in the pipeline stack — a kernel bug on a pathological
// candidate, or the injected fault standing in for one — is recovered
// into a *core.PanicError carrying the (truncated) stack, so one bad
// job costs one failed report, never the process.
func (s *Server) runPipeline(ctx context.Context, jb *job) (report *eda.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.log.Error("pipeline panic recovered", "job", jb.id, "panic", fmt.Sprint(r))
			stack := debug.Stack()
			if len(stack) > maxPanicStack {
				stack = stack[:maxPanicStack]
			}
			report, err = nil, &core.PanicError{Val: r, Stack: stack}
		}
	}()
	if s.opts.Faults != nil {
		if ferr := s.opts.Faults.Fire(ctx, faultinject.PointServerJob); ferr != nil {
			return nil, ferr
		}
	}
	return eda.Run(ctx, jb.spec, eda.WithRegistry(s.opts.Registry), eda.WithSink(jb.events))
}

// maxPanicStack bounds the stack carried into a terminal report.
const maxPanicStack = 8 << 10

// jobFinished folds one terminal job into the aggregate telemetry:
// submit-to-terminal latency into the job-duration histogram, each
// phase that actually ran into its per-phase histogram (pre-seeded
// zero rows stay per-job detail — folding them would pull every
// aggregate's percentiles toward zero), and one structured log line.
// Called exactly once per job, after its terminal transition.
func (s *Server) jobFinished(jb *job, state string, cached bool) {
	elapsed := time.Since(jb.created)
	s.metrics.jobDur.Record(elapsed)
	for _, sp := range jb.spans.Snapshot() {
		if sp.N > 0 {
			s.metrics.phases[sp.Phase].Record(sp.Dur)
		}
	}
	s.log.Info("job finished", "job", jb.id, "state", state, "cached", cached,
		"elapsed", elapsed, "queue_wait", jb.spans.Get(obs.PhaseQueueWait).Dur,
		"sim", jb.spans.Get(obs.PhaseSim).Dur)
}

// storeReport adds a finished report to the cross-request store, unless
// the injected store fault drops the write (modelling a failed write to
// a remote report tier). A dropped write only costs recomputation on
// the next identical submission — never correctness. The write (fault
// hook included — an injected delay is store latency) is the job's
// store_write phase.
func (s *Server) storeReport(jb *job, e *reportEntry) {
	start := time.Now()
	defer jb.spans.Since(obs.PhaseStoreWrite, start)
	if s.opts.Faults != nil {
		if ferr := s.opts.Faults.Fire(nil, faultinject.PointServerStore); ferr != nil {
			s.storeFails.Add(1)
			s.log.Warn("report-store write failed", "job", jb.id, "err", ferr)
			return
		}
	}
	s.store.add(jb.key, e)
}

// WedgeError is the structured terminal detail of a watchdog kill: the
// job emitted no event for longer than the staleness window.
type WedgeError struct {
	// Idle is how long the job had been silent when the watchdog fired.
	Idle time.Duration
	// Window is the configured staleness window (Options.Watchdog).
	Window time.Duration
}

func (e *WedgeError) Error() string {
	return fmt.Sprintf("watchdog: job wedged — no event emitted for %v (staleness window %v)",
		e.Idle.Round(time.Millisecond), e.Window)
}

// watchdog polls the job's staleness clock (the broadcaster's lastEmit,
// an atomic — no locks on the poll) and, when the job has been silent
// past the window, marks it wedged and cancels its context. The worker
// observes the wedged mark when eda.Run returns and finishes the job
// failed with a *WedgeError detail. stop ends the watchdog when the job
// finishes on its own.
func (s *Server) watchdog(jb *job, cancel context.CancelFunc, stop <-chan struct{}) {
	window := s.opts.Watchdog
	probe := window / 8
	if probe < 5*time.Millisecond {
		probe = 5 * time.Millisecond
	}
	t := time.NewTicker(probe)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			idle := jb.events.idle()
			if idle < window {
				continue
			}
			jb.mu.Lock()
			if jb.state != stateRunning {
				jb.mu.Unlock()
				return
			}
			jb.wedged, jb.wedgeIdle = true, idle
			jb.mu.Unlock()
			cancel()
			return
		}
	}
}

// completeFromCache finishes a job with a stored report: the same bytes
// the original run produced, so concurrent identical submissions observe
// byte-identical reports.
func (s *Server) completeFromCache(jb *job, e *reportEntry) {
	s.finish(jb, stateDone, e.json, true, "",
		eda.Event{Kind: eda.EventNote, Framework: jb.spec.Framework,
			Detail: "report served from the cross-request report cache"},
		eda.Event{Kind: eda.EventRunEnd, Framework: jb.spec.Framework, OK: e.ok, Detail: e.summary})
}

// newJob registers and counts a submitted job for a validated spec,
// evicting the oldest finished jobs past JobCap. A job bound for the
// queue (enqueue true) is admitted first: while draining or with the
// queue full it is rejected before it enters the job table. The
// registration note is emitted before mu is released, so it precedes any
// event of a worker that takes the job.
func (s *Server) newJob(spec eda.Spec, key string, enqueue bool) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if enqueue && s.draining {
		return nil, errDraining
	}
	if enqueue && len(s.queue) >= s.opts.QueueDepth {
		return nil, errQueueFull
	}
	s.seq++
	jb := &job{
		id:      fmt.Sprintf("j%08d", s.seq),
		key:     key,
		spec:    spec,
		created: time.Now().UTC(),
		state:   stateQueued,
		events:  newBroadcaster(s.opts.EventHistory),
		spans:   obs.NewSpans(obs.JobPhases()...),
	}
	jb.events.Emit(eda.Event{Kind: eda.EventNote, Framework: spec.Framework,
		Detail: "job " + jb.id + " queued"})
	s.jobs[jb.id] = jb
	s.order = append(s.order, jb.id)
	s.submitted.Add(1)
	// Evict the oldest finished jobs from the front; live ones keep their
	// place. The scan stops once the table fits, so it passes at most the
	// live jobs (QueueDepth + Workers) besides those it evicts.
	var live []string
	scanned := 0
	for ; len(s.jobs) > s.opts.JobCap && scanned < len(s.order); scanned++ {
		if id := s.order[scanned]; s.jobs[id].terminal() {
			delete(s.jobs, id)
		} else {
			live = append(live, id)
		}
	}
	s.order = s.order[scanned-len(live):]
	copy(s.order, live)
	if enqueue {
		jb.enqueued = time.Now() // starts the queue-wait clock
		s.queue = append(s.queue, jb)
		s.work.Signal()
	}
	return jb, nil
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

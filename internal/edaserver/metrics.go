package edaserver

import (
	"bytes"
	"io"
	"net/http"
	"sort"
	"strings"

	"llm4eda/internal/obs"
	"llm4eda/internal/simfarm"
)

// serverMetrics is the server's corner of the obs registry: the latency
// histograms that record as jobs move (everything else — the stats
// snapshot /v1/stats also encodes, fault stats owned by the injector — is
// harvested live at scrape time by handleMetrics, so no state is kept
// twice).
type serverMetrics struct {
	reg *obs.Registry
	// jobDur is submit-to-terminal latency across all jobs.
	jobDur *obs.Histogram
	// phases maps the canonical phases (plus pipeline) to their
	// aggregate histograms, pre-resolved so the per-job terminal fold is
	// a map read, not a registry lookup. Only these phases are recorded;
	// any other name reads a nil histogram, which ignores the record.
	phases map[string]*obs.Histogram
}

func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		jobDur: reg.Histogram("llm4eda_job_duration_seconds",
			"Submit-to-terminal job latency."),
		phases: make(map[string]*obs.Histogram),
	}
	for _, p := range append(obs.JobPhases(), obs.PhasePipeline) {
		m.phases[p] = reg.Histogram("llm4eda_job_phase_seconds",
			"Per-phase latency breakdown of finished jobs (phases that ran; a cached hit records no sim).",
			"phase", p)
	}
	return m
}

// queueWaitQuantile reads the aggregate queue-wait distribution (for
// /v1/stats, in milliseconds).
func (m *serverMetrics) queueWaitQuantileMS(q float64) float64 {
	return float64(m.phases[obs.PhaseQueueWait].Quantile(q)) / 1e6
}

// handleMetrics serves GET /v1/metrics: the full telemetry surface in
// Prometheus text exposition format — the registry's histograms plus
// every counter harvested live from the server, the report store, the
// farm (cache layers, lint screen) and the fault injector. One scrape
// answers "what is this service doing": job flow, latency distributions,
// queue pressure, cache economics, chaos damage.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b bytes.Buffer
	s.metrics.reg.Expose(&b)
	s.harvestMetrics(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b.Bytes())
}

func (s *Server) harvestMetrics(w io.Writer) {
	st := s.stats()
	// Job flow.
	obs.WriteFamily(w, "llm4eda_jobs_submitted_total", "Jobs accepted by POST /v1/jobs.",
		obs.KindCounter, obs.Sample{Value: float64(st.Submitted)})
	obs.WriteFamily(w, "llm4eda_jobs_finished_total", "Jobs reaching a terminal state, by state.",
		obs.KindCounter,
		obs.Sample{Labels: []string{"state", stateDone}, Value: float64(st.Completed)},
		obs.Sample{Labels: []string{"state", stateFailed}, Value: float64(st.Failed)},
		obs.Sample{Labels: []string{"state", stateCancelled}, Value: float64(st.Cancelled)})
	obs.WriteFamily(w, "llm4eda_jobs_rejected_total", "Submissions rejected by queue backpressure or drain.",
		obs.KindCounter, obs.Sample{Value: float64(st.Rejected)})

	// Queue and job-table pressure.
	stateSamples := make([]obs.Sample, 0, 5)
	for _, state := range []string{stateQueued, stateRunning, stateDone, stateFailed, stateCancelled} {
		stateSamples = append(stateSamples, obs.Sample{Labels: []string{"state", state}, Value: float64(st.JobStates[state])})
	}
	obs.WriteFamily(w, "llm4eda_jobs", "Jobs retained in the job table, by state.",
		obs.KindGauge, stateSamples...)
	obs.WriteFamily(w, "llm4eda_queue_depth", "Jobs accepted onto the queue but not yet started.",
		obs.KindGauge, obs.Sample{Value: float64(st.QueueDepth)})
	obs.WriteFamily(w, "llm4eda_workers", "Worker goroutines draining the job queue.",
		obs.KindGauge, obs.Sample{Value: float64(st.Workers)})
	draining := 0.0
	if st.Draining {
		draining = 1
	}
	obs.WriteFamily(w, "llm4eda_draining", "1 while the server is draining (intake rejected).",
		obs.KindGauge, obs.Sample{Value: draining})

	// Resilience counters.
	obs.WriteFamily(w, "llm4eda_panics_total", "Pipeline panics recovered into failed jobs.",
		obs.KindCounter, obs.Sample{Value: float64(st.Panics)})
	obs.WriteFamily(w, "llm4eda_watchdog_kills_total", "Jobs cancelled by the staleness watchdog.",
		obs.KindCounter, obs.Sample{Value: float64(st.WatchdogKills)})
	obs.WriteFamily(w, "llm4eda_transient_retries_total", "Transient-failure retries absorbed inside candidate loops.",
		obs.KindCounter, obs.Sample{Value: float64(st.Retries)})
	obs.WriteFamily(w, "llm4eda_store_fails_total", "Report-store writes dropped (fault-injected).",
		obs.KindCounter, obs.Sample{Value: float64(st.StoreFails)})
	obs.WriteFamily(w, "llm4eda_events_dropped_total", "SSE replay-ring evictions summed over retained jobs.",
		obs.KindCounter, obs.Sample{Value: float64(st.EventsDropped)})

	// Report store (cross-request dedup layer).
	obs.WriteFamily(w, "llm4eda_report_cache_hits_total", "Report-store hits (submit-time and pop-time dedup).",
		obs.KindCounter, obs.Sample{Value: float64(st.ReportCache.Hits)})
	obs.WriteFamily(w, "llm4eda_report_cache_misses_total", "Report-store misses.",
		obs.KindCounter, obs.Sample{Value: float64(st.ReportCache.Misses)})
	obs.WriteFamily(w, "llm4eda_report_cache_entries", "Reports retained in the store.",
		obs.KindGauge, obs.Sample{Value: float64(st.ReportCache.Len)})

	// Farm cache layers, lint screen, recovered worker panics.
	fs := st.Farm
	layers := fs.Layers()
	kinds := []struct {
		suffix, help string
		get          func(simfarm.Stats) float64
	}{
		{"hits_total", "Farm cache hits, by layer.", func(st simfarm.Stats) float64 { return float64(st.Hits) }},
		{"misses_total", "Farm cache misses, by layer.", func(st simfarm.Stats) float64 { return float64(st.Misses) }},
		{"evictions_total", "Farm cache evictions, by layer.", func(st simfarm.Stats) float64 { return float64(st.Evictions) }},
		{"computes_total", "Farm cache value constructions (singleflight-deduplicated), by layer.", func(st simfarm.Stats) float64 { return float64(st.Computes) }},
	}
	for _, k := range kinds {
		samples := make([]obs.Sample, 0, len(layers))
		for _, l := range layers {
			samples = append(samples, obs.Sample{Labels: []string{"layer", l.Name}, Value: k.get(l.Stats)})
		}
		obs.WriteFamily(w, "llm4eda_farm_"+k.suffix, k.help, obs.KindCounter, samples...)
	}
	entrySamples := make([]obs.Sample, 0, len(layers))
	for _, l := range layers {
		entrySamples = append(entrySamples, obs.Sample{Labels: []string{"layer", l.Name}, Value: float64(l.Len)})
	}
	obs.WriteFamily(w, "llm4eda_farm_entries", "Farm cache entries retained, by layer.",
		obs.KindGauge, entrySamples...)
	obs.WriteFamily(w, "llm4eda_farm_lint_rejects_total", "Candidates rejected by pre-simulation lint screening.",
		obs.KindCounter, obs.Sample{Value: float64(fs.LintRejects)})
	obs.WriteFamily(w, "llm4eda_farm_panics_total", "Farm worker panics recovered into job results.",
		obs.KindCounter, obs.Sample{Value: float64(fs.Panics)})

	// Fault injector firings, one sample per armed point/kind. Only
	// present when chaos is armed — a production scrape carries no fault
	// family at all.
	if s.opts.Faults != nil {
		fired := s.opts.Faults.Stats()
		keys := make([]string, 0, len(fired))
		for k := range fired {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		samples := make([]obs.Sample, 0, len(keys))
		for _, k := range keys {
			point, kind, _ := strings.Cut(k, "/")
			samples = append(samples, obs.Sample{
				Labels: []string{"point", point, "kind", kind},
				Value:  float64(fired[k]),
			})
		}
		obs.WriteFamily(w, "llm4eda_faults_fired_total", "Injected fault firings, by hook point and kind.",
			obs.KindCounter, samples...)
	}
}

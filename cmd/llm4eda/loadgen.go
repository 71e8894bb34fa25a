package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"llm4eda/eda"
	"llm4eda/eda/client"
)

// cmdLoadgen drives a live `llm4eda serve` with traffic shaped like the
// production mix the ROADMAP scales toward: hot duplicate specs (report-
// cache traffic), cold uniques (real compute), early cancellations and
// live SSE subscribers, from several concurrent clients. It measures
// what the microbenchmarks cannot — submit-to-terminal latency and
// queue-wait distributions under contention, and the cache-hit economics
// of mixed traffic — and writes them to LOAD_<date>.json, the service-
// level companion of the BENCH_*.json trajectory (`make load-test`).
//
// The mix is index-driven from a fixed seed, so two runs against equal
// servers submit identical traffic; -smoke adds the CI assertions
// (`make load-smoke`): a recorded p99, report-cache hits, no failures.
func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8372", "server base URL")
	jobs := fs.Int("jobs", 120, "total jobs to submit")
	clients := fs.Int("clients", 8, "concurrent submitting clients")
	hotEvery := fs.Int("hot", 3, "every Nth job resubmits a hot spec from a fixed set (0 = no hot traffic)")
	cancelEvery := fs.Int("cancel", 9, "every Nth job is cancelled right after submission (0 = never)")
	sseEvery := fs.Int("sse", 5, "every Nth job gets a live SSE subscriber (0 = none)")
	seed := fs.Uint64("seed", 1, "base seed for cold-unique specs (the traffic shape itself is index-driven)")
	timeout := fs.Duration("timeout", 5*time.Minute, "whole-run deadline")
	out := fs.String("out", "", "output JSON path (default LOAD_<date>.json)")
	smoke := fs.Bool("smoke", false, "assert smoke invariants: p99 recorded, cache hits > 0, zero failed jobs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("loadgen takes no positional arguments")
	}
	if *jobs <= 0 || *clients <= 0 {
		return fmt.Errorf("loadgen: -jobs and -clients must be positive")
	}
	path := *out
	if path == "" {
		path = "LOAD_" + time.Now().Format("2006-01-02") + ".json"
	}
	rep, err := runLoad(*addr, *jobs, *clients, *hotEvery, *cancelEvery, *sseEvery, *seed, *timeout)
	if err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}
	fmt.Printf("loadgen: %d jobs via %d clients in %.2fs — done=%d cached=%d cancelled=%d failed=%d; "+
		"latency p50=%.1fms p99=%.1fms; report-cache hits=%d (%.0f%%)\n",
		rep.Jobs, rep.Clients, rep.DurationS, rep.Outcomes.Done, rep.Outcomes.Cached,
		rep.Outcomes.Cancelled, rep.Outcomes.Failed, rep.LatencyMS.P50, rep.LatencyMS.P99,
		rep.ReportCache.Hits, 100*rep.ReportCache.HitRate)
	fmt.Printf("loadgen: wrote %s\n", path)
	if *smoke {
		if err := rep.smokeCheck(); err != nil {
			return fmt.Errorf("loadgen: smoke: %w", err)
		}
		fmt.Println("loadgen: smoke ok (p99 recorded, cache hits > 0, zero failed jobs)")
	}
	return nil
}

// loadReport is the committed LOAD_<date>.json shape.
type loadReport struct {
	Date      string  `json:"date"`
	Addr      string  `json:"addr"`
	Jobs      int     `json:"jobs"`
	Clients   int     `json:"clients"`
	Seed      uint64  `json:"seed"`
	Mix       loadMix `json:"mix"`
	DurationS float64 `json:"duration_s"`
	// ThroughputJPS is terminal jobs per wall-clock second.
	ThroughputJPS float64 `json:"throughput_jobs_per_s"`

	Outcomes struct {
		// Done counts jobs finishing state=done, Cached the subset the
		// report store answered (submit- or pop-time dedup).
		Done      int `json:"done"`
		Cached    int `json:"cached"`
		Cancelled int `json:"cancelled"`
		Failed    int `json:"failed"`
		// SubmitRejected counts 429/503 rejections that exhausted the
		// client's retry budget; SubmitErrors any other submit failure.
		SubmitRejected int `json:"submit_rejected"`
		SubmitErrors   int `json:"submit_errors"`
		StreamErrors   int `json:"stream_errors"`
	} `json:"outcomes"`

	// LatencyMS summarizes client-observed submit-to-terminal latency of
	// done jobs (exact percentiles over the recorded samples, not
	// histogram estimates). QueueWaitMS summarizes the same jobs'
	// server-reported queue_wait phase.
	LatencyMS   loadQuantiles `json:"latency_ms"`
	QueueWaitMS loadQuantiles `json:"queue_wait_ms"`
	// PhaseMeanMS is the mean per-job duration of each canonical phase
	// over done jobs, from the jobs' span breakdowns.
	PhaseMeanMS map[string]float64 `json:"phase_mean_ms"`

	// ReportCache and FarmResults are the run's cache-traffic deltas
	// (after minus before, so a shared server's history is excluded).
	ReportCache struct {
		Hits    uint64  `json:"hits"`
		Misses  uint64  `json:"misses"`
		HitRate float64 `json:"hit_rate"`
	} `json:"report_cache"`
	FarmResults struct {
		Hits     uint64  `json:"hits"`
		Misses   uint64  `json:"misses"`
		Computes uint64  `json:"computes"`
		HitRate  float64 `json:"hit_rate"`
	} `json:"farm_results"`

	EventsStreamed int  `json:"events_streamed"`
	MetricsScrape  bool `json:"metrics_scrape_ok"`
}

type loadMix struct {
	HotEvery    int `json:"hot_every"`
	CancelEvery int `json:"cancel_every"`
	SSEEvery    int `json:"sse_every"`
}

type loadQuantiles struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

func (r *loadReport) smokeCheck() error {
	var errs []string
	if r.Outcomes.Done == 0 || r.LatencyMS.P99 <= 0 {
		errs = append(errs, fmt.Sprintf("no p99 latency recorded (done=%d, p99=%.3fms)",
			r.Outcomes.Done, r.LatencyMS.P99))
	}
	if r.ReportCache.Hits == 0 {
		errs = append(errs, "report-cache hit counter stayed zero under hot duplicate traffic")
	}
	if r.Outcomes.Failed > 0 {
		errs = append(errs, fmt.Sprintf("%d jobs failed", r.Outcomes.Failed))
	}
	if r.Outcomes.SubmitErrors > 0 {
		errs = append(errs, fmt.Sprintf("%d submissions errored", r.Outcomes.SubmitErrors))
	}
	if !r.MetricsScrape {
		errs = append(errs, "/v1/metrics scrape failed or lacked the job-duration family")
	}
	if len(errs) > 0 {
		return fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	return nil
}

// loadSpec shapes job i's spec: every hotEvery-th job draws from a
// three-spec hot set (alternating by index so each hot spec repeats
// many times), everything else is a cold unique over the three quick
// suite problems. All vrank k=2: quick enough to push real concurrency
// through a laptop-sized server, real enough to exercise lint screen,
// compile, multi-candidate sim and report assembly.
func loadSpec(i, hotEvery int, seed uint64) eda.Spec {
	problems := []string{"mux4", "adder4", "counter8"}
	if hotEvery > 0 && i%hotEvery == 0 {
		h := (i / hotEvery) % len(problems)
		return eda.Spec{Framework: "vrank", Problem: problems[h],
			Run: eda.RunSpec{Seed: seed}, Params: map[string]float64{"k": 2}}
	}
	return eda.Spec{Framework: "vrank", Problem: problems[i%len(problems)],
		Run: eda.RunSpec{Seed: seed*1000 + uint64(i)}, Params: map[string]float64{"k": 2}}
}

func runLoad(addr string, jobs, nClients, hotEvery, cancelEvery, sseEvery int, seed uint64, timeout time.Duration) (*loadReport, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	pool := make([]*client.Client, nClients)
	for i := range pool {
		pool[i] = client.New(addr, client.WithPollInterval(20*time.Millisecond))
	}
	if err := loadWaitReady(ctx, pool[0]); err != nil {
		return nil, fmt.Errorf("server at %s not ready: %w", addr, err)
	}
	before, err := pool[0].Stats(ctx)
	if err != nil {
		return nil, err
	}

	rep := &loadReport{
		Date: time.Now().Format("2006-01-02"), Addr: addr,
		Jobs: jobs, Clients: nClients, Seed: seed,
		Mix: loadMix{HotEvery: hotEvery, CancelEvery: cancelEvery, SSEEvery: sseEvery},
	}
	var mu sync.Mutex
	var latencies, waits []float64
	phaseSum := map[string]float64{}
	var events atomic.Int64
	var wg, sseWG sync.WaitGroup
	start := time.Now()
	for w := 0; w < nClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := pool[w]
			for i := w; i < jobs; i += nClients {
				spec := loadSpec(i, hotEvery, seed)
				t0 := time.Now()
				job, err := cl.Submit(ctx, spec)
				if err != nil {
					mu.Lock()
					if client.IsQueueFull(err) {
						rep.Outcomes.SubmitRejected++
					} else {
						rep.Outcomes.SubmitErrors++
					}
					mu.Unlock()
					continue
				}
				if cancelEvery > 0 && i%cancelEvery == cancelEvery-1 {
					if _, err := cl.Cancel(ctx, job.ID); err != nil {
						mu.Lock()
						rep.Outcomes.SubmitErrors++
						mu.Unlock()
						continue
					}
				}
				if sseEvery > 0 && i%sseEvery == 1 {
					sseWG.Add(1)
					go func(id string) {
						defer sseWG.Done()
						_, serr := cl.Events(ctx, id, eda.SinkFunc(func(eda.Event) { events.Add(1) }))
						if serr != nil {
							mu.Lock()
							rep.Outcomes.StreamErrors++
							mu.Unlock()
						}
					}(job.ID)
				}
				final, err := cl.Wait(ctx, job.ID)
				lat := time.Since(t0)
				if err != nil {
					mu.Lock()
					rep.Outcomes.SubmitErrors++
					mu.Unlock()
					continue
				}
				mu.Lock()
				switch final.State {
				case "done":
					rep.Outcomes.Done++
					if final.Cached {
						rep.Outcomes.Cached++
					}
					latencies = append(latencies, float64(lat)/1e6)
					waits = append(waits, final.PhaseMS("queue_wait"))
					for _, p := range final.Phases {
						phaseSum[p.Phase] += p.MS
					}
				case "cancelled":
					rep.Outcomes.Cancelled++
				default:
					rep.Outcomes.Failed++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	sseWG.Wait()
	rep.DurationS = time.Since(start).Seconds()

	after, err := pool[0].Stats(ctx)
	if err != nil {
		return nil, err
	}
	terminal := rep.Outcomes.Done + rep.Outcomes.Cancelled + rep.Outcomes.Failed
	if rep.DurationS > 0 {
		rep.ThroughputJPS = float64(terminal) / rep.DurationS
	}
	rep.LatencyMS = exactQuantiles(latencies)
	rep.QueueWaitMS = exactQuantiles(waits)
	rep.PhaseMeanMS = map[string]float64{}
	for ph, sum := range phaseSum {
		rep.PhaseMeanMS[ph] = sum / float64(rep.Outcomes.Done)
	}
	rep.EventsStreamed = int(events.Load())
	rep.ReportCache.Hits = after.ReportCache.Hits - before.ReportCache.Hits
	rep.ReportCache.Misses = after.ReportCache.Misses - before.ReportCache.Misses
	if t := rep.ReportCache.Hits + rep.ReportCache.Misses; t > 0 {
		rep.ReportCache.HitRate = float64(rep.ReportCache.Hits) / float64(t)
	}
	rep.FarmResults.Hits = after.Farm.Results.Hits - before.Farm.Results.Hits
	rep.FarmResults.Misses = after.Farm.Results.Misses - before.Farm.Results.Misses
	rep.FarmResults.Computes = after.Farm.Results.Computes - before.Farm.Results.Computes
	if t := rep.FarmResults.Hits + rep.FarmResults.Misses; t > 0 {
		rep.FarmResults.HitRate = float64(rep.FarmResults.Hits) / float64(t)
	}
	// One scrape proves the exposition endpoint serves under load.
	if text, err := pool[0].Metrics(ctx); err == nil {
		rep.MetricsScrape = strings.Contains(text, "llm4eda_job_duration_seconds_count")
	}
	return rep, nil
}

// exactQuantiles computes nearest-rank percentiles over the raw samples
// — the measurement side stays exact so the server's histogram
// estimates have an independent reference.
func exactQuantiles(samples []float64) loadQuantiles {
	if len(samples) == 0 {
		return loadQuantiles{}
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	at := func(q float64) float64 {
		rank := int(math.Ceil(q * float64(len(sorted))))
		if rank < 1 {
			rank = 1
		}
		return sorted[rank-1]
	}
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return loadQuantiles{
		P50: at(0.5), P90: at(0.9), P99: at(0.99),
		Max:  sorted[len(sorted)-1],
		Mean: sum / float64(len(sorted)),
	}
}

// loadWaitReady polls /v1/stats until the server answers.
func loadWaitReady(ctx context.Context, c *client.Client) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		probe, probeCancel := context.WithTimeout(ctx, time.Second)
		_, err := c.Stats(probe)
		probeCancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

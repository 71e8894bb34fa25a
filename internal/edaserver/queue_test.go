package edaserver_test

import (
	"context"
	"errors"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llm4eda/eda"
	"llm4eda/eda/client"
	"llm4eda/internal/edaserver"
)

// TestSchedulerInvariants drives the queue with concurrent submissions
// over a few content keys, random DELETEs and a Shutdown partway through,
// against a pipeline that parks for a random 0–3 ms and fails one run in
// four (failures are never stored, so keys keep running). A one-entry
// report store makes the mix hold fresh runs, duplicates queued behind
// their running key, pop-time store hits and submit-time store hits. It
// asserts:
//   - no content key ever has two pipelines running at once;
//   - /v1/stats never reports a queue_depth above QueueDepth;
//   - after the drain every accepted job is terminal;
//   - submitted == completed + failed + cancelled == accepted jobs;
//   - the job-duration histogram folded each job exactly once.
//
// Run under -race via make test-race.
func TestSchedulerInvariants(t *testing.T) {
	const (
		keys       = 4
		workers    = 3
		depth      = 4
		submitters = 6
	)
	nJobs := 400
	if testing.Short() {
		nJobs = 120
	}

	var (
		mu       sync.Mutex
		rng      = rand.New(rand.NewPCG(13, 1))
		running  = map[uint64]int{}
		overlaps atomic.Int64
	)
	reg := eda.NewRegistry()
	if err := reg.Register(eda.Pipeline{
		Name: "park",
		Run: func(ctx context.Context, spec eda.Spec) (*eda.Report, error) {
			key := spec.Run.Seed
			mu.Lock()
			running[key]++
			if running[key] > 1 {
				overlaps.Add(1)
			}
			park := time.Duration(rng.IntN(3001)) * time.Microsecond
			fail := rng.IntN(4) == 0
			mu.Unlock()
			defer func() {
				mu.Lock()
				running[key]--
				mu.Unlock()
			}()
			select {
			case <-time.After(park):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if fail {
				return nil, errors.New("parked run failed")
			}
			return &eda.Report{OK: true, Summary: "parked"}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, edaserver.WithReportCap(edaserver.Options{Workers: workers, QueueDepth: depth, Registry: reg}, 1))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// A poller samples /v1/stats for the whole run.
	stopPoll := make(chan struct{})
	pollDone := make(chan struct{})
	poller := h.newClient(t)
	go func() {
		defer close(pollDone)
		for {
			select {
			case <-stopPoll:
				return
			default:
			}
			st, err := poller.Stats(ctx)
			if err != nil {
				t.Errorf("stats poll: %v", err)
				return
			}
			if st.QueueDepth > depth {
				t.Errorf("queue_depth %d exceeds QueueDepth %d", st.QueueDepth, depth)
			}
		}
	}()

	var (
		acceptedMu sync.Mutex
		accepted   []string
		sent       atomic.Int64
		halfway    = make(chan struct{})
		wg         sync.WaitGroup
	)
	for w := range submitters {
		cl := h.newClient(t)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(13, uint64(2+w)))
			var mine []string
			defer func() {
				acceptedMu.Lock()
				accepted = append(accepted, mine...)
				acceptedMu.Unlock()
			}()
			for i := w; i < nJobs; i += submitters {
				if sent.Add(1) == int64(nJobs/2) {
					close(halfway)
				}
				spec := eda.Spec{Framework: "park", Run: eda.RunSpec{Seed: uint64(1 + r.IntN(keys))}}
				job, err := cl.Submit(ctx, spec)
				var ae *client.APIError
				switch {
				case err == nil:
					mine = append(mine, job.ID)
				case errors.As(err, &ae) && (ae.StatusCode == http.StatusTooManyRequests ||
					ae.StatusCode == http.StatusServiceUnavailable):
				default:
					t.Errorf("submit %d: %v", i, err)
					continue
				}
				if len(mine) > 0 && r.IntN(5) == 0 {
					if _, err := cl.Cancel(ctx, mine[r.IntN(len(mine))]); err != nil {
						t.Errorf("cancel: %v", err)
					}
				}
			}
		}(w)
	}

	<-halfway
	sdCtx, sdCancel := context.WithTimeout(ctx, 30*time.Second)
	defer sdCancel()
	if err := h.srv.Shutdown(sdCtx); err != nil {
		t.Errorf("Shutdown: %v", err) // not Fatal: the submitters still report through t
	}
	wg.Wait()
	close(stopPoll)
	<-pollDone

	if n := overlaps.Load(); n > 0 {
		t.Errorf("a content key had two pipelines running at once %d times", n)
	}
	for _, id := range accepted {
		job, err := h.c.Get(ctx, id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if !job.Terminal() {
			t.Errorf("job %s left %q after the drain", id, job.State)
		}
	}
	st, err := h.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d accepted: %d done, %d failed, %d cancelled; %d rejected; %d report-store hits",
		len(accepted), st.Completed, st.Failed, st.Cancelled, st.Rejected, st.ReportCache.Hits)
	if st.Submitted != uint64(len(accepted)) {
		t.Errorf("submitted = %d, clients saw %d accepted", st.Submitted, len(accepted))
	}
	if sum := st.Completed + st.Failed + st.Cancelled; st.Submitted != sum {
		t.Errorf("submitted %d != completed %d + failed %d + cancelled %d",
			st.Submitted, st.Completed, st.Failed, st.Cancelled)
	}
	_, vals := scrapeMetrics(t, h.ts.URL)
	if got := vals["llm4eda_job_duration_seconds_count"]; got != float64(st.Submitted) {
		t.Errorf("job_duration_seconds_count = %v, want submitted %d (one fold per job)", got, st.Submitted)
	}
}

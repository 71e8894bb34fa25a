package edaserver_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llm4eda/eda"
	"llm4eda/eda/client"
	"llm4eda/internal/edaserver"
	"llm4eda/internal/faultinject"
	"llm4eda/internal/simfarm"
	"llm4eda/internal/testutil"
)

// chaosPlan is the seeded fault mix TestChaosSurvival runs under: every
// fault class the framework knows, spread over every hook layer —
// pipeline panics, farm worker panics, transient flakes, wedged stages,
// slow simulations, SSE disconnects and report-store write failures.
func chaosPlan() faultinject.Plan {
	return faultinject.Plan{
		Seed: 0xC0FFEE,
		Faults: []faultinject.Fault{
			{Point: faultinject.PointServerJob, Kind: faultinject.KindPanic, Every: 9},
			{Point: faultinject.PointEDAProblem, Kind: faultinject.KindError, Every: 6},
			{Point: faultinject.PointEDAProblem, Kind: faultinject.KindWedge, Every: 11, Max: 2},
			{Point: faultinject.PointFarmJob, Kind: faultinject.KindPanic, Every: 25, Max: 3},
			{Point: faultinject.PointFarmJob, Kind: faultinject.KindDelay, Every: 23, Delay: 5 * time.Millisecond},
			{Point: faultinject.PointServerSSE, Kind: faultinject.KindDrop, Every: 25},
			{Point: faultinject.PointServerStore, Kind: faultinject.KindDrop, Every: 3},
		},
	}
}

// chaosOutcome is one accepted job's terminal observation.
type chaosOutcome struct {
	key    string // spec identity (framework/problem/seed/k)
	state  string
	cached bool
	report []byte
}

// TestChaosSurvival is the acceptance scenario behind `make chaos-test`:
// mixed realistic traffic — hot duplicates, cold uniques, cancellations,
// live SSE subscribers — against the seeded fault plan above. The
// service must absorb every injected failure: all accepted jobs reach a
// terminal state, the process keeps answering, cached reports stay
// byte-consistent with the run that produced them, the resilience
// counters in /v1/stats account for the injected faults, and shutdown
// restores the goroutine baseline. `-short` (the CI chaos-smoke) runs
// the same storm at reduced scale.
func TestChaosSurvival(t *testing.T) {
	nJobs := 160
	if testing.Short() {
		nJobs = 48
	}
	baseline := runtime.NumGoroutine()

	in := faultinject.New(chaosPlan())
	// eda.Run executes on the process-default farm, so the farm-layer
	// hook arms there — and MUST be cleared before the test returns.
	simfarm.Default().SetFaults(in)
	defer simfarm.Default().SetFaults(nil)
	farmBase := simfarm.Default().Stats()

	srv := edaserver.New(edaserver.Options{
		Workers:    4,
		QueueDepth: 64,
		Watchdog:   200 * time.Millisecond,
		Faults:     in,
	})
	ts := httptest.NewServer(srv)
	var transports []*http.Transport
	newChaosClient := func() *client.Client {
		tr := &http.Transport{}
		transports = append(transports, tr)
		return client.New(ts.URL,
			client.WithHTTPClient(&http.Client{Transport: tr}),
			client.WithPollInterval(5*time.Millisecond),
			client.WithRetry(3, 5*time.Millisecond),
			client.WithSSEReconnect(8))
	}
	clients := make([]*client.Client, 4)
	for i := range clients {
		clients[i] = newChaosClient()
	}
	defer func() {
		for _, tr := range transports {
			tr.CloseIdleConnections()
		}
	}()

	// Traffic shape, index-driven so the mix is deterministic: every
	// third submission is one of two hot specs (cache traffic), the rest
	// are cold uniques across three problems; every 7th job is cancelled
	// right after submission; every 5th gets a live SSE subscriber.
	problems := []string{"mux4", "adder4", "counter8"}
	trafficSpec := func(i int) eda.Spec {
		if i%3 == 0 {
			return eda.Spec{Framework: "vrank", Problem: "mux4",
				Run: eda.RunSpec{Seed: uint64(1 + i%2)}, Params: map[string]float64{"k": 2}}
		}
		return eda.Spec{Framework: "vrank", Problem: problems[i%len(problems)],
			Run: eda.RunSpec{Seed: uint64(1000 + i)}, Params: map[string]float64{"k": 2}}
	}

	ctx, cancelAll := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancelAll()

	var mu sync.Mutex
	var outcomes []chaosOutcome
	var rejected, streamsOK, streamsFailed atomic.Int64
	var wg, sseWG sync.WaitGroup
	const submitters = 16
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := clients[w%len(clients)]
			for i := w; i < nJobs; i += submitters {
				spec := trafficSpec(i)
				job, err := cl.Submit(ctx, spec)
				if err != nil {
					if client.IsQueueFull(err) {
						rejected.Add(1)
						continue
					}
					t.Errorf("job %d submit: %v", i, err)
					continue
				}
				if i%7 == 3 {
					if _, err := cl.Cancel(ctx, job.ID); err != nil {
						t.Errorf("job %d cancel: %v", i, err)
					}
				}
				if i%5 == 1 {
					sseWG.Add(1)
					go func(id string) {
						defer sseWG.Done()
						if _, err := cl.Events(ctx, id, eda.SinkFunc(func(eda.Event) {})); err != nil {
							streamsFailed.Add(1)
						} else {
							streamsOK.Add(1)
						}
					}(job.ID)
				}
				final, err := cl.Wait(ctx, job.ID)
				if err != nil {
					t.Errorf("job %d (%s) never reached a terminal state: %v", i, job.ID, err)
					continue
				}
				mu.Lock()
				outcomes = append(outcomes, chaosOutcome{
					key: fmt.Sprintf("%s/%s/%d/%v", spec.Framework, spec.Problem,
						spec.Run.Seed, spec.Params["k"]),
					state:  final.State,
					cached: final.Cached,
					report: final.Report,
				})
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	sseWG.Wait()

	// The process survived: the API still answers.
	st, err := clients[0].Stats(ctx)
	if err != nil {
		t.Fatalf("stats after the storm: %v", err)
	}
	t.Logf("chaos: %d accepted, %d rejected, faults fired: %s", len(outcomes), rejected.Load(), in)
	t.Logf("chaos: stats %+v", *st)
	t.Logf("chaos: sse streams ok=%d failed=%d", streamsOK.Load(), streamsFailed.Load())

	// Every accepted job is terminal.
	for _, o := range outcomes {
		switch o.state {
		case "done", "failed", "cancelled":
		default:
			t.Errorf("job with key %s left non-terminal: %q", o.key, o.state)
		}
	}
	if len(outcomes)+int(rejected.Load()) != nJobs {
		t.Errorf("accounted jobs %d + rejected %d != submitted %d",
			len(outcomes), rejected.Load(), nJobs)
	}

	// The injected faults actually landed, and the resilience counters
	// account for them.
	fired := in.Stats()
	classes := map[faultinject.Kind]bool{}
	for _, f := range chaosPlan().Faults {
		if fired[string(f.Point)+"/"+string(f.Kind)] > 0 {
			classes[f.Kind] = true
		}
	}
	if len(classes) < 4 {
		t.Errorf("only %d fault classes fired (%v); the storm was too gentle: %s", len(classes), classes, in)
	}
	if st.Panics < 1 {
		t.Error("no recovered pipeline panics in /v1/stats")
	}
	if st.WatchdogKills < 1 {
		t.Error("no watchdog kills in /v1/stats despite wedge faults")
	}
	if st.Retries < 1 {
		t.Error("no absorbed transient retries in /v1/stats despite error faults")
	}
	if st.StoreFails < 1 {
		t.Error("no store write failures in /v1/stats despite store faults")
	}
	if farmPanics := st.Farm.Panics - farmBase.Panics; farmPanics < 1 {
		t.Error("no recovered farm worker panics in /v1/stats")
	}
	if streamsOK.Load() == 0 {
		t.Error("no SSE subscriber survived the storm")
	}

	// Report-cache byte consistency: within one spec identity, every
	// cached reply must be byte-identical, and must match some run that
	// actually computed it (recomputes after a dropped store write embed
	// fresh timings, so "some", not "every").
	byKey := map[string][]chaosOutcome{}
	for _, o := range outcomes {
		if o.state == "done" {
			byKey[o.key] = append(byKey[o.key], o)
		}
	}
	for key, group := range byKey {
		var cached, computed [][]byte
		for _, o := range group {
			if o.cached {
				cached = append(cached, o.report)
			} else {
				computed = append(computed, o.report)
			}
		}
		if len(cached) > 0 {
			for _, c := range cached[1:] {
				if !bytes.Equal(c, cached[0]) {
					t.Errorf("%s: cached replies diverge", key)
				}
			}
			match := false
			for _, c := range computed {
				if bytes.Equal(c, cached[0]) {
					match = true
					break
				}
			}
			if !match {
				t.Errorf("%s: cached reply matches none of the %d computed reports", key, len(computed))
			}
		}
	}

	// Orderly end: drain, close, and the goroutine count comes home.
	sdCtx, sdCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer sdCancel()
	if err := srv.Shutdown(sdCtx); err != nil {
		t.Fatalf("Shutdown after the storm: %v", err)
	}
	ts.Close()
	for _, tr := range transports {
		tr.CloseIdleConnections()
	}
	testutil.CheckNoGoroutineLeak(t, baseline)
}

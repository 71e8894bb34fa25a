package edaserver_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llm4eda/eda"
	"llm4eda/eda/client"
	"llm4eda/internal/core"
	"llm4eda/internal/edaserver"
	"llm4eda/internal/faultinject"
)

// TestWorkerPanicIsolation: an injected panic inside the pipeline stack
// costs exactly one failed job — the panic value and a stack land in the
// job's error, the process and the worker survive, and the next job on
// the same worker runs clean.
func TestWorkerPanicIsolation(t *testing.T) {
	in := faultinject.New(faultinject.Plan{Faults: []faultinject.Fault{
		{Point: faultinject.PointServerJob, Kind: faultinject.KindPanic, Every: 1, Max: 1},
	}})
	h := newHarness(t, edaserver.Options{Workers: 1, Faults: in})
	ctx := context.Background()

	job, err := h.c.Submit(ctx, quickSpec(21))
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, h.c, job.ID, "failed")
	if !strings.Contains(final.Error, "panic") {
		t.Errorf("panicked job error = %q, want a panic detail", final.Error)
	}

	// The worker that recovered the panic is still serving.
	next, err := h.c.Submit(ctx, quickSpec(22))
	if err != nil {
		t.Fatal(err)
	}
	if done := waitState(t, h.c, next.ID, "done"); done.Error != "" {
		t.Errorf("post-panic job error: %s", done.Error)
	}
	st, err := h.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Panics != 1 || st.Failed != 1 || st.Completed != 1 {
		t.Errorf("stats panics=%d failed=%d completed=%d, want 1/1/1", st.Panics, st.Failed, st.Completed)
	}
}

// TestLeaderPanicFollowerCleanFailure: two concurrent submissions of the
// same spec run one at a time, in submission order. The leader's
// pipeline panics; the follower must neither hang nor inherit the panic —
// it runs on its own and completes clean. (The farm-level singleflight unwind contract this
// rides on is pinned in simfarm's own suite; this is the service-level
// proof.) Run under -race via make test-race.
func TestLeaderPanicFollowerCleanFailure(t *testing.T) {
	reg := eda.NewRegistry()
	var calls atomic.Int32
	if err := reg.Register(eda.Pipeline{
		Name: "once-explosive",
		Run: func(ctx context.Context, spec eda.Spec) (*eda.Report, error) {
			if calls.Add(1) == 1 {
				panic("leader detonated")
			}
			return &eda.Report{OK: true, Summary: "follower fine"}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, edaserver.Options{Workers: 2, Registry: reg})
	c2 := h.newClient(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	spec := eda.Spec{Framework: "once-explosive"}
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
			t.Fatalf("client %d hung or errored: %v", i, err)
		}
	}
	var panicked, clean int
	for _, job := range jobs {
		switch job.State {
		case "failed":
			panicked++
			if !strings.Contains(job.Error, "panic") || !strings.Contains(job.Error, "leader detonated") {
				t.Errorf("failed job error = %q, want the recovered panic", job.Error)
			}
		case "done":
			clean++
			if job.Error != "" {
				t.Errorf("clean job carries error %q", job.Error)
			}
		default:
			t.Errorf("job %s in non-terminal state %q", job.ID, job.State)
		}
	}
	if panicked != 1 || clean != 1 {
		t.Fatalf("panicked=%d clean=%d, want exactly one of each", panicked, clean)
	}
	st, err := h.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Panics != 1 {
		t.Errorf("stats panics = %d, want 1", st.Panics)
	}
}

// TestWatchdogKillsWedgedJob: a pipeline that goes silent past the
// staleness window is cancelled by the watchdog and finishes failed with
// the structured wedge detail — not "cancelled", nobody asked it to stop.
func TestWatchdogKillsWedgedJob(t *testing.T) {
	reg, _ := blockingRegistry(t) // never released: only the watchdog ends it
	h := newHarness(t, edaserver.Options{Workers: 1, Registry: reg, Watchdog: 80 * time.Millisecond})
	ctx := context.Background()

	job, err := h.c.Submit(ctx, eda.Spec{Framework: "block"})
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, h.c, job.ID, "failed")
	if !strings.Contains(final.Error, "watchdog") || !strings.Contains(final.Error, "wedged") {
		t.Errorf("wedged job error = %q, want the watchdog detail", final.Error)
	}
	st, err := h.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.WatchdogKills != 1 || st.Failed != 1 || st.Cancelled != 0 {
		t.Errorf("stats watchdog_kills=%d failed=%d cancelled=%d, want 1/1/0",
			st.WatchdogKills, st.Failed, st.Cancelled)
	}
}

// TestWatchdogSparesChattyJob: steady event emission resets the
// staleness clock, so a job that runs longer than the window but never
// goes quiet is left alone.
func TestWatchdogSparesChattyJob(t *testing.T) {
	reg := eda.NewRegistry()
	if err := reg.Register(eda.Pipeline{
		Name: "chatty",
		Run: func(ctx context.Context, spec eda.Spec) (*eda.Report, error) {
			for i := 0; i < 6; i++ {
				core.Emit(ctx, core.Event{Kind: core.EventNote, Framework: "chatty",
					Detail: fmt.Sprintf("beat %d", i)})
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-time.After(30 * time.Millisecond):
				}
			}
			return &eda.Report{OK: true, Summary: "kept talking"}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, edaserver.Options{Workers: 1, Registry: reg, Watchdog: 100 * time.Millisecond})

	job, err := h.c.Submit(context.Background(), eda.Spec{Framework: "chatty"})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitState(t, h.c, job.ID, "done"); final.Error != "" {
		t.Errorf("chatty job error: %s", final.Error)
	}
	st, err := h.c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.WatchdogKills != 0 {
		t.Errorf("watchdog killed a live job %d times", st.WatchdogKills)
	}
}

// TestUserCancelBeatsWatchdog: a client DELETE on a wedged job still
// finishes "cancelled" even when the watchdog is also closing in — the
// explicit request wins the race.
func TestUserCancelBeatsWatchdog(t *testing.T) {
	reg, _ := blockingRegistry(t)
	h := newHarness(t, edaserver.Options{Workers: 1, Registry: reg, Watchdog: 10 * time.Second})
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
	if strings.Contains(final.Error, "watchdog") {
		t.Errorf("user cancel relabelled as a watchdog kill: %q", final.Error)
	}
}

// TestSSEResumeAfterDisconnect: the injected SSE fault drops the stream
// mid-replay; the reconnecting client resumes via Last-Event-ID and
// still observes the identical event sequence a clean subscriber sees.
func TestSSEResumeAfterDisconnect(t *testing.T) {
	in := faultinject.New(faultinject.Plan{Faults: []faultinject.Fault{
		{Point: faultinject.PointServerSSE, Kind: faultinject.KindDrop, Every: 4, Max: 1},
	}})
	h := newHarness(t, edaserver.Options{Workers: 1, Faults: in})
	ctx := context.Background()

	job, err := h.c.Submit(ctx, quickSpec(31))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, h.c, job.ID, "done")

	collect := func() ([]eda.Event, *client.Job) {
		t.Helper()
		var mu sync.Mutex
		var evs []eda.Event
		final, err := h.c.Events(ctx, job.ID, eda.SinkFunc(func(ev eda.Event) {
			mu.Lock()
			evs = append(evs, ev)
			mu.Unlock()
		}))
		if err != nil {
			t.Fatalf("Events: %v", err)
		}
		return evs, final
	}
	// First subscription eats the drop fault and must reconnect-resume.
	faulted, final := collect()
	if final.State != "done" {
		t.Errorf("end frame state = %q", final.State)
	}
	if got := in.Stats()["server.sse/drop"]; got != 1 {
		t.Fatalf("sse drop fault fired %d times, want 1 (job emitted too few events?)", got)
	}
	// Second subscription is clean (Max exhausted): the ground truth.
	clean, _ := collect()
	if len(faulted) != len(clean) {
		t.Fatalf("resumed stream delivered %d events, clean stream %d", len(faulted), len(clean))
	}
	for i := range clean {
		if faulted[i].Kind != clean[i].Kind || faulted[i].Detail != clean[i].Detail {
			t.Errorf("event %d diverges across resume: %+v vs %+v", i, faulted[i], clean[i])
		}
	}
}

// TestSSEAfterQueryReplay: the `after` query parameter (the curl-side
// twin of Last-Event-ID) starts the replay just past the given sequence
// number.
func TestSSEAfterQueryReplay(t *testing.T) {
	h := newHarness(t, edaserver.Options{Workers: 1})
	ctx := context.Background()

	job, err := h.c.Submit(ctx, quickSpec(32))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, h.c, job.ID, "done")

	resp, err := http.Get(h.ts.URL + "/v1/jobs/" + job.ID + "/events?after=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ids []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "id:") {
			ids = append(ids, strings.TrimSpace(strings.TrimPrefix(sc.Text(), "id:")))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 || ids[0] != "3" {
		t.Errorf("replay after=2 starts at ids %v, want first id 3", ids)
	}
}

// TestDroppedEventsSurfaced: a replay ring smaller than the run's event
// count must evict — and the eviction count must be visible on the job
// status, in /v1/stats, and on the SSE end frame, with the replay
// holding exactly the retained tail.
func TestDroppedEventsSurfaced(t *testing.T) {
	const history = 4
	h := newHarness(t, edaserver.Options{Workers: 1, EventHistory: history})
	ctx := context.Background()

	job, err := h.c.Submit(ctx, quickSpec(41))
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, h.c, job.ID, "done")
	if final.EventsDropped == 0 {
		t.Fatalf("job status reports no dropped events despite history %d", history)
	}
	st, err := h.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.EventsDropped != final.EventsDropped {
		t.Errorf("stats events_dropped = %d, job reports %d", st.EventsDropped, final.EventsDropped)
	}
	var n atomic.Int64
	endFrame, err := h.c.Events(ctx, job.ID, eda.SinkFunc(func(eda.Event) { n.Add(1) }))
	if err != nil {
		t.Fatal(err)
	}
	if n.Load() != history {
		t.Errorf("late subscriber replayed %d events, want the retained %d", n.Load(), history)
	}
	if endFrame.EventsDropped != final.EventsDropped {
		t.Errorf("end frame events_dropped = %d, want %d", endFrame.EventsDropped, final.EventsDropped)
	}
}

// parkedWriter is an SSE response writer whose first Write blocks until
// release closes: a subscriber stalled on a slow connection.
type parkedWriter struct {
	*httptest.ResponseRecorder
	once    sync.Once
	parked  chan struct{}
	release chan struct{}
}

func (w *parkedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.parked)
		<-w.release
	})
	return w.ResponseRecorder.Write(p)
}

// TestSlowSubscriberGetsEveryEvent: a subscriber whose connection stalls
// while the job emits 1,000 events still receives every one of them, in
// order, once it drains. Nothing was evicted from the replay ring, so
// nothing may be missing and events_dropped stays 0.
func TestSlowSubscriberGetsEveryEvent(t *testing.T) {
	const burst = 1000
	reg := eda.NewRegistry()
	gate := make(chan struct{})
	if err := reg.Register(eda.Pipeline{
		Name: "burst",
		Run: func(ctx context.Context, spec eda.Spec) (*eda.Report, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			for i := range burst {
				core.Emit(ctx, core.Event{Kind: core.EventNote, Framework: "burst", Detail: fmt.Sprintf("burst %d", i)})
			}
			return &eda.Report{OK: true, Summary: "burst done"}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, edaserver.Options{Workers: 1, Registry: reg})
	job, err := h.c.Submit(context.Background(), eda.Spec{Framework: "burst"})
	if err != nil {
		t.Fatal(err)
	}
	w := &parkedWriter{ResponseRecorder: httptest.NewRecorder(),
		parked: make(chan struct{}), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		h.srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+job.ID+"/events", nil))
	}()
	<-w.parked
	close(gate)
	waitState(t, h.c, job.ID, "done")
	close(w.release)
	<-served

	body := w.Body.String()
	var got []string
	for _, frame := range strings.Split(body, "\n\n") {
		_, data, ok := strings.Cut(frame, "event: note\ndata: ")
		var ev eda.Event
		if !ok {
			continue
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("note frame %q: %v", frame, err)
		}
		if strings.HasPrefix(ev.Detail, "burst ") {
			got = append(got, ev.Detail)
		}
	}
	if len(got) != burst {
		t.Fatalf("slow subscriber got %d of %d burst events", len(got), burst)
	}
	for i, d := range got {
		if want := fmt.Sprintf("burst %d", i); d != want {
			t.Fatalf("burst event %d is %q, want %q", i, d, want)
		}
	}
	if strings.Contains(body, "evicted") || strings.Contains(body, "events_dropped") {
		t.Errorf("stream reports evicted events: %s", body[strings.LastIndex(body, "event: end"):])
	}
	if !strings.Contains(body, "event: end\ndata: {") {
		t.Error("stream has no end frame")
	}
}

// TestStoreWriteFaultRecompute: a dropped report-store write costs one
// recomputation, never a wrong answer — the resubmission runs fresh,
// and once the store write goes through, the third submission is served
// from cache again.
func TestStoreWriteFaultRecompute(t *testing.T) {
	in := faultinject.New(faultinject.Plan{Faults: []faultinject.Fault{
		{Point: faultinject.PointServerStore, Kind: faultinject.KindDrop, Every: 1, Max: 1},
	}})
	h := newHarness(t, edaserver.Options{Workers: 1, Faults: in})
	ctx := context.Background()

	first, err := h.c.Submit(ctx, quickSpec(51))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, h.c, first.ID, "done")

	second, err := h.c.Submit(ctx, quickSpec(51))
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached {
		t.Fatal("second submission served from a store whose write was dropped")
	}
	waitState(t, h.c, second.ID, "done")

	third, err := h.c.Submit(ctx, quickSpec(51))
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached || third.State != "done" {
		t.Errorf("third submission cached=%v state=%q, want immediate cached done", third.Cached, third.State)
	}
	st, err := h.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.StoreFails != 1 {
		t.Errorf("stats store_fails = %d, want 1", st.StoreFails)
	}
	if st.Completed != 3 {
		t.Errorf("completed = %d, want 3", st.Completed)
	}
}

package simfarm

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"llm4eda/internal/testutil"
	"llm4eda/internal/verilog"
)

// goroutineGuard is the shared leak check: every cancellation path must
// return the goroutine count to its starting level.
func goroutineGuard(t *testing.T) {
	t.Helper()
	testutil.GoroutineGuard(t)
}

func TestMapCtxMatchesMapWhenUncancelled(t *testing.T) {
	goroutineGuard(t)
	a := make([]int, 64)
	b := make([]int, 64)
	Map(len(a), 4, func(i int) { a[i] = i * i })
	if err := MapCtx(context.Background(), len(b), 4, func(i int) { b[i] = i * i }); err != nil {
		t.Fatalf("MapCtx: %v", err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("slot %d: Map %d vs MapCtx %d", i, a[i], b[i])
		}
	}
}

// TestMapCtxCancelReturnsWithinOneJob is the core cancellation contract:
// once ctx is cancelled, no new fn calls start, in-flight calls finish,
// and MapCtx returns ctx.Err() within roughly one job's runtime.
func TestMapCtxCancelReturnsWithinOneJob(t *testing.T) {
	goroutineGuard(t)
	const n, workers = 256, 4
	const jobTime = 30 * time.Millisecond

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int32
	firstStarted := make(chan struct{})
	var once atomic.Bool

	done := make(chan error, 1)
	go func() {
		done <- MapCtx(ctx, n, workers, func(i int) {
			calls.Add(1)
			if once.CompareAndSwap(false, true) {
				close(firstStarted)
			}
			time.Sleep(jobTime) // the slow job
		})
	}()

	<-firstStarted
	cancelAt := time.Now()
	cancel()

	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("MapCtx returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("MapCtx did not return after cancellation")
	}
	sinceCancel := time.Since(cancelAt)
	// In-flight jobs (at most `workers`, running concurrently) may finish;
	// nothing new starts. Allow generous scheduler slack.
	if limit := 3*jobTime + 2*time.Second; sinceCancel > limit {
		t.Errorf("returned %v after cancel, want < %v", sinceCancel, limit)
	}
	// Only a small prefix ran: the started jobs plus at most one dispatch
	// per worker that raced the cancellation.
	if got := calls.Load(); got > workers*3 {
		t.Errorf("%d of %d jobs ran after early cancel", got, n)
	}
}

// slowJobs builds a batch whose every job simulates a long testbench
// loop; sources are unique per job so the result cache cannot collapse
// the batch.
func slowJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		dut := fmt.Sprintf("module d%d(output [31:0] y); assign y = %d; endmodule", i, i)
		tb := fmt.Sprintf(`module tb;
  integer i;
  integer acc;
  initial begin
    acc = %d;
    for (i = 0; i < 300000; i = i + 1) acc = acc + i;
    $finish;
  end
endmodule`, i)
		jobs[i] = Job{DUT: dut, TB: tb, Top: "tb", Opts: verilog.SimOptions{}}
	}
	return jobs
}

// TestRunManyCtxCancelMidBatch cancels a farm batch with slow simulation
// jobs mid-flight and asserts the prompt-return contract plus ctx.Err()
// propagation into the unstarted slots.
func TestRunManyCtxCancelMidBatch(t *testing.T) {
	goroutineGuard(t)
	farm := New()
	jobs := slowJobs(64)

	// Calibrate one job so the timing bound adapts to the machine.
	calStart := time.Now()
	if _, err := farm.RunTestbench(jobs[0].DUT, jobs[0].TB, "tb", jobs[0].Opts); err != nil {
		t.Fatalf("calibration job failed: %v", err)
	}
	jobTime := time.Since(calStart)
	farm.Purge() // forget the calibration result so job 0 re-runs

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(jobTime / 2) // land mid-batch
		cancel()
	}()

	start := time.Now()
	results, err := farm.RunManyCtx(ctx, jobs, 2)
	elapsed := time.Since(start)

	if err != context.Canceled {
		t.Fatalf("RunManyCtx returned %v, want context.Canceled", err)
	}
	// Prompt return: in-flight jobs finish, nothing new starts. Bound by
	// a few job times plus slack rather than the 64-job serial runtime.
	if limit := 6*jobTime + 2*time.Second; elapsed > limit {
		t.Errorf("batch returned after %v (job time %v), want < %v", elapsed, jobTime, limit)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	completed, cancelled := 0, 0
	for _, r := range results {
		switch {
		case r.Err == context.Canceled:
			cancelled++
		case r.Err == nil && r.Res != nil:
			completed++
		default:
			t.Errorf("unexpected result state: %+v", r)
		}
	}
	if cancelled == 0 {
		t.Error("no job carries the cancellation error")
	}
	if completed == len(jobs) {
		t.Error("every job completed despite mid-batch cancel")
	}
	t.Logf("job time %v: %d completed, %d cancelled", jobTime, completed, cancelled)
}

// TestRunManyCtxPreCancelled: an already-dead context does no simulation
// work at all.
func TestRunManyCtxPreCancelled(t *testing.T) {
	goroutineGuard(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	farm := New()
	results, err := farm.RunManyCtx(ctx, slowJobs(8), 4)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range results {
		if r.Err != context.Canceled || r.Res != nil {
			t.Errorf("job %d ran under a dead context: %+v", i, r)
		}
	}
	if stats := farm.Stats(); stats.Results.Misses != 0 {
		t.Errorf("result cache saw traffic under a dead context: %+v", stats.Results)
	}
}

func TestMapCtxSerialPathChecksContext(t *testing.T) {
	goroutineGuard(t)
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := MapCtx(ctx, 100, 1, func(i int) {
		calls++
		if calls == 3 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if calls != 3 {
		t.Errorf("serial path ran %d calls after cancel at 3", calls)
	}
}

func TestEmitStatsDelta(t *testing.T) {
	farm := New()
	tb := "module tb; initial $finish; endmodule"
	dut := "module d(output y); assign y = 1'b0; endmodule"
	if _, err := farm.RunTestbench(dut, tb, "tb", verilog.SimOptions{}); err != nil {
		t.Fatalf("RunTestbench: %v", err)
	}
	before := farm.Stats()
	// A second identical run is pure cache hits.
	if _, err := farm.RunTestbench(dut, tb, "tb", verilog.SimOptions{}); err != nil {
		t.Fatalf("RunTestbench: %v", err)
	}
	delta := farm.Stats().Delta(before)
	if delta.Results.Hits != 1 || delta.Results.Misses != 0 {
		t.Errorf("result delta = %+v, want exactly one hit", delta.Results)
	}
	if delta.Parses.Misses != 0 || delta.Designs.Misses != 0 {
		t.Errorf("warm rerun missed: %+v", delta)
	}
}

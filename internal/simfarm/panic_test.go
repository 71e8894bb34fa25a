package simfarm

import (
	"context"
	"errors"
	"testing"

	"llm4eda/internal/core"
	"llm4eda/internal/faultinject"
	"llm4eda/internal/verilog"
)

// TestFarmJobPanicRecovered: a panic inside one farm job becomes that
// job's Result.Err (a *core.PanicError carrying the stack) and bumps
// FarmStats.Panics; the batch, the pool and the process all survive,
// and the next identical job runs clean — nothing the panicking run
// touched was cached.
func TestFarmJobPanicRecovered(t *testing.T) {
	goroutineGuard(t)
	farm := New()
	farm.SetFaults(faultinject.New(faultinject.Plan{Faults: []faultinject.Fault{
		{Point: faultinject.PointFarmJob, Kind: faultinject.KindPanic, Every: 1, Max: 1},
	}}))
	defer farm.SetFaults(nil)

	job := Job{
		DUT:  "module d(output y); assign y = 1'b0; endmodule",
		TB:   "module tb; initial $finish; endmodule",
		Top:  "tb",
		Opts: verilog.SimOptions{},
	}
	results := farm.RunMany([]Job{job, job}, 1)

	var pe *core.PanicError
	if !errors.As(results[0].Err, &pe) {
		t.Fatalf("job 0 err = %v (%T), want *core.PanicError", results[0].Err, results[0].Err)
	}
	if len(pe.Stack) == 0 {
		t.Error("recovered PanicError carries no stack")
	}
	if _, ok := pe.Val.(*faultinject.Panic); !ok {
		t.Errorf("panic value = %T, want *faultinject.Panic", pe.Val)
	}
	if results[1].Err != nil || results[1].Res == nil {
		t.Fatalf("job 1 after recovered panic: err=%v res=%v, want clean run", results[1].Err, results[1].Res)
	}
	if got := farm.Stats().Panics; got != 1 {
		t.Errorf("FarmStats.Panics = %d, want 1", got)
	}
}

// TestMapCtxPanicBackstop: a panicking fn on the generic pool surfaces
// as MapCtx's error instead of crashing, and the remaining indices
// still run — the backstop for non-farm scoring loops (SLT, GP).
func TestMapCtxPanicBackstop(t *testing.T) {
	goroutineGuard(t)
	for _, workers := range []int{1, 4} {
		visited := make([]bool, 16)
		err := MapCtx(context.Background(), len(visited), workers, func(i int) {
			visited[i] = true
			if i == 3 {
				panic("boom")
			}
		})
		var pe *core.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v (%T), want *core.PanicError", workers, err, err)
		}
		if pe.Val != "boom" {
			t.Errorf("workers=%d: panic value = %v", workers, pe.Val)
		}
		for i, v := range visited {
			if !v {
				t.Errorf("workers=%d: index %d skipped after recovered panic", workers, i)
			}
		}
	}
}

// TestMapCtxCancelBeatsPanic: when the context is cancelled, MapCtx
// still reports ctx.Err() even if some fn panicked — cancellation is
// the caller's signal and keeps the established contract.
func TestMapCtxCancelBeatsPanic(t *testing.T) {
	goroutineGuard(t)
	ctx, cancel := context.WithCancel(context.Background())
	err := MapCtx(ctx, 100, 1, func(i int) {
		if i == 2 {
			cancel()
			panic("boom")
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

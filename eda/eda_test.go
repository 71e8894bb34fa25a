package eda_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"llm4eda/eda"
	"llm4eda/internal/autochip"
	"llm4eda/internal/core"
	"llm4eda/internal/slt"
)

// quickSpecs returns one minimal-budget spec per registered framework —
// the acceptance matrix proving all nine are invocable through the
// front door.
func quickSpecs() map[string]eda.Spec {
	return map[string]eda.Spec{
		"agent": {Framework: "agent", Problem: "adder4"},
		"autochip": {Framework: "autochip", Problem: "and4",
			Params: map[string]float64{"k": 2, "depth": 2}},
		"vrank": {Framework: "vrank", Problem: "mux4",
			Params: map[string]float64{"k": 3}},
		"crosscheck": {Framework: "crosscheck", Problem: "adder4",
			Params: map[string]float64{"vectors": 8}},
		"xdebug": {Framework: "xdebug", Problem: "mux2",
			Params: map[string]float64{"vectors": 8, "rounds": 4}},
		"lint": {Framework: "lint", Problem: "alu8",
			Params: map[string]float64{"rounds": 6}},
		"repair": {Framework: "repair"},
		"hlstest": {Framework: "hlstest",
			Params: map[string]float64{"budget": 10}},
		"slt": {Framework: "slt", Run: eda.RunSpec{Tier: "large"},
			Params: map[string]float64{"evals": 4}},
		"gp": {Framework: "gp",
			Params: map[string]float64{"evals": 12, "population": 8}},
	}
}

// TestEveryFrameworkInvocable drives all ten frameworks through
// eda.Run and asserts the uniform contract: a report with a summary and
// metrics, and an event stream bracketed by run-start/run-end.
func TestEveryFrameworkInvocable(t *testing.T) {
	specs := quickSpecs()
	if got, want := len(specs), len(eda.Frameworks()); got != want {
		t.Fatalf("spec matrix covers %d frameworks, registry has %d (%v)",
			got, want, eda.Frameworks())
	}
	for _, fw := range eda.Frameworks() {
		fw := fw
		t.Run(fw, func(t *testing.T) {
			spec, ok := specs[fw]
			if !ok {
				t.Fatalf("no quick spec for %q", fw)
			}
			sink := eda.NewCountingSink()
			report, err := eda.Run(context.Background(), spec, eda.WithSink(sink))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if report == nil {
				t.Fatal("nil report")
			}
			if report.Framework != fw {
				t.Errorf("report.Framework = %q", report.Framework)
			}
			if report.Summary == "" {
				t.Error("empty summary")
			}
			if len(report.Metrics) == 0 {
				t.Error("no metrics")
			}
			if report.Detail == nil {
				t.Error("no native detail")
			}
			if report.Spec.Run.Seed == 0 || report.Spec.Run.Tier == "" {
				t.Errorf("defaults not filled: %+v", report.Spec.Run)
			}
			if n := sink.Count(eda.EventRunStart); n != 1 {
				t.Errorf("run-start events = %d", n)
			}
			if n := sink.Count(eda.EventRunEnd); n != 1 {
				t.Errorf("run-end events = %d", n)
			}
			if !strings.Contains(report.Render(), fw) {
				t.Errorf("render lacks framework name: %s", report.Render())
			}
		})
	}
}

// TestNoStateCarriesAcrossRuns runs every framework's quick spec twice
// in a row, all frameworks at once so that their runs interleave, and
// requires each second report to encode exactly like the first. Runs
// share the benchmark suite, the default correction library and the lint
// mutant memo: a run that edited any of them would change the next
// run's report, and under make test-race the concurrent frameworks also
// check the sharing for races. Wall times (the run's and each agent
// stage's) are the only part of a report that does not follow from its
// spec, and are cleared before comparing.
func TestNoStateCarriesAcrossRuns(t *testing.T) {
	specs := quickSpecs()
	var wg sync.WaitGroup
	for _, fw := range eda.Frameworks() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first []byte
			for run := 1; run <= 2; run++ {
				report, err := eda.Run(context.Background(), specs[fw])
				if err != nil {
					t.Errorf("%s run %d: %v", fw, run, err)
					return
				}
				report.Elapsed = 0
				if flows, ok := report.Detail.([]*core.Report); ok {
					for _, f := range flows {
						for j := range f.Stages {
							f.Stages[j].Duration = 0
						}
					}
				}
				b, err := report.JSON()
				if err != nil {
					t.Errorf("%s run %d: %v", fw, run, err)
					return
				}
				if first != nil && !bytes.Equal(b, first) {
					t.Errorf("%s: the second run's report differs from the first:\n%s\n%s", fw, first, b)
				}
				first = b
			}
		}()
	}
	wg.Wait()
}

// TestFrameworkEventsFlow asserts the framework-level stream reaches the
// front-door sink: an autochip run must emit phases, candidates and LLM
// calls, and the counts must line up with the native result.
func TestFrameworkEventsFlow(t *testing.T) {
	sink := eda.NewCountingSink()
	report, err := eda.Run(context.Background(), eda.Spec{
		Framework: "autochip", Problem: "and4",
		Params: map[string]float64{"k": 2, "depth": 3},
	}, eda.WithSink(sink))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	res := report.Detail.([]*autochip.Result)[0]
	if n := sink.Count(eda.EventLLMCall); n != res.TotalCandidates {
		t.Errorf("llm-call events = %d, candidates = %d", n, res.TotalCandidates)
	}
	if n := sink.Count(eda.EventCandidate); n != res.TotalCandidates {
		t.Errorf("candidate events = %d, candidates = %d", n, res.TotalCandidates)
	}
	if sink.Count(eda.EventPhaseStart) != res.Rounds {
		t.Errorf("phase-start events = %d, rounds = %d",
			sink.Count(eda.EventPhaseStart), res.Rounds)
	}
}

func TestValidation(t *testing.T) {
	cases := []struct {
		name string
		spec eda.Spec
		want string
	}{
		{"empty", eda.Spec{}, "Framework is required"},
		{"unknown framework", eda.Spec{Framework: "nope"}, "unknown framework"},
		{"unknown param", eda.Spec{Framework: "slt", Params: map[string]float64{"bogus": 1}}, "does not take param"},
		{"bad tier", eda.Spec{Framework: "slt", Run: eda.RunSpec{Tier: "gpt9"}}, "unknown tier"},
		{"negative workers", eda.Spec{Framework: "slt", Run: eda.RunSpec{Workers: -1}}, "Workers"},
		{"negative deadline", eda.Spec{Framework: "slt", Run: eda.RunSpec{Deadline: -time.Second}}, "Deadline"},
		{"unknown problem", eda.Spec{Framework: "autochip", Problem: "nope"}, "unknown problem"},
		{"kernel without source", eda.Spec{Framework: "repair", Kernel: "f"}, "Source is required"},
		{"source without kernel", eda.Spec{Framework: "hlstest", Source: "int f() { return 0; }"}, "Kernel must name"},
		{"problem on slt", eda.Spec{Framework: "slt", Problem: "adder4"}, "does not take a Problem"},
		{"problem on repair", eda.Spec{Framework: "repair", Problem: "adder4"}, "not a Problem"},
		{"kernel payload on autochip", eda.Spec{Framework: "autochip", Problem: "and4",
			Source: "int f() { return 0; }", Kernel: "f"}, "not Source/Kernel/Vectors"},
		{"vectors without source on repair", eda.Spec{Framework: "repair",
			Vectors: [][]int64{{5}}}, "Vectors require Source"},
		{"oversized source", eda.Spec{Framework: "hlstest", Kernel: "f",
			Source: strings.Repeat(" ", 256<<10+1)}, "over the 262144-byte limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := eda.Run(context.Background(), tc.spec)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestDeadlineCancelsLongLoop is the front-door cancellation proof: an
// over-budget SLT loop under a tight deadline must stop promptly — well
// before its thousands of evaluations could finish — and surface
// context.DeadlineExceeded, with the partial result still attached.
func TestDeadlineCancelsLongLoop(t *testing.T) {
	start := time.Now()
	report, err := eda.Run(context.Background(), eda.Spec{
		Framework: "slt",
		Params:    map[string]float64{"evals": 100000},
	}, eda.WithTimeout(300*time.Millisecond))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("run returned after %v despite 300ms deadline", elapsed)
	}
	if report == nil {
		t.Fatal("no partial report on cancellation")
	}
	res := report.Detail.(*slt.Result)
	if res.Evals >= 100000 {
		t.Errorf("loop ran to completion: %d evals", res.Evals)
	}
}

// TestExplicitCancelMidRun cancels an in-flight agent sweep and asserts
// prompt ctx.Err() propagation. The cancel fires synchronously from the
// event sink on the first event — events are emitted inline from the run,
// so the context is guaranteed canceled while the sweep still has work
// left (racing an async cancel against the sweep went flaky once the
// kernel overhaul made the whole sweep finish in tens of milliseconds).
func TestExplicitCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	sink := eda.SinkFunc(func(ev eda.Event) {
		once.Do(cancel) // first event: the run is in flight
	})
	done := make(chan error, 1)
	go func() {
		_, err := eda.Run(ctx, eda.Spec{Framework: "agent"}, eda.WithSink(sink))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}

func TestRegistry(t *testing.T) {
	reg := eda.NewRegistry()
	run := func(ctx context.Context, spec eda.Spec) (*eda.Report, error) {
		return &eda.Report{OK: true, Summary: "custom"}, nil
	}
	if err := reg.Register(eda.Pipeline{Name: "custom", Run: run}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := reg.Register(eda.Pipeline{Name: "custom", Run: run}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := reg.Register(eda.Pipeline{Name: "", Run: run}); err == nil {
		t.Error("empty name accepted")
	}
	if err := reg.Register(eda.Pipeline{Name: "norun"}); err == nil {
		t.Error("nil Run accepted")
	}
	if _, ok := reg.Lookup("custom"); !ok {
		t.Error("lookup failed")
	}
	report, err := eda.Run(context.Background(), eda.Spec{Framework: "custom"},
		eda.WithRegistry(reg))
	if err != nil || !report.OK {
		t.Errorf("custom pipeline run: %v %+v", err, report)
	}

	// The default registry holds exactly the ten paper frameworks.
	want := []string{"agent", "autochip", "crosscheck", "gp", "hlstest", "lint", "repair", "slt", "vrank", "xdebug"}
	got := eda.Frameworks()
	if len(got) != len(want) {
		t.Fatalf("Frameworks() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Frameworks()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestDeterministicAcrossWorkerCounts pins the engine guarantee at the
// API layer: the same spec at workers=1 and workers=8 yields identical
// metrics.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	spec := eda.Spec{Framework: "vrank", Problem: "alu8",
		Run:    eda.RunSpec{Tier: "medium", Seed: 5},
		Params: map[string]float64{"k": 5}}
	a, err := eda.Run(context.Background(), spec, eda.WithWorkers(1))
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	b, err := eda.Run(context.Background(), spec, eda.WithWorkers(8))
	if err != nil {
		t.Fatalf("workers=8: %v", err)
	}
	for k, v := range a.Metrics {
		if b.Metrics[k] != v {
			t.Errorf("metric %s: %g (1 worker) vs %g (8 workers)", k, v, b.Metrics[k])
		}
	}
}

// TestSLTDefaultTierIsLarge pins the pipeline-level tier default: the
// §V loop is the paper's GPT-4-class setup, so an unspecified tier must
// resolve to "large" (not the global "frontier" default), matching the
// pre-redesign CLI behavior.
func TestSLTDefaultTierIsLarge(t *testing.T) {
	report, err := eda.Run(context.Background(), eda.Spec{
		Framework: "slt", Params: map[string]float64{"evals": 2},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if report.Spec.Run.Tier != "large" {
		t.Errorf("slt default tier = %q, want large", report.Spec.Run.Tier)
	}
	// An explicit tier still wins.
	report, err = eda.Run(context.Background(), eda.Spec{
		Framework: "slt", Run: eda.RunSpec{Tier: "small"},
		Params: map[string]float64{"evals": 2},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if report.Spec.Run.Tier != "small" {
		t.Errorf("explicit tier clobbered: %q", report.Spec.Run.Tier)
	}
}

// TestRepairPartialReportOnCancel: sweep pipelines honor the documented
// contract of returning the partial Report alongside the cancellation
// error.
func TestRepairPartialReportOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	report, err := eda.Run(ctx, eda.Spec{Framework: "repair"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if report == nil {
		t.Fatal("no partial report on cancellation")
	}
	if report.Metrics["total"] == 0 {
		t.Errorf("partial report lost its metrics: %+v", report.Metrics)
	}
}

// TestRepairRejectsDeeplyNestedSource: a repair Source nested past the
// C parser's depth cap passes validation and then fails the run with a
// parse error, rather than overflowing the stack in the parser.
func TestRepairRejectsDeeplyNestedSource(t *testing.T) {
	const n = 100_000
	spec := eda.Spec{Framework: "repair", Kernel: "f", Vectors: [][]int64{{1}},
		Source: "int f(int a) { return " + strings.Repeat("(", n) + "a" + strings.Repeat(")", n) + "; }"}
	if err := spec.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	_, err := eda.Run(context.Background(), spec)
	if err == nil || !strings.Contains(err.Error(), "nesting deeper") {
		t.Fatalf("err = %v, want a nesting parse error", err)
	}
}

// TestPreCancelledLoopsDoNoScoring: the slt seed pool and the gp initial
// population — the batch work before each main loop — must also respect
// a context that is dead on arrival, and a cancelled run must never
// render as OK.
func TestPreCancelledLoopsDoNoScoring(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, fw := range []string{"slt", "gp"} {
		report, err := eda.Run(ctx, eda.Spec{Framework: fw})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", fw, err)
		}
		if report == nil {
			t.Errorf("%s: no partial report", fw)
			continue
		}
		if report.OK {
			t.Errorf("%s: cancelled run reported OK", fw)
		}
		if report.Metrics["evals"] != 0 {
			t.Errorf("%s: %g evals ran under a dead context", fw, report.Metrics["evals"])
		}
	}
}

// TestRunSpecDefaults covers the shared envelope helpers directly.
func TestRunSpecDefaults(t *testing.T) {
	s := core.RunSpec{}.WithDefaults()
	if s.Seed != 1 || s.Tier != "frontier" {
		t.Errorf("defaults = %+v", s)
	}
	if err := (core.RunSpec{Tier: "large"}).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestTierCaseInsensitive pins the CLI's historical behavior: mixed-case
// tier names normalize rather than fail.
func TestTierCaseInsensitive(t *testing.T) {
	report, err := eda.Run(context.Background(), eda.Spec{
		Framework: "autochip", Problem: "and4",
		Run:    eda.RunSpec{Tier: "Frontier"},
		Params: map[string]float64{"k": 2, "depth": 1},
	})
	if err != nil {
		t.Fatalf("mixed-case tier rejected: %v", err)
	}
	if report.Spec.Run.Tier != "frontier" {
		t.Errorf("tier not normalized: %q", report.Spec.Run.Tier)
	}
}

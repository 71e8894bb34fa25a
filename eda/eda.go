// Package eda is the single front door to every LLM-for-EDA framework in
// the reproduction (the paper's Fig. 6 vision of one intelligent agent
// orchestrating all capabilities). Instead of nine bespoke entry points,
// callers describe what to run as an eda.Spec — a framework name, an
// optional problem/kernel payload and a shared core.RunSpec execution
// envelope — and call
//
//	report, err := eda.Run(ctx, spec, eda.WithSink(sink))
//
// Run resolves the framework in the Registry, derives a deadline from the
// spec, streams progress events (phases, scored candidates, LLM calls)
// to the sink, and returns a uniform Report with the framework-native
// result attached as Detail. Cancellation propagates end to end: the
// long framework loops check ctx between rounds and the simfarm worker
// pool aborts a batch within one simulation.
//
// The package is the substrate any serve/queue/sharding layer builds on:
// a Spec is serializable work, a Report is a serializable outcome, and
// the event stream is the progress channel between them.
package eda

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"llm4eda/internal/core"
	"llm4eda/internal/obs"
)

// RunSpec is the shared execution envelope (seed, tier, workers,
// deadline) embedded in every framework's options; re-exported so
// front-door callers need only this package.
type RunSpec = core.RunSpec

// Spec describes one front-door run: which framework, on what payload,
// under which execution envelope. Exactly the fields a framework needs
// must be set; Validate rejects the rest. The json tags fix the wire form
// the edaserver service accepts at POST /v1/jobs.
type Spec struct {
	// Framework names the registered pipeline: one of Frameworks().
	Framework string `json:"framework"`
	// Run is the shared execution envelope. Zero values select defaults
	// (seed 1, frontier tier, GOMAXPROCS workers, no deadline).
	Run RunSpec `json:"run"`
	// Problem names a benchmark problem for the Verilog-generation
	// frameworks (autochip, vrank, crosscheck, agent). Empty selects the
	// framework's default sweep.
	Problem string `json:"problem,omitempty"`
	// Source is the C payload for the HLS frameworks (repair, hlstest),
	// at most 256 KiB. Empty selects the framework's default benchmark
	// sweep.
	Source string `json:"source,omitempty"`
	// Kernel names the function to synthesize when Source is set.
	Kernel string `json:"kernel,omitempty"`
	// Vectors are equivalence/seed input vectors for repair and hlstest.
	Vectors [][]int64 `json:"vectors,omitempty"`
	// Params carries framework-specific numeric knobs (k, depth, evals,
	// temperature, ...). Unknown keys are rejected by Validate.
	Params map[string]float64 `json:"params,omitempty"`
}

// Param returns the named knob or def when unset.
func (s Spec) Param(name string, def float64) float64 {
	if v, ok := s.Params[name]; ok {
		return v
	}
	return def
}

// Validate checks the spec against the default registry: the framework
// must be registered, the envelope must be executable, every param key
// must be known to the pipeline, and the pipeline's own payload checks
// must pass.
func (s Spec) Validate() error {
	return s.ValidateIn(DefaultRegistry())
}

// ValidateIn is Validate against an explicit registry — the check the
// edaserver front end runs before a spec is allowed onto the job queue.
func (s Spec) ValidateIn(reg *Registry) error {
	if s.Framework == "" {
		return fmt.Errorf("eda: Spec.Framework is required (one of %s)", strings.Join(reg.Names(), ", "))
	}
	p, ok := reg.Lookup(s.Framework)
	if !ok {
		return fmt.Errorf("eda: unknown framework %q (one of %s)", s.Framework, strings.Join(reg.Names(), ", "))
	}
	if err := s.Run.Validate(); err != nil {
		return err
	}
	for key := range s.Params {
		known := false
		for _, k := range p.Params {
			if key == k {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("eda: framework %q does not take param %q (known: %s)",
				s.Framework, key, strings.Join(p.Params, ", "))
		}
	}
	if p.Check != nil {
		if err := p.Check(s); err != nil {
			return err
		}
	}
	return nil
}

// Report is the uniform outcome of one front-door run.
type Report struct {
	// Framework echoes the resolved pipeline name.
	Framework string
	// Spec echoes the (default-filled) spec that ran.
	Spec Spec
	// OK is the pipeline's headline success bit (all problems solved, all
	// kernels repaired, ...).
	OK bool
	// Summary is a one-line human-readable outcome.
	Summary string
	// Metrics are the run's headline numbers (solved, total, best_watts,
	// tokens_out, ...), render-sorted by key.
	Metrics map[string]float64
	// Detail is the framework-native result (*autochip.Result,
	// []*core.Report, ...) for callers that need more than the envelope.
	Detail any
	// Elapsed is the wall clock of the pipeline run.
	Elapsed time.Duration
}

// Metric records one headline number, allocating the map on first use.
func (r *Report) Metric(key string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[key] = v
}

// Render formats the report for CLI output: status, summary, then the
// metrics in sorted order.
func (r *Report) Render() string {
	var b strings.Builder
	status := "ok"
	if !r.OK {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "%s %s: %s\n", r.Framework, status, r.Summary)
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-18s %g\n", k, r.Metrics[k])
	}
	return b.String()
}

// Option adjusts one Run call.
type Option func(*runOptions)

type runOptions struct {
	sink     Sink
	workers  int
	timeout  time.Duration
	registry *Registry
}

// WithSink streams the run's events to sink (phases, candidates, LLM
// calls). The sink must tolerate concurrent Emit calls.
func WithSink(sink Sink) Option {
	return func(o *runOptions) { o.sink = sink }
}

// WithWorkers overrides the spec's worker bound.
func WithWorkers(n int) Option {
	return func(o *runOptions) { o.workers = n }
}

// WithTimeout bounds the run's wall clock, tightening any spec deadline.
func WithTimeout(d time.Duration) Option {
	return func(o *runOptions) { o.timeout = d }
}

// WithRegistry resolves the framework in reg instead of the default
// registry (for tests and embedders with custom pipelines).
func WithRegistry(reg *Registry) Option {
	return func(o *runOptions) { o.registry = reg }
}

// Run executes one spec through its registered pipeline: validate, fill
// defaults, derive the deadline, attach the event sink to the context,
// run, and wrap the outcome in a Report. The returned error is either a
// validation error, a pipeline failure, or the context's cancellation
// error; on cancellation the partial Report (when the pipeline produced
// one) is returned alongside it.
func Run(ctx context.Context, spec Spec, opts ...Option) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	reg := o.registry
	if reg == nil {
		reg = DefaultRegistry()
	}
	if o.workers != 0 {
		spec.Run.Workers = o.workers
	}
	if o.timeout > 0 && (spec.Run.Deadline == 0 || o.timeout < spec.Run.Deadline) {
		spec.Run.Deadline = o.timeout
	}
	spec = reg.Normalize(spec)
	if err := spec.ValidateIn(reg); err != nil {
		return nil, err
	}
	pipeline, _ := reg.Lookup(spec.Framework)

	if o.sink != nil {
		ctx = core.WithSink(ctx, o.sink)
	}
	if spec.Run.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, spec.Run.Deadline)
		defer cancel()
	}
	sink := core.SinkOf(ctx)
	sink.Emit(Event{Kind: EventRunStart, Framework: spec.Framework,
		Detail: fmt.Sprintf("tier=%s seed=%d", spec.Run.Tier, spec.Run.Seed)})

	start := time.Now()
	report, err := pipeline.Run(ctx, spec)
	elapsed := time.Since(start)
	// When a span recorder rides the context (the job service hangs one
	// off every job), the whole pipeline is one phase; the farm records
	// the finer lint/compile/sim splits inside it.
	if sp := obs.SpansOf(ctx); sp != nil {
		sp.Record(obs.PhasePipeline, elapsed)
	}

	if report != nil {
		report.Framework = spec.Framework
		report.Spec = spec
		report.Elapsed = elapsed
		sink.Emit(Event{Kind: EventRunEnd, Framework: spec.Framework,
			OK: report.OK && err == nil, Detail: report.Summary})
	} else {
		detail := ""
		if err != nil {
			detail = err.Error()
		}
		sink.Emit(Event{Kind: EventRunEnd, Framework: spec.Framework, Detail: detail})
	}
	return report, err
}

// Package llm4eda is a from-scratch Go reproduction of "Large Language
// Models (LLMs) for Electronic Design Automation (EDA)" (SOCC 2025
// special-session paper): the full suite of LLM-for-EDA frameworks the
// paper surveys — HLS program repair (Fig. 2), HLS behavioral-discrepancy
// testing (Fig. 3), AutoChip-style feedback-driven Verilog generation
// (Fig. 4), the SLT power-maximization loop with its genetic-programming
// baseline (Fig. 5, §V), VRank self-consistency ranking, LLSM-style
// synthesis assist, the Fig. 6 end-to-end EDA agent, and the §VI
// cross-level RTL debugger (internal/xdebug: C-vs-RTL commit-trace
// alignment, first-divergence localization, diagnosis-guided repair;
// demo in examples/xdebug), and the E12 static lint engine
// (internal/vlint: line-attributed diagnostics over elaborated designs,
// pre-simulation screening in the farm, lint-guided repair in
// internal/lintrepair) — together with
// every substrate they need: a Verilog-subset event-driven simulator, a C
// frontend/interpreter, an HLS compiler with pragma-aware PPA models, a
// gate-level synthesis estimator, an RV32-like ISA with a compiler
// backend, a BOOM-class out-of-order processor power model, a
// deterministic simulated-LLM substrate and a retrieval library.
//
// Every framework is invocable through one front door, the eda package:
// describe the run as an eda.Spec (framework name, problem/kernel
// payload, shared seed/tier/workers/deadline envelope) and call
//
//	report, err := eda.Run(ctx, eda.Spec{
//		Framework: "autochip",
//		Problem:   "and4",
//		Run:       eda.RunSpec{Tier: "frontier", Seed: 2},
//		Params:    map[string]float64{"k": 2, "depth": 2},
//	}, eda.WithSink(eda.ProgressPrinter(os.Stdout, false)))
//
// Progress (phases, scored candidates, LLM calls) streams to the sink
// as events; cancelling ctx aborts the run within one simulation job.
// See the runnable ExampleRun in the eda package and examples/quickstart
// for the canonical demo.
//
// The same front door runs as a long-lived service: `llm4eda serve`
// exposes queued jobs over HTTP with streaming progress and a
// cross-request report cache (internal/edaserver; typed client in
// eda/client, demo in examples/servedemo):
//
//	$ llm4eda serve &
//	$ curl -s -X POST http://127.0.0.1:8372/v1/jobs \
//	      -d '{"framework":"vrank","problem":"mux4","params":{"k":3}}'
//	{"id":"j00000001","state":"queued",...}
//	$ curl -s http://127.0.0.1:8372/v1/jobs/j00000001          # status + report
//	$ curl -sN http://127.0.0.1:8372/v1/jobs/j00000001/events  # SSE progress
//	$ curl -s http://127.0.0.1:8372/v1/stats                   # queue + caches
//
// Identical specs submitted by different clients share one run: jobs are
// content-addressed, so a resubmission returns the cached report and all
// jobs share one simulation farm. The CLI's -json flag prints the same
// report wire format for one-shot runs.
//
// The service is hardened against its own failure modes: pipeline and
// worker panics are isolated per job, a -watchdog window cancels wedged
// jobs, transient failures retry with classified backoff at every layer
// (candidate loops, HTTP client, SSE reconnect-with-resume), and the
// whole stack is provable under chaos — internal/faultinject injects
// deterministic seeded fault storms through nil-guarded hooks, and
// `make chaos-test` asserts every job still terminates, caches stay
// byte-consistent and no goroutine leaks. See DESIGN.md "Resilience and
// fault injection".
//
// The stack is observable end to end: internal/obs provides the
// allocation-free telemetry core (log-bucketed latency histograms,
// per-job phase spans carried on the context), every job reports its
// queue_wait → lint_screen → compile → sim → store_write breakdown in
// its status and SSE end frame, and GET /v1/metrics exports the whole
// stack — job and phase latency quantiles, queue depth, farm cache
// layers, resilience counters — in Prometheus text format. `llm4eda
// loadgen` / `make load-test` drive a live server with shaped traffic
// and record the latency history as committed LOAD_<date>.json files. See DESIGN.md "Observability".
//
// See DESIGN.md for the system inventory and per-experiment index, and
// EXPERIMENTS.md for paper-vs-measured results. The benchmark harness in
// bench_test.go regenerates every figure and in-text result; the same
// experiments run standalone via cmd/llm4eda, whose subcommand table is
// generated from the eda registry.
package llm4eda

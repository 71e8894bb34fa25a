# Tier-1 verification and the engine-specific gates. `make ci` is what a
# PR must pass: build, vet, gofmt cleanliness, the quick test sweep, the
# E1–E12 golden suite, a short fuzz run, the race-checked batch engine,
# the service smokes and the benchmark module check
# (.github/workflows/ci.yml runs exactly this target).

GO ?= go
GOFMT ?= gofmt

.PHONY: all build vet fmt-check lint-go test test-short test-race golden fuzz-smoke bench bench-check bench-engine bench-json bench-smoke serve-smoke chaos-test chaos-smoke load-test load-smoke ci

all: build

# Tier-1: everything compiles.
build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-invariant lint (cmd/repolint): kernel hot paths stay free of fmt
# formatting, wall-clock reads and stray goroutines; probe calls stay
# nil-guarded; fault-injection hooks stay behind `!= nil` guards in every
# layer that carries one (zero overhead when chaos is off); telemetry
# recording calls in kernel files stay nil-guarded the same way.
lint-go:
	$(GO) run ./cmd/repolint ./internal/verilog ./internal/edaserver ./internal/simfarm ./eda ./internal/obs

# Fail when any tracked Go file is not gofmt-clean.
fmt-check:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Full test sweep (tier-1 verify is `make build test`).
test:
	$(GO) test ./...

# Quick sweep: full-scale experiment/optimization loops are gated behind
# -short and skipped here; finishes in seconds.
test-short:
	$(GO) test -short ./...

# The E1–E12 quick-scale golden suite: every experiment row must match
# internal/experiments/testdata byte for byte. It skips under -short, so
# test-short never runs it; this target does (about 5 s).
golden:
	$(GO) test -count=1 -run '^TestGoldenQuickScaleRows$$' ./internal/experiments

# Fuzz each target for a few seconds: the §V scoring path (C parser,
# compiler, processor model) with arbitrary C text (FuzzScore in
# internal/slt), the SSE replay ring's resume cursor against a plain
# slice (FuzzBroadcasterCursor in internal/edaserver), and the farm's
# cache probe against a map plus a recency slice (FuzzLRU in
# internal/simfarm). A failing input lands in the package's
# testdata/fuzz/<target>; commit it with the fix, and plain `go test`
# replays it from then on.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzScore$$' -fuzztime 5s ./internal/slt
	$(GO) test -run '^$$' -fuzz '^FuzzBroadcasterCursor$$' -fuzztime 5s ./internal/edaserver
	$(GO) test -run '^$$' -fuzz '^FuzzLRU$$' -fuzztime 5s ./internal/simfarm

# Race-check the concurrent batch-simulation engine, every package whose
# scoring runs on worker pools, the front-door API (its event sinks
# receive from worker goroutines), the simulator kernel (its bound-
# body memo and compiled designs are shared across concurrent runs), the
# cross-level debugger (its cosimulation fan-out runs on the farm), and
# the job service (its queue, SSE broadcasters and the report store
# all cross goroutines), the lint layer (its memo is shared by every
# screened farm job), and the benchmark suite (one set of problems and
# testbench memos serves every job). The chaos storm runs on its own
# after the sweep, still under -race: its 200 ms watchdog assumes the
# CPU is not shared with every other race-built package at once, and on
# a 2-vCPU host the parallel sweep starved it into spurious watchdog
# kills.
test-race:
	$(GO) test -race -short -skip '^TestChaosSurvival$$' ./eda ./eda/client ./internal/edaserver ./internal/faultinject ./internal/obs ./internal/verilog ./internal/simfarm ./internal/vlint ./internal/lintrepair ./internal/vrank ./internal/autochip ./internal/crosscheck ./internal/xdebug ./internal/gp ./internal/slt ./internal/hls ./internal/benchset
	$(GO) test -race -short -run '^TestChaosSurvival$$' ./internal/edaserver

# Regenerate every paper artifact at quick scale.
bench:
	$(GO) test -run 'xxx' -bench . -benchtime 1x .

# The repository benchmark (perfbench/) is a Go module of its own, so the
# root `go build ./...` never compiles it: vet it and run its tests
# (every workload briefly, in both modes) against the current tree.
bench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The compile-once/run-many engine comparison (see EXPERIMENTS.md).
bench-engine:
	$(GO) test -run 'xxx' -bench 'BenchmarkVRank' -benchtime 5x .

# Record the benchmark trajectory point: the engine comparison, the
# kernel micro-benchmarks, and the compile/VM-dispatch micro-benchmarks,
# with -benchmem so allocation behavior (the VM's pooled scratch buffers)
# is part of the history. Emitted as BENCH_<date>.json in the repo root;
# each PR that touches the engine commits the file it produces, and the
# sequence of BENCH_*.json files is the performance history.
bench-json:
	@set -e; out=$$(mktemp); \
	$(GO) test -run '^$$' -bench 'BenchmarkKernel|BenchmarkVRank|BenchmarkCompile|BenchmarkVMDispatch|BenchmarkLint|BenchmarkObs' \
	  -benchmem -benchtime 5x . > "$$out" \
	  || { cat "$$out"; rm -f "$$out"; echo "bench-json: benchmark run failed" >&2; exit 1; }; \
	awk -v date="$$(date +%F)" 'BEGIN { printf "{\n  \"date\": \"%s\",\n  \"benchmarks\": [", date; n=0 } \
	  /^Benchmark/ { name=$$1; sub(/-[0-9]+$$/, "", name); \
	    if (n++) printf ","; printf "\n    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s}", name, $$2, $$3, $$5, $$7 } \
	  END { printf "\n  ]\n}\n" }' "$$out" > BENCH_$$(date +%F).json; \
	rm -f "$$out"; cat BENCH_$$(date +%F).json

# Benchmark-regression smoke: one BenchmarkVRankBatch pass must not be
# slower than 2x the committed baseline (BENCH_BASELINE, override to
# compare against another trajectory point). The 2x headroom absorbs
# runner-speed variance while still catching engine-level slowdowns.
BENCH_BASELINE ?= BENCH_2026-08-08.json
bench-smoke:
	@set -e; \
	base=$$(awk 'match($$0, /"BenchmarkVRankBatch", "iterations": [0-9]+, "ns_per_op": [0-9]+/) { \
	  s=substr($$0, RSTART, RLENGTH); sub(/.*"ns_per_op": /, "", s); print s }' $(BENCH_BASELINE)); \
	[ -n "$$base" ] || { echo "bench-smoke: no BenchmarkVRankBatch in $(BENCH_BASELINE)" >&2; exit 1; }; \
	ns=$$($(GO) test -run '^$$' -bench 'BenchmarkVRankBatch$$' -benchtime 1x . \
	  | awk '/^BenchmarkVRankBatch/ { print int($$3) }'); \
	[ -n "$$ns" ] || { echo "bench-smoke: benchmark produced no result" >&2; exit 1; }; \
	echo "bench-smoke: BenchmarkVRankBatch $$ns ns/op (baseline $$base, limit $$((2 * base)))"; \
	if [ "$$ns" -gt "$$((2 * base))" ]; then \
	  echo "bench-smoke: regression — ns/op exceeds 2x the committed baseline" >&2; exit 1; fi

# Service-layer smoke: boot `llm4eda serve`, drive one quick job through
# the typed client (submit, SSE stream, report, cached resubmission,
# stats), require the xdebug job's per-round diagnosis frames to arrive
# over SSE, then SIGTERM and require a clean drained exit. The port is
# fixed; override SERVE_SMOKE_ADDR when it clashes.
SERVE_SMOKE_ADDR ?= 127.0.0.1:18372
serve-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/llm4eda" ./cmd/llm4eda; \
	$(GO) build -o "$$tmp/servedemo" ./examples/servedemo; \
	"$$tmp/llm4eda" serve -addr $(SERVE_SMOKE_ADDR) > "$$tmp/serve.log" 2>&1 & \
	pid=$$!; \
	if ! "$$tmp/servedemo" -addr http://$(SERVE_SMOKE_ADDR) > "$$tmp/client.log" 2>&1; then \
	  echo "serve-smoke: client run failed; client log:" >&2; \
	  cat "$$tmp/client.log" >&2; echo "server log:" >&2; \
	  cat "$$tmp/serve.log" >&2; kill "$$pid" 2>/dev/null || true; exit 1; fi; \
	cat "$$tmp/client.log"; \
	grep -q "xdebug diagnosis events over SSE" "$$tmp/client.log" || { \
	  echo "serve-smoke: SSE stream carried no xdebug diagnosis marker" >&2; \
	  kill "$$pid" 2>/dev/null || true; exit 1; }; \
	grep -q "lint screen events over SSE" "$$tmp/client.log" || { \
	  echo "serve-smoke: SSE stream carried no lint screen marker" >&2; \
	  kill "$$pid" 2>/dev/null || true; exit 1; }; \
	kill -TERM "$$pid"; \
	if ! wait "$$pid"; then \
	  echo "serve-smoke: server did not exit cleanly; log:" >&2; \
	  cat "$$tmp/serve.log" >&2; exit 1; fi; \
	grep -q "drained, bye" "$$tmp/serve.log" || { \
	  echo "serve-smoke: no clean-drain marker in server log:" >&2; \
	  cat "$$tmp/serve.log" >&2; exit 1; }; \
	echo "serve-smoke: ok (submit, stream, cached resubmit, clean drain)"

# Traffic-shaped load run: boot a serve, drive the mixed workload from
# `llm4eda loadgen` (hot duplicates, cold uniques, cancellations, live
# SSE subscribers), and record submit-to-terminal latency percentiles,
# queue-wait distribution and cache-hit rates as LOAD_<date>.json in the
# repo root — commit the file; the LOAD_*.json sequence is the service
# latency history. The port is fixed; override LOAD_ADDR when it clashes.
LOAD_ADDR ?= 127.0.0.1:18373
LOAD_JOBS ?= 150
load-test:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/llm4eda" ./cmd/llm4eda; \
	"$$tmp/llm4eda" serve -addr $(LOAD_ADDR) -queue 256 > "$$tmp/serve.log" 2>&1 & \
	pid=$$!; \
	if ! "$$tmp/llm4eda" loadgen -addr http://$(LOAD_ADDR) -jobs $(LOAD_JOBS); then \
	  echo "load-test: loadgen failed; server log:" >&2; \
	  cat "$$tmp/serve.log" >&2; kill "$$pid" 2>/dev/null || true; exit 1; fi; \
	kill -TERM "$$pid"; \
	if ! wait "$$pid"; then \
	  echo "load-test: server did not exit cleanly; log:" >&2; \
	  cat "$$tmp/serve.log" >&2; exit 1; fi; \
	grep -q "drained, bye" "$$tmp/serve.log" || { \
	  echo "load-test: no clean-drain marker in server log:" >&2; \
	  cat "$$tmp/serve.log" >&2; exit 1; }

# The same harness at reduced scale with the smoke assertions armed
# (p99 recorded, report-cache hits observed, zero failed jobs, metrics
# scrape well-formed) and the report written to a scratch path — a
# deterministic few-second gate, part of `make ci`.
load-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/llm4eda" ./cmd/llm4eda; \
	"$$tmp/llm4eda" serve -addr $(LOAD_ADDR) > "$$tmp/serve.log" 2>&1 & \
	pid=$$!; \
	if ! "$$tmp/llm4eda" loadgen -addr http://$(LOAD_ADDR) -jobs 30 -clients 4 \
	    -smoke -out "$$tmp/load.json"; then \
	  echo "load-smoke: loadgen failed; server log:" >&2; \
	  cat "$$tmp/serve.log" >&2; kill "$$pid" 2>/dev/null || true; exit 1; fi; \
	kill -TERM "$$pid"; \
	if ! wait "$$pid"; then \
	  echo "load-smoke: server did not exit cleanly; log:" >&2; \
	  cat "$$tmp/serve.log" >&2; exit 1; fi; \
	grep -q "drained, bye" "$$tmp/serve.log" || { \
	  echo "load-smoke: no clean-drain marker in server log:" >&2; \
	  cat "$$tmp/serve.log" >&2; exit 1; }; \
	echo "load-smoke: ok (mixed traffic, smoke assertions, clean drain)"

# Chaos acceptance: mixed realistic traffic against the seeded fault
# plan (worker/pipeline panics, transient errors, wedged stages, slow
# simulations, SSE disconnects, report-store write failures). Asserts
# every job reaches a terminal state, the resilience counters account
# for the injected faults, cached reports stay byte-consistent, and
# shutdown restores the goroutine baseline.
chaos-test:
	$(GO) test -race -run TestChaosSurvival -v -timeout 300s ./internal/edaserver

# The same storm at reduced scale with a fixed seed — a deterministic
# few-second gate, part of `make ci`.
chaos-smoke:
	$(GO) test -run TestChaosSurvival -short -timeout 120s ./internal/edaserver

ci: build vet fmt-check lint-go test-short golden fuzz-smoke test-race chaos-smoke serve-smoke load-smoke bench-check

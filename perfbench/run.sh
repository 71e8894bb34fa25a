#!/usr/bin/env bash
# Builds the benchmark and the llm4eda binary from the checkout it is run
# in, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 20 --trace 0
#
# Every build output (binaries, Go build cache, temporary files, result
# records and traces) goes under .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/llm4eda ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of an llm4eda checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
go build -o "$out/llm4eda" ./cmd/llm4eda
exec "$out/perfbench" -bin "$out/llm4eda" -out "$out/results" "$@"

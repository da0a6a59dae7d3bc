#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Run from the repository root (BENCHMARK.json's command).
# Everything the toolchain writes stays under .bench_build/.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -C benchmarks -o "$build/mlperf-bench" ./mlperf-bench
exec "$build/mlperf-bench" "$@"

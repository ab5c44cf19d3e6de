#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json's command): builds bench/ with
# the Go toolchain, keeping the build cache and temp files inside the
# checkout, and runs it from the repository root. Arguments pass through:
#
#   bash bench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh                      # full set: 4 untraced + 4 traced
#   bash bench/run.sh -repeat 2            # twice, then the comparison
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
mkdir -p "$root/.bench_build/bin" "$root/.bench_build/gotmp"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/gotmp"
go -C bench build -o "$root/.bench_build/bin/bench" .
exec "$root/.bench_build/bin/bench" -root "$root" "$@"

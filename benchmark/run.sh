#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark module with
# every toolchain output (build cache, temp files, binary) kept under
# .bench_build/ in the checkout, then runs it from the checkout root.
# Without the repository's sources next to it the build — and so the
# script — fails before anything runs.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/hzccl-benchmark" .)
cd "$root"
exec "$build/hzccl-benchmark" "$@"

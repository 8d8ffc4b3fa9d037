#!/bin/sh
# fuzz.sh — run every Go native fuzz target for FUZZTIME each (default a
# short smoke suitable for CI; set FUZZTIME=5m for a real session).
# Targets run one at a time because `go test -fuzz` accepts a single
# match per invocation. `make fuzz` runs this.
set -eu
cd "$(dirname "$0")/.."

FUZZTIME=${FUZZTIME:-10s}

run() {
    pkg=$1
    target=$2
    echo "== fuzz $pkg.$target ($FUZZTIME) =="
    go test "$pkg" -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZTIME"
}

run ./internal/floatbytes FuzzAddInto
run ./internal/fzlight FuzzDecompress
run ./internal/fzlight FuzzCompressRoundTrip
run ./internal/fzlight FuzzBlockKernels
run ./internal/fzlight FuzzFusedAdd
run ./internal/fzlight FuzzSumKernel
run ./internal/hzdyn FuzzAdd
run ./internal/hzdyn FuzzHomomorphism
run ./internal/conformance FuzzCompressorOracle
run ./internal/conformance FuzzHomomorphicOracle
run ./internal/conformance FuzzCollectiveShapes
# The three that drive the schedules under faults and membership change.
run ./internal/conformance FuzzChaosSchedule
run ./internal/conformance FuzzShrinkChaos
run ./internal/conformance FuzzHierarchicalChaos

echo "fuzz: OK"

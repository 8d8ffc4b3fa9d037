#!/bin/sh
# check.sh — the repo's fast hygiene gate: formatting, vet, a race pass
# over the concurrent packages (telemetry's lock-free counters and the
# cluster runtime), and the nested benchmark module's own vet + tests
# (root `go vet/test ./...` does not descend into benchmark/go.mod, and the
# benchmark compiles against internal/ packages). `make check` runs this.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go test -race (concurrent packages) =="
go test -race . ./internal/telemetry ./internal/cluster ./internal/hzdyn ./internal/core

echo "== bench-check (nested benchmark module: go vet + go test) =="
make bench-check

echo "check: OK"

#!/bin/sh
# check.sh — the repo's fast hygiene gate: formatting, vet (asmdecl covers
# the fzlight block kernels), an arm64 cross vet/build (the non-amd64 stub
# and the portable codec path) with a check that no quantiser fused its
# multiply and add there, an s390x cross vet/build (the big-endian side of
# floatbytes, the one place byte order is compiled in), a 386 test run of
# the codec packages (the portable pipeline ④, natively), a race pass over the
# concurrent packages (telemetry's lock-free counters and the cluster
# runtime), and the nested benchmark module's own vet + tests (root
# `go vet/test ./...` does not descend into benchmark/go.mod, and the
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

echo "== arm64: go vet, go build, no fused multiply-add in the quantisers =="
GOARCH=arm64 go vet ./...
GOARCH=arm64 go build ./...
# fzlight.quantise is the codec's two-rounding rule (ompszp.quantizeBlock
# the float32 one beside it): a fused multiply-add there would quantise
# exact ties differently from amd64 and break bit-identity across a mixed
# mesh. quantise inlines into its callers, so the whole of both codec
# packages is searched; neither has a legitimate fused operation today.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
GOARCH=arm64 go build -o "$tmp/compressor" ./cmd/hzccl-compressor
fused=$(go tool objdump -s 'internal/(fzlight|ompszp)\.' "$tmp/compressor" | grep -E 'FN?M(ADD|SUB)[SD]' || true)
if [ -n "$fused" ]; then
    echo "fused multiply-add in a codec package (arm64):" >&2
    echo "$fused" >&2
    exit 1
fi

echo "== s390x (big-endian): go vet, go build =="
GOARCH=s390x go vet ./...
GOARCH=s390x go build ./...

echo "== 386: go test the portable codec and pipeline ④ =="
# block_noasm.go runs natively here: the only pipeline ④ that arm64,
# ppc64le and s390x have. floatbytes stays out: its NaN-payload tests fail
# on 386 (a sum's NaN payload differs from the scalar reference; see
# ROADMAP "Parked").
GOARCH=386 go test ./internal/bitio/ ./internal/fzlight/ ./internal/hzdyn/

echo "== go test -race (concurrent packages) =="
go test -race . ./internal/telemetry ./internal/cluster ./internal/fzlight ./internal/hzdyn ./internal/core

echo "== bench-check (nested benchmark module: go vet + go test) =="
make bench-check

echo "check: OK"

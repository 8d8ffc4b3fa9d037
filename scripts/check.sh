#!/bin/sh
# check.sh — the repo's fast hygiene gate: formatting, vet (asmdecl covers
# the fzlight block kernels), a check that scripts/gencorpus regenerates
# the committed fuzz seed corpora byte for byte, an arm64 cross vet/build
# (the non-amd64 stub and the portable codec path) with a check that no
# quantiser fused its multiply and add there, the same check by grep on
# every amd64 kernel, an s390x cross vet/build (the big-endian side of
# floatbytes, the one place byte order is compiled in), a 386 test run of
# the codec packages and the conformance oracles (the portable pipeline ④,
# natively), the codec and schedule tests at GOMAXPROCS 1 and 4 (one core
# and a segmented encode), a race pass over the concurrent packages
# (telemetry's lock-free counters, the cluster runtime, the codecs' fanout
# runner, the job daemon with the input its in-process ranks share, and an
# in-process run of every experiment), and the nested benchmark module's
# own vet + tests (root `go vet/test ./...` does not descend into
# benchmark/go.mod, and the benchmark compiles against internal/
# packages). `make check` runs this.
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
GOARCH=arm64 go build -o "$tmp/paper" ./cmd/hzccl-paper
fused=$(go tool objdump -s 'internal/(fzlight|ompszp)\.' "$tmp/paper" | grep -E 'FN?M(ADD|SUB)[SD]' || true)
if [ -n "$fused" ]; then
    echo "fused multiply-add in a codec package (arm64):" >&2
    echo "$fused" >&2
    exit 1
fi

echo "== fuzz corpora: gencorpus rewrites every committed seed byte for byte =="
# gencorpus writes the seed files under internal/*/testdata/fuzz/ of its
# working directory: run it in the scratch directory, and every file it
# writes must be committed with the same bytes.
root=$(pwd)
go build -o "$tmp/gencorpus" ./scripts/gencorpus
(cd "$tmp" && ./gencorpus >/dev/null)
stale=$(cd "$tmp" && find internal -type f | sort | while read -r f; do
    cmp -s "$f" "$root/$f" || echo "$f"
done)
if [ -n "$stale" ]; then
    echo "gencorpus writes seeds that differ from the committed ones (run go run ./scripts/gencorpus):" >&2
    echo "$stale" >&2
    exit 1
fi

echo "== amd64 kernels: two roundings by hand =="
# The same rule in every hand-written kernel (the fZ-light block codecs,
# floatbytes' add, any *_amd64.s to come): no fused multiply-add opcode,
# and no embedded rounding but the AVX-512 quantiser's convert
# (VCVTPD2DQ.RD_SAE, the floor of x + ½ after the round-to-nearest sum).
asm=$(find . -name '*_amd64.s' -not -path './.bench_build/*' | sort)
fused=$(grep -nHE 'VFN?M(ADD|SUB)' $asm || true)
rounded=$(grep -nHE '\.R[NDUZ]_SAE' $asm | grep -v 'VCVTPD2DQ\.RD_SAE' || true)
if [ -n "$fused$rounded" ]; then
    echo "fused multiply-add or embedded rounding in an amd64 kernel:" >&2
    printf '%s\n' "$fused" "$rounded" | grep . >&2
    exit 1
fi

echo "== s390x (big-endian): go vet, go build =="
GOARCH=s390x go vet ./...
GOARCH=s390x go build ./...

echo "== 386: go test the portable codec and pipeline ④ =="
# block_noasm.go runs natively here: the only pipeline ④ that arm64,
# ppc64le and s390x have. conformance runs its homomorphic and collective
# oracles over it. floatbytes stays out: its NaN-payload tests fail on 386
# (a sum's NaN payload differs from the scalar reference; see ROADMAP
# "Parked").
GOARCH=386 go test ./internal/bitio/ ./internal/fzlight/ ./internal/hzdyn/ ./internal/conformance/

echo "== GOMAXPROCS=1 and 4: go test the codecs and the schedules =="
# A long chunk is encoded as up to GOMAXPROCS segments and chunks run on
# the fanout runner's helpers: at 1 every part runs on its caller, at 4
# the split and the helpers run whatever cores the runner has. These runs
# are -short: what they add is the two paths, and the tests -short skips
# (a timing test, a million-element row) run in `go test ./...` and above.
for procs in 1 4; do
    GOMAXPROCS=$procs go test -short -count=1 ./internal/fanout/ ./internal/fzlight/ ./internal/hzdyn/ ./internal/core/
done

echo "== go test -race (concurrent packages) =="
go test -race . ./internal/telemetry ./internal/bufpool ./internal/datasets ./internal/cluster ./internal/fanout ./internal/fzlight ./internal/hzdyn ./internal/core ./serve
# Every experiment at smoke scale: in-process ranks run their codec calls
# concurrently (no lock serialises them), over the shared bufpool, fanout
# helpers and telemetry.
go test -race -run TestAllExperimentsSmoke ./internal/harness

echo "== bench-check (nested benchmark module: go vet + go test) =="
make bench-check

echo "check: OK"

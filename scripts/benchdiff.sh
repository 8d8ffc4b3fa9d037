#!/bin/sh
# benchdiff.sh — the benchmark regression gate: compares two
# BENCH_hotpaths.json files (baseline vs current) on the throughput
# (mb_per_s) of the Fig. 6 compressor benches and the Table V homomorphic
# add, and fails if any bench regressed more than 20% — after normalizing
# by the median ratio, so a uniformly slower or faster machine (CI runner
# vs the committed baseline's host) cancels out and only relative
# regressions of individual hot paths trip the gate.
#
# Usage: benchdiff.sh BASELINE.json CURRENT.json
# Exit:  0 ok, 1 regression, 2 usage/parse error.
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 BASELINE.json CURRENT.json" >&2
    exit 2
fi
base=$1
cur=$2
[ -f "$base" ] || { echo "benchdiff: missing baseline $base" >&2; exit 2; }
[ -f "$cur" ] || { echo "benchdiff: missing current $cur" >&2; exit 2; }

# The JSON is the line-per-benchmark form bench.sh emits, so awk can pull
# name and mb_per_s without a JSON parser. Only the throughput-bearing
# hot-path benches participate; allocation and virtual-time benches have
# their own gates in bench.sh.
extract() {
    awk '
    /"name": "Benchmark(Fig6|Table5HomomorphicAdd)/ {
        name = ""; mbs = ""
        if (match($0, /"name": "[^"]+"/)) {
            name = substr($0, RSTART + 9, RLENGTH - 10)
            sub(/-[0-9]+$/, "", name) # the GOMAXPROCS suffix differs between hosts
        }
        if (match($0, /"mb_per_s": [0-9.eE+-]+/)) {
            mbs = substr($0, RSTART + 12, RLENGTH - 12)
        }
        if (name != "" && mbs != "") print name, mbs
    }' "$1"
}

tmpb=$(mktemp)
tmpc=$(mktemp)
trap 'rm -f "$tmpb" "$tmpc"' EXIT
extract "$base" > "$tmpb"
extract "$cur" > "$tmpc"

if [ ! -s "$tmpb" ] || [ ! -s "$tmpc" ]; then
    echo "benchdiff: no Fig6/Table5 mb_per_s entries to compare" >&2
    exit 2
fi

awk -v tol=0.80 '
NR == FNR { base[$1] = $2; next }
{
    if ($1 in base && base[$1] + 0 > 0) {
        ratio[$1] = $2 / base[$1]
        order[n++] = $1
    }
}
END {
    if (n == 0) {
        print "benchdiff: no common benchmarks between baseline and current" > "/dev/stderr"
        exit 2
    }
    # Median ratio = the machine-speed normalizer.
    for (i = 0; i < n; i++) r[i] = ratio[order[i]]
    for (i = 1; i < n; i++)       # insertion sort: n is tiny
        for (j = i; j > 0 && r[j-1] > r[j]; j--) {
            t = r[j]; r[j] = r[j-1]; r[j-1] = t
        }
    med = (n % 2) ? r[int(n/2)] : (r[n/2 - 1] + r[n/2]) / 2
    printf "benchdiff: %d benches, median throughput ratio %.3f (current/baseline)\n", n, med
    bad = 0
    for (i = 0; i < n; i++) {
        name = order[i]
        norm = ratio[name] / med
        if (norm < tol) {
            printf "REGRESSION: %s at %.1f%% of baseline (normalized; raw ratio %.3f)\n",
                name, 100 * norm, ratio[name] > "/dev/stderr"
            bad = 1
        }
    }
    if (bad) exit 1
    print "benchdiff: OK (no hot path below " tol * 100 "% of the median-normalized baseline)"
}' "$tmpb" "$tmpc"

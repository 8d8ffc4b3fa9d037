#!/bin/sh
# fuzz.sh — run every Go native fuzz target for FUZZTIME each (default a
# short smoke suitable for CI; set FUZZTIME=5m for a real session).
# Targets are discovered per package with `go test -list '^Fuzz'`, so a new
# one runs without being named here; they run one at a time because
# `go test -fuzz` accepts a single match per invocation. `make fuzz` runs
# this.
set -eu
cd "$(dirname "$0")/.."

FUZZTIME=${FUZZTIME:-10s}

# -list prints a package's targets, then "ok <package> <time>". A suite
# whose TestMain runs it once per SIMD level lists them once per level.
list=$(go test -list '^Fuzz' ./...)
targets=$(printf '%s\n' "$list" | awk '
    /^Fuzz/ { if (!seen[$1]++) names[n++] = $1 }
    /^ok/   { for (i = 0; i < n; i++) print $2, names[i]; n = 0; split("", seen) }')
if [ -z "$targets" ]; then
    echo "fuzz: no targets found" >&2
    exit 1
fi

printf '%s\n' "$targets" | while read -r pkg target; do
    echo "== fuzz $pkg.$target ($FUZZTIME) =="
    go test "$pkg" -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZTIME" </dev/null
done

echo "fuzz: OK"

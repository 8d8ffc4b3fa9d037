#!/bin/sh
# tcp_smoke.sh: multi-process loopback smoke test of the TCP transport.
#
# Launches a 4-rank hZCCL Allreduce as 4 real OS processes on localhost,
# collects each rank's result digest, and verifies that (a) all four TCP
# ranks agree, (b) the digest is bitwise identical to the same collective
# on the default in-process fabric, (c) rank 0's -obs-listen endpoint
# answers /healthz, serves a parseable Prometheus /metrics scrape and a
# 1-second CPU profile, and (d) the four per-process trace files merge
# into one multi-rank timeline with cross-process flow events. It then
# re-runs the mesh with an injected kill of rank 3 and then of rank 0
# (elastic membership), and
# finally boots the hzccl-serve daemon on the same 4-rank shape: two
# client processes submit concurrent jobs against one mesh handshake,
# /jobs lists them, and SIGTERM shuts every rank down cleanly. Exit code
# 0 means the fabrics are observationally equivalent for this run and
# the observability + service surfaces work end to end.
#
# Usage: sh scripts/tcp_smoke.sh [MESSAGE_BYTES] [BACKEND] [ALGORITHM] [TOPOLOGY]
#
# ALGORITHM (ring, rd, rabenseifner, hierarchical, auto; default ring)
# and TOPOLOGY (e.g. 2x2 or 1,3; default flat) select the collective
# schedule and node grouping on both fabrics — `sh scripts/tcp_smoke.sh
# 65536 hzccl hierarchical 2x2` runs the two-level schedule across real
# processes with rank 0 and 2 as node leaders.
set -eu

MESSAGE="${1:-65536}"
BACKEND="${2:-hzccl}"
ALGO="${3:-ring}"
TOPO="${4:-}"
BASE_PORT="${TCP_SMOKE_PORT:-19780}"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

go build -o "$OUT/hzccl-collective" ./cmd/hzccl-collective
go build -o "$OUT/hzccl-serve" ./cmd/hzccl-serve

PEERS="127.0.0.1:$BASE_PORT,127.0.0.1:$((BASE_PORT+1)),127.0.0.1:$((BASE_PORT+2)),127.0.0.1:$((BASE_PORT+3))"
OBS="127.0.0.1:$((BASE_PORT+9))"

for r in 1 2 3; do
    "$OUT/hzccl-collective" -transport=tcp -rank "$r" -peers "$PEERS" \
        -backend "$BACKEND" -algorithm "$ALGO" ${TOPO:+-topology "$TOPO"} \
        -message "$MESSAGE" -trace "$OUT/trace$r.json" \
        > "$OUT/rank$r.out" 2>&1 &
done
# Rank 0 additionally serves the live introspection endpoint and lingers
# so the scrape below hits a live process.
"$OUT/hzccl-collective" -transport=tcp -rank 0 -peers "$PEERS" \
    -backend "$BACKEND" -algorithm "$ALGO" ${TOPO:+-topology "$TOPO"} \
    -message "$MESSAGE" -trace "$OUT/trace0.json" \
    -obs-listen "$OBS" -obs-linger 10s > "$OUT/rank0.out" 2>"$OUT/rank0.err" &
OBS_PID=$!

# Wait for the endpoint, then scrape it while rank 0 lingers.
tries=0
until curl -fsS "http://$OBS/healthz" > "$OUT/healthz.json" 2>/dev/null; do
    tries=$((tries+1))
    if [ "$tries" -ge 50 ]; then
        echo "tcp_smoke: FAIL: /healthz never answered on $OBS" >&2
        cat "$OUT/rank0.err" >&2 || true
        exit 1
    fi
    sleep 0.1
done
grep -q '"status":"ok"' "$OUT/healthz.json" || {
    echo "tcp_smoke: FAIL: /healthz did not report ok: $(cat "$OUT/healthz.json")" >&2
    exit 1
}

curl -fsS "http://$OBS/metrics" > "$OUT/metrics.prom"
# The scrape must parse as Prometheus text exposition: every line is a
# comment or "name[{labels}] value".
awk '
/^#/ { next }
/^$/ { next }
/^[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})? -?[0-9][0-9.eE+-]*$/ { ok++; next }
{ print "tcp_smoke: unparseable metrics line: " $0 > "/dev/stderr"; bad++ }
END { exit (bad > 0 || ok == 0) }' "$OUT/metrics.prom" || {
    echo "tcp_smoke: FAIL: /metrics scrape does not parse" >&2
    exit 1
}
grep -q '^cluster_transport_bytes_out' "$OUT/metrics.prom" || {
    echo "tcp_smoke: FAIL: /metrics scrape is missing the transport counters" >&2
    exit 1
}

curl -fsS -o "$OUT/profile.pb.gz" "http://$OBS/debug/pprof/profile?seconds=1"
[ -s "$OUT/profile.pb.gz" ] || {
    echo "tcp_smoke: FAIL: /debug/pprof/profile returned an empty profile" >&2
    exit 1
}

wait

"$OUT/hzccl-collective" -transport=inproc -nodes 4 \
    -backend "$BACKEND" -algorithm "$ALGO" ${TOPO:+-topology "$TOPO"} \
    -message "$MESSAGE" > "$OUT/inproc.out" 2>&1

digest_of() {
    sed -n 's/.*digest=\([0-9a-f]*\).*/\1/p' "$1" | sort -u
}

REF="$(digest_of "$OUT/inproc.out")"
if [ -z "$REF" ] || [ "$(printf '%s\n' "$REF" | wc -l)" -ne 1 ]; then
    echo "tcp_smoke: FAIL: in-process reference did not produce one digest" >&2
    cat "$OUT/inproc.out" >&2
    exit 1
fi

FAIL=0
for r in 0 1 2 3; do
    D="$(digest_of "$OUT/rank$r.out")"
    if [ "$D" != "$REF" ]; then
        echo "tcp_smoke: FAIL: rank $r digest '$D' != in-process '$REF'" >&2
        cat "$OUT/rank$r.out" >&2
        FAIL=1
    fi
done
[ "$FAIL" -eq 0 ] || exit 1

# Merge the four per-process trace files and verify the result carries
# cross-process flow events (Perfetto's send→recv arrows).
"$OUT/hzccl-collective" -trace-merge "$OUT/merged.json" \
    "$OUT/trace0.json" "$OUT/trace1.json" "$OUT/trace2.json" "$OUT/trace3.json" \
    > /dev/null
grep -q '"ph":"s"' "$OUT/merged.json" && grep -q '"ph":"f"' "$OUT/merged.json" || {
    echo "tcp_smoke: FAIL: merged trace has no flow events" >&2
    exit 1
}

echo "tcp_smoke: OK: 4 TCP processes and in-process fabric all agree (digest=$REF, backend=$BACKEND, algo=$ALGO${TOPO:+, topo=$TOPO}, $MESSAGE bytes)"
echo "tcp_smoke: OK: obs endpoint served healthz, metrics and a CPU profile; traces merged with flow events"
grep -h 'rank\|transport' "$OUT"/rank*.out

# --- Elastic membership: kill one process mid-collective ---------------
# Relaunch the 4-rank mesh twice with an injected kill: of rank 3, and of
# rank 0, the first coordinator of every agreement round, whose death the
# survivors outlive by electing rank 1. The victim process must exit 0
# reporting its injected death; the survivors must evict it, finish on
# the 3-rank world, and their digests must be bitwise identical to the
# same collective run in-process on 3 ranks (every rank reduces the same
# field, so one reference serves both victims). The kill case runs the
# flat topology: a 4-rank node grouping does not describe the 3-rank
# reference world.
"$OUT/hzccl-collective" -transport=inproc -nodes 3 \
    -backend "$BACKEND" -algorithm "$ALGO" -message "$MESSAGE" \
    > "$OUT/inproc3.out" 2>&1
KREF="$(digest_of "$OUT/inproc3.out")"
if [ -z "$KREF" ] || [ "$(printf '%s\n' "$KREF" | wc -l)" -ne 1 ]; then
    echo "tcp_smoke: FAIL: 3-rank in-process reference did not produce one digest" >&2
    cat "$OUT/inproc3.out" >&2
    exit 1
fi

for VICTIM in 3 0; do
    KBASE=$((BASE_PORT+20+VICTIM*2))
    KPEERS="127.0.0.1:$KBASE,127.0.0.1:$((KBASE+1)),127.0.0.1:$((KBASE+2)),127.0.0.1:$((KBASE+3))"
    for r in 1 2 3; do
        "$OUT/hzccl-collective" -transport=tcp -rank "$r" -peers "$KPEERS" \
            -backend "$BACKEND" -algorithm "$ALGO" -message "$MESSAGE" \
            -kill-rank "$VICTIM" -kill-step 1 > "$OUT/kill$r.out" 2>&1 &
    done
    "$OUT/hzccl-collective" -transport=tcp -rank 0 -peers "$KPEERS" \
        -backend "$BACKEND" -algorithm "$ALGO" -message "$MESSAGE" \
        -kill-rank "$VICTIM" -kill-step 1 > "$OUT/kill0.out" 2>&1
    wait

    grep -q 'killed by injected fault' "$OUT/kill$VICTIM.out" || {
        echo "tcp_smoke: FAIL: victim rank $VICTIM did not report its injected death" >&2
        cat "$OUT/kill$VICTIM.out" >&2
        exit 1
    }
    FAIL=0
    for r in 0 1 2 3; do
        [ "$r" -eq "$VICTIM" ] && continue
        grep -q "evicted ranks \[$VICTIM\]" "$OUT/kill$r.out" || {
            echo "tcp_smoke: FAIL: survivor rank $r did not report the eviction of rank $VICTIM" >&2
            cat "$OUT/kill$r.out" >&2
            FAIL=1
        }
        D="$(digest_of "$OUT/kill$r.out")"
        if [ "$D" != "$KREF" ]; then
            echo "tcp_smoke: FAIL: survivor rank $r digest '$D' != 3-rank in-process '$KREF' (victim $VICTIM)" >&2
            cat "$OUT/kill$r.out" >&2
            FAIL=1
        fi
    done
    [ "$FAIL" -eq 0 ] || exit 1
    echo "tcp_smoke: OK: killed rank $VICTIM mid-collective; survivors evicted it and match the 3-rank in-process digest ($KREF)"
done

# --- Collective as a service: the hzccl-serve daemon -------------------
# Boot a 4-rank daemon mesh (one handshake), submit two jobs from two
# separate client processes — concurrently, exercising session isolation —
# and verify their digests match the in-process references, the /jobs
# registry saw both, the mesh formed exactly once, and SIGTERM shuts every
# rank down cleanly (exit 0).
DBASE=$((BASE_PORT+40))
DPEERS="127.0.0.1:$DBASE,127.0.0.1:$((DBASE+1)),127.0.0.1:$((DBASE+2)),127.0.0.1:$((DBASE+3))"
DCLIENT="127.0.0.1:$((DBASE+8))"
DOBS="127.0.0.1:$((DBASE+9))"

DPIDS=""
for r in 1 2 3; do
    "$OUT/hzccl-serve" -rank "$r" -peers "$DPEERS" \
        > "$OUT/serve$r.out" 2>&1 &
    DPIDS="$DPIDS $!"
done
"$OUT/hzccl-serve" -rank 0 -peers "$DPEERS" -client-listen "$DCLIENT" \
    -obs-listen "$DOBS" > "$OUT/serve0.out" 2>&1 &
DPIDS="$DPIDS $!"

# The obs endpoint comes up after the mesh forms and the client listener
# opens, so a live /healthz means the service is ready for submissions.
tries=0
until curl -fsS "http://$DOBS/healthz" > /dev/null 2>&1; do
    tries=$((tries+1))
    if [ "$tries" -ge 100 ]; then
        echo "tcp_smoke: FAIL: daemon obs endpoint never answered on $DOBS" >&2
        cat "$OUT"/serve*.out >&2 || true
        exit 1
    fi
    sleep 0.1
done

# Two client processes, two different jobs, submitted concurrently.
"$OUT/hzccl-collective" -submit "$DCLIENT" \
    -backend "$BACKEND" -algorithm "$ALGO" ${TOPO:+-topology "$TOPO"} \
    -message "$MESSAGE" > "$OUT/job1.out" 2>&1 &
JOB1=$!
"$OUT/hzccl-collective" -submit "$DCLIENT" \
    -backend mpi -algorithm ring -message 32768 > "$OUT/job2.out" 2>&1 &
JOB2=$!
wait "$JOB1" || { echo "tcp_smoke: FAIL: daemon job 1 failed" >&2; cat "$OUT/job1.out" >&2; exit 1; }
wait "$JOB2" || { echo "tcp_smoke: FAIL: daemon job 2 failed" >&2; cat "$OUT/job2.out" >&2; exit 1; }

D1="$(digest_of "$OUT/job1.out")"
if [ "$D1" != "$REF" ]; then
    echo "tcp_smoke: FAIL: daemon job 1 digest '$D1' != in-process '$REF'" >&2
    cat "$OUT/job1.out" >&2
    exit 1
fi
"$OUT/hzccl-collective" -transport=inproc -nodes 4 \
    -backend mpi -algorithm ring -message 32768 > "$OUT/inproc-mpi.out" 2>&1
MREF="$(digest_of "$OUT/inproc-mpi.out")"
D2="$(digest_of "$OUT/job2.out")"
if [ -z "$MREF" ] || [ "$D2" != "$MREF" ]; then
    echo "tcp_smoke: FAIL: daemon job 2 digest '$D2' != in-process '$MREF'" >&2
    cat "$OUT/job2.out" >&2
    exit 1
fi

# The registry must have both jobs done, and the mesh must have formed
# exactly once: rank 0 of a 4-rank mesh accepts 3 connections and dials
# none, no matter how many jobs ran.
curl -fsS "http://$DOBS/jobs" > "$OUT/jobs.json"
[ "$(grep -o '"state":"done"' "$OUT/jobs.json" | wc -l)" -ge 2 ] || {
    echo "tcp_smoke: FAIL: /jobs does not list two completed jobs: $(cat "$OUT/jobs.json")" >&2
    exit 1
}
curl -fsS "http://$DOBS/metrics" > "$OUT/serve-metrics.prom"
grep -q '^cluster_transport_accepts 3$' "$OUT/serve-metrics.prom" || {
    echo "tcp_smoke: FAIL: daemon rank 0 accepts != 3 (mesh re-formed?)" >&2
    grep '^cluster_transport_' "$OUT/serve-metrics.prom" >&2 || true
    exit 1
}
grep -q '^cluster_transport_dials 0$' "$OUT/serve-metrics.prom" || {
    echo "tcp_smoke: FAIL: daemon rank 0 dialed mid-service (mesh re-formed?)" >&2
    grep '^cluster_transport_' "$OUT/serve-metrics.prom" >&2 || true
    exit 1
}

# Graceful shutdown: SIGTERM every rank; each must exit 0 (a rank that
# sees a peer leave first tears itself down, which is also a clean exit).
for pid in $DPIDS; do
    kill -TERM "$pid" 2>/dev/null || true
done
DFAIL=0
for pid in $DPIDS; do
    wait "$pid" || DFAIL=1
done
if [ "$DFAIL" -ne 0 ]; then
    echo "tcp_smoke: FAIL: a daemon rank exited non-zero on SIGTERM" >&2
    cat "$OUT"/serve*.out >&2
    exit 1
fi

echo "tcp_smoke: OK: daemon ran 2 concurrent jobs from 2 clients on one mesh handshake; digests match in-process ($D1, $D2); clean SIGTERM shutdown"

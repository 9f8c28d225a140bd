#!/usr/bin/env bash
# e2e smoke: boot dollympd on an ephemeral port, push jobs through it
# with dollymp-load, require every job to complete and /metrics to parse,
# then check the daemon drains cleanly on SIGTERM. The passes:
# unsharded; with -shards 4 (this pass also probes the /v1 error
# surface, asserting every failure is the machine-readable envelope
# {"error":{"code","message"}} and /v1/shards reports the topology);
# with -shards 4 -route single -steal, skewing every submission onto
# shard 0 and requiring the rebalancer to migrate jobs off it (non-zero
# steal counter, all jobs still complete); two edge-admission passes:
# -admission token-bucket rate-limits intake so the client SDK must
# retry through admission_denied 429s honoring Retry-After, and
# -admission fair with tenant-labelled load verifies the per-tenant
# ?tenant= filters and admission accounting; a kill-and-restart pass:
# submit N jobs against -journal-dir, SIGKILL the daemon mid-run,
# restart it on the same directory, and require all N jobs to complete
# with a non-zero journal replay — zero accepted-job loss across a
# crash; and a federation pass: two -member daemons behind a
# rate-limited -gateway, batches larger than its burst, SIGKILL one
# member mid-run, and require the gateway-driven journal takeover to
# finish every accepted job on the survivor.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${SMOKE_JOBS:-50}"
WORKERS="${SMOKE_WORKERS:-4}"
BIN="$(mktemp -d)"
trap 'kill $DPID $EXTRA_PIDS 2>/dev/null || true; rm -rf "$BIN"' EXIT
DPID=""
EXTRA_PIDS=""

go build -o "$BIN/dollympd" ./cmd/dollympd
go build -o "$BIN/dollymp-load" ./cmd/dollymp-load

# start_daemon <log> <daemon args...>: boots dollympd, waits for the
# bound address to appear in the log, and sets DPID / ADDR.
start_daemon() {
    local LOG=$1; shift
    "$BIN/dollympd" -addr 127.0.0.1:0 -deterministic "$@" >"$LOG" 2>&1 &
    DPID=$!
    ADDR=""
    for _ in $(seq 1 50); do
        ADDR="$(sed -n 's/^dollympd: listening on \(http:\/\/.*\)$/\1/p' "$LOG")"
        [ -n "$ADDR" ] && break
        kill -0 "$DPID" 2>/dev/null || { echo "smoke: daemon died at startup"; cat "$LOG"; exit 1; }
        sleep 0.1
    done
    [ -n "$ADDR" ] || { echo "smoke: daemon never reported its address"; cat "$LOG"; exit 1; }
}

# smoke_pass <shards> <njobs> <daemon extra args> [extra load args...]
smoke_pass() {
    local shards=$1 njobs=$2 dargs=$3; shift 3
    local LOG="$BIN/dollympd-$shards${dargs// /}.log"

    # shellcheck disable=SC2086
    start_daemon "$LOG" -queue-cap 128 -shards "$shards" $dargs
    echo "smoke: daemon at $ADDR (shards=$shards${dargs:+ $dargs})"

    # The error surface must be envelope-shaped before, and the happy
    # path must work during, load.
    "$BIN/dollymp-load" -addr "$ADDR" -probe -expect-shards "$shards"
    "$BIN/dollymp-load" -addr "$ADDR" -n "$njobs" -c "$WORKERS" "$@" -wait -timeout 90s

    kill -TERM "$DPID"
    wait "$DPID" || { echo "smoke: daemon exited non-zero"; cat "$LOG"; exit 1; }
    DPID=""
    grep -q "drained: $njobs submitted, $njobs completed" "$LOG" \
        || { echo "smoke: drain summary missing or wrong"; cat "$LOG"; exit 1; }
    echo "smoke: OK ($njobs jobs, shards=$shards${dargs:+ $dargs}, clean drain)"
}

# Kill-and-restart pass: no accepted job may survive only in memory.
# Submit N jobs, SIGKILL the daemon (no drain, no journal close),
# restart it on the same -journal-dir, and watch until all N complete —
# -min-replayed 1 requires the restart to have actually recovered state
# from the journal rather than starting empty.
smoke_crash() {
    local njobs=$1
    local JDIR="$BIN/journal"
    local LOG="$BIN/dollympd-crash-1.log"

    start_daemon "$LOG" -queue-cap 256 -shards 2 -journal-dir "$JDIR"
    echo "smoke: daemon at $ADDR (journal-dir, pre-crash)"
    "$BIN/dollymp-load" -addr "$ADDR" -n "$njobs" -c "$WORKERS" -batch 8
    kill -9 "$DPID"
    wait "$DPID" 2>/dev/null || true
    DPID=""

    LOG="$BIN/dollympd-crash-2.log"
    start_daemon "$LOG" -queue-cap 256 -shards 2 -journal-dir "$JDIR"
    echo "smoke: daemon at $ADDR (journal-dir, post-crash)"
    grep -q "^dollympd: journal " "$LOG" \
        || { echo "smoke: no replay summary after restart"; cat "$LOG"; exit 1; }
    "$BIN/dollymp-load" -addr "$ADDR" -n "$njobs" -watch -min-replayed 1 -timeout 90s

    kill -TERM "$DPID"
    wait "$DPID" || { echo "smoke: daemon exited non-zero"; cat "$LOG"; exit 1; }
    DPID=""
    grep -q "drained: $njobs submitted, $njobs completed" "$LOG" \
        || { echo "smoke: post-crash drain summary missing or wrong"; cat "$LOG"; exit 1; }
    echo "smoke: OK ($njobs jobs, SIGKILL + journal replay, zero loss)"
}

# Federation pass: two members behind a gateway; SIGKILL one member
# mid-run and require the gateway-driven journal takeover to finish
# every accepted job, with a non-zero replay counter on the survivor
# (after the kill, the merged /metrics is the survivor's alone).
smoke_federation() {
    local njobs=$1
    local FDIR="$BIN/fed"
    mkdir -p "$FDIR/a" "$FDIR/b"
    local MAN="$FDIR/fed.json"

    # Members read only their residues and journal dir; the URLs the
    # gateway routes by are filled in once the bound ports are known.
    cat >"$MAN" <<EOF
{"shards": 4, "members": [
  {"name": "m0", "journal_dir": "$FDIR/a", "residues": [0, 1]},
  {"name": "m1", "journal_dir": "$FDIR/b", "residues": [2, 3]}
]}
EOF
    start_daemon "$BIN/fed-m0.log" -queue-cap 256 -manifest "$MAN" -member m0
    local M0PID=$DPID M0ADDR=$ADDR
    EXTRA_PIDS="$EXTRA_PIDS $M0PID"; DPID=""
    start_daemon "$BIN/fed-m1.log" -queue-cap 256 -manifest "$MAN" -member m1
    local M1PID=$DPID M1ADDR=$ADDR
    EXTRA_PIDS="$EXTRA_PIDS $M1PID"; DPID=""

    cat >"$MAN" <<EOF
{"shards": 4, "members": [
  {"name": "m0", "url": "$M0ADDR", "journal_dir": "$FDIR/a", "residues": [0, 1]},
  {"name": "m1", "url": "$M1ADDR", "journal_dir": "$FDIR/b", "residues": [2, 3]}
]}
EOF
    start_daemon "$BIN/fed-gw.log" -gateway -manifest "$MAN" \
        -admission token-bucket -admission-rate 200 -admission-burst 4
    local GPID=$DPID GADDR=$ADDR
    EXTRA_PIDS="$EXTRA_PIDS $GPID"; DPID=""
    echo "smoke: federation gateway at $GADDR (members $M0ADDR $M1ADDR)"

    # The gateway's error surface is the members': same envelope, same
    # federated 4-shard topology. Every submission crosses the gateway,
    # whose round-robin spreads the jobs across BOTH members — the kill
    # below needs the victim's journal to hold work worth adopting — and
    # whose token bucket charges each batch of 8 against a burst of 4,
    # so intake completes only if a batch cut short by a denial still
    # forwards its admitted jobs.
    "$BIN/dollymp-load" -addr "$GADDR" -probe -expect-shards 4
    "$BIN/dollymp-load" -addr "$GADDR" -n "$njobs" -c "$WORKERS" -batch 8

    # SIGKILL one member: the gateway must declare it dead and have the
    # survivor adopt its journal; every accepted job still completes.
    kill -9 "$M1PID"
    wait "$M1PID" 2>/dev/null || true
    "$BIN/dollymp-load" -addr "$GADDR" -n "$njobs" -watch -min-replayed 1 -timeout 90s

    kill -TERM "$GPID"
    wait "$GPID" || { echo "smoke: gateway exited non-zero"; cat "$BIN/fed-gw.log"; exit 1; }
    kill -TERM "$M0PID"
    wait "$M0PID" || { echo "smoke: surviving member exited non-zero"; cat "$BIN/fed-m0.log"; exit 1; }
    EXTRA_PIDS=""
    # The survivor's drain summary must account for EVERY accepted job:
    # its own residues plus everything adopted from the dead member.
    grep -q "drained: $njobs submitted, $njobs completed" "$BIN/fed-m0.log" \
        || { echo "smoke: survivor drain summary missing or wrong"; cat "$BIN/fed-m0.log"; exit 1; }
    echo "smoke: OK ($njobs jobs, federation kill-one-of-2, takeover, zero loss)"
}

smoke_pass 1 "$JOBS" ""
smoke_pass 4 "$JOBS" "" -batch 8
# Skewed pass: -route single funnels everything onto shard 0's queue;
# -min-steals requires the rebalancer to have actually migrated work.
smoke_pass 4 $((JOBS * 8)) "-route single -steal" \
    -batch 8 -min-steals 1
# Edge admission: the token bucket throttles intake below the closed
# loop's offered rate, so completion proves the SDK retried through
# admission_denied; the fair pass labels jobs 4:1 and verifies the
# daemon's per-tenant filters and accounting agree with the assignment.
smoke_pass 1 "$JOBS" "-admission token-bucket -admission-rate 200 -admission-burst 8"
smoke_pass 2 "$JOBS" "-admission fair -admission-weights heavy=4,light=1" \
    -tenants heavy=4,light=1 -batch 4
smoke_crash "$JOBS"
smoke_federation "$JOBS"
echo "smoke: OK (all passes)"

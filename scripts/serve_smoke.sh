#!/usr/bin/env bash
# End-to-end smoke for the gippr-serve daemon, exercising the acceptance
# contract with the real binary: start on an ephemeral port, submit a grid
# over HTTP, stream NDJSON cells, fetch the manifest, check /metrics and
# /healthz, then SIGTERM and require a graceful drain with exit code 0.
# The first phase also submits a one-pass sweep job and requires its lattice
# point at the daemon's own geometry to carry the exact MPKI string the grid
# engine produced — the two engines must agree bit for bit over HTTP too —
# and an explain job via /v1/explain whose prose must cite the very MPKI
# strings the grid manifest carries (the why report explains the numbers it
# shares a replay with, not a reestimation of them). Bad submissions must
# get typed 400s, including a sweep lattice too large to allocate, after
# which /healthz must still answer 200.
# Before any of that, an out-of-range -warm must exit 2 without listening.
# A second phase proves the persistent result store: restart the daemon
# with the same -store directory, resubmit the identical job, and require
# a store hit in /metrics plus a byte-identical manifest (modulo the
# per-request job id) with zero recompute.
# A third phase proves the stream cache under <store>/streams: two more
# daemons on the same store each post the phase-2 grid plus a fresh IPV,
# so the result store misses. The first writes the streams the cold run
# only marked; the second must load every phase, capture none, and serve
# LRU and PLRU cells byte-identical to the cold manifest's.
#
# Usage: scripts/serve_smoke.sh   (run from the repo root; `make serve-smoke`)
set -euo pipefail

workdir=$(mktemp -d)
cleanup() {
    if [[ -n "${serve_pid:-}" ]] && kill -0 "$serve_pid" 2>/dev/null; then
        kill -KILL "$serve_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build"
go build -o "$workdir/gippr-serve" ./cmd/gippr-serve

echo "== out-of-range -warm exits 2 without listening"
code=0
timeout 20 "$workdir/gippr-serve" -addr localhost:0 -addr-file "$workdir/bad-addr" \
    -warm 1.5 2>"$workdir/bad.log" || code=$?
if [[ "$code" -ne 2 ]]; then
    echo "gippr-serve -warm 1.5 exited $code, want 2:" >&2
    cat "$workdir/bad.log" >&2
    exit 1
fi
[[ ! -e "$workdir/bad-addr" ]] || { echo "gippr-serve -warm 1.5 listened before refusing" >&2; exit 1; }
grep -q -- '-warm 1.5' "$workdir/bad.log" || { echo "refusal does not name -warm:" >&2; cat "$workdir/bad.log" >&2; exit 1; }

echo "== start"
"$workdir/gippr-serve" \
    -addr localhost:0 -addr-file "$workdir/addr" \
    -records 4000 -jobs 2 -queue 4 \
    2>"$workdir/serve.log" &
serve_pid=$!

for _ in $(seq 1 100); do
    [[ -s "$workdir/addr" ]] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "daemon died during startup:" >&2
        cat "$workdir/serve.log" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(cat "$workdir/addr")
[[ -n "$addr" ]] || { echo "no address written" >&2; exit 1; }
echo "   listening on $addr"

echo "== health"
curl -sf "http://$addr/healthz" >/dev/null

echo "== submit"
job=$(curl -sf "http://$addr/v1/jobs" -d '{
    "workloads": ["mcf_like", "libquantum_like"],
    "policies":  ["lru", "plru"]
}')
id=$(sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p' <<<"$job" | head -1)
[[ -n "$id" ]] || { echo "submit returned no job id: $job" >&2; exit 1; }
echo "   job $id"

echo "== stream (NDJSON)"
stream=$(curl -sfN "http://$addr/v1/jobs/$id/stream")
cells=$(grep -c '"workload"' <<<"$stream")
if [[ "$cells" -ne 4 ]]; then
    echo "streamed $cells cells, want 4:" >&2
    echo "$stream" >&2
    exit 1
fi
grep -q '"state":"done"' <<<"$stream" || { echo "stream trailer missing done state" >&2; exit 1; }

echo "== result manifest"
result=$(curl -sf "http://$addr/v1/jobs/$id/result")
grep -q '"fingerprint": "gippr-serve|v2|' <<<"$result" || { echo "bad fingerprint" >&2; exit 1; }
grep -q 'size=' <<<"$result" || { echo "fingerprint missing cache geometry" >&2; exit 1; }
rcells=$(grep -c '"workload"' <<<"$result")
[[ "$rcells" -eq 4 ]] || { echo "manifest has $rcells cells, want 4" >&2; exit 1; }

echo "== one-pass sweep job matches the grid engine"
grid_mpki=$(tr -d '\n ' <<<"$result" | sed -n 's/.*"workload":"mcf_like","policy":"LRU","mpki":\([^,]*\),.*/\1/p')
[[ -n "$grid_mpki" ]] || { echo "could not extract the grid lru MPKI from: $result" >&2; exit 1; }
sweep_body='{"workloads": ["mcf_like"],
             "sweep": {"min_sets": 4096, "max_sets": 4096, "max_ways": 16,
                       "plru": [{"sets": 4096, "ways": 16}]}}'
sjob=$(curl -sf "http://$addr/v1/jobs" -d "$sweep_body")
sid=$(sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p' <<<"$sjob" | head -1)
[[ -n "$sid" ]] || { echo "sweep submit returned no job id: $sjob" >&2; exit 1; }
curl -sfN "http://$addr/v1/jobs/$sid/stream" >/dev/null # blocks until terminal
sresult=$(curl -sf "http://$addr/v1/jobs/$sid/result")
scells=$(grep -c '"workload"' <<<"$sresult")
[[ "$scells" -eq 17 ]] || { echo "sweep manifest has $scells cells, want 17 (16 lru + 1 plru)" >&2; exit 1; }
grep -q '"sweep"' <<<"$sresult" || { echo "sweep manifest missing the lattice section" >&2; exit 1; }
sweep_mpki=$(tr -d '\n ' <<<"$sresult" | sed -n 's/.*"workload":"mcf_like","policy":"lru@4096x16","mpki":\([^,]*\),.*/\1/p')
[[ -n "$sweep_mpki" ]] || { echo "sweep manifest has no lru@4096x16 cell: $sresult" >&2; exit 1; }
if [[ "$grid_mpki" != "$sweep_mpki" ]]; then
    echo "one-pass lru@4096x16 MPKI $sweep_mpki != grid engine lru MPKI $grid_mpki" >&2
    exit 1
fi
echo "   lru@4096x16 MPKI $sweep_mpki identical to the grid engine's"

echo "== explain job cites the grid engine's MPKI strings"
plru_mpki=$(tr -d '\n ' <<<"$result" | sed -n 's/.*"workload":"mcf_like","policy":"PLRU","mpki":\([^,]*\),.*/\1/p')
[[ -n "$plru_mpki" ]] || { echo "could not extract the grid plru MPKI from: $result" >&2; exit 1; }
ejob=$(curl -sf "http://$addr/v1/explain" -d '{
    "workloads": ["mcf_like"],
    "explain": {"policy_a": "lru", "policy_b": "plru"}
}')
eid=$(sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p' <<<"$ejob" | head -1)
[[ -n "$eid" ]] || { echo "explain submit returned no job id: $ejob" >&2; exit 1; }
curl -sfN "http://$addr/v1/jobs/$eid/stream" >/dev/null # blocks until terminal
eresult=$(curl -sf "http://$addr/v1/jobs/$eid/result")
grep -q '|explain=v1' <<<"$eresult" || { echo "explain fingerprint missing |explain=v1: $eresult" >&2; exit 1; }
grep -q '"workload": "mcf_like"' <<<"$eresult" || { echo "explain result missing the workload: $eresult" >&2; exit 1; }
# The headline figures must spell the exact strings the grid manifest
# carries — the why report and the numbers it explains are one source of
# truth, bit for bit, over HTTP too — and the prose must cite them (every
# prose branch spells MPKI A with the same JSON string).
emp_a=$(tr -d '\n ' <<<"$eresult" | sed -n 's/.*"mpki_a":\([^,]*\),.*/\1/p')
emp_b=$(tr -d '\n ' <<<"$eresult" | sed -n 's/.*"mpki_b":\([^,]*\),.*/\1/p')
if [[ "$emp_a" != "$grid_mpki" || "$emp_b" != "$plru_mpki" ]]; then
    echo "explain MPKIs ($emp_a, $emp_b) differ from grid strings ($grid_mpki, $plru_mpki)" >&2
    exit 1
fi
if ! grep -qF "MPKI $grid_mpki" <<<"$eresult" || ! grep -qF "$plru_mpki" <<<"$eresult"; then
    echo "explain prose does not cite grid MPKIs $grid_mpki / $plru_mpki: $eresult" >&2
    exit 1
fi
echo "   explanation cites MPKI $grid_mpki / $plru_mpki, matching the grid manifest"

echo "== validation is typed (400 on unknown policy / impossible or oversized sweep)"
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/v1/jobs" -d '{"policies": ["nope"]}')
[[ "$code" == 400 ]] || { echo "unknown policy returned $code, want 400" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/v1/jobs" \
    -d '{"sweep": {"min_sets": 4096, "max_sets": 4096, "max_ways": 16, "plru": [{"sets": 4096, "ways": 200}]}}')
[[ "$code" == 400 ]] || { echo "impossible tree-PLRU sweep returned $code, want 400" >&2; exit 1; }
# A lattice too large to allocate must be refused at submission: running it
# would throw out-of-memory, which no recover catches, and kill the daemon.
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/v1/jobs" \
    -d '{"workloads":["mcf_like"],"sweep":{"min_sets":8589934592,"max_sets":8589934592,"max_ways":1}}')
[[ "$code" == 400 ]] || { echo "oversized sweep lattice returned $code, want 400" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/healthz")
[[ "$code" == 200 ]] || { echo "healthz returned $code after an oversized lattice, want 200" >&2; exit 1; }

echo "== metrics"
metrics=$(curl -sf "http://$addr/metrics")
grep -q '"jobs_done": 3' <<<"$metrics" || { echo "metrics missing completed jobs: $metrics" >&2; exit 1; }

echo "== SIGTERM drains and exits 0"
kill -TERM "$serve_pid"
rc=0
wait "$serve_pid" || rc=$?
serve_pid=
if [[ "$rc" -ne 0 ]]; then
    echo "daemon exited $rc after SIGTERM, want 0:" >&2
    cat "$workdir/serve.log" >&2
    exit 1
fi
grep -q "drained, exiting" "$workdir/serve.log" || { echo "drain log line missing" >&2; exit 1; }

# ---------------------------------------------------------------------------
# Phase 2: the persistent result store survives a restart. Run a daemon with
# -store, compute once, SIGTERM it, restart over the same directory, resubmit
# the identical job, and require (a) the /metrics store-hit counter moved,
# (b) the manifest is byte-identical to the pre-restart one once the
# per-request job id is stripped.
# ---------------------------------------------------------------------------

store="$workdir/store"
job_body='{"workloads": ["mcf_like", "libquantum_like"], "policies": ["lru", "plru"]}'

start_store_daemon() { # $1 = addr-file suffix, $2 = log suffix
    "$workdir/gippr-serve" \
        -addr localhost:0 -addr-file "$workdir/addr$1" \
        -records 4000 -jobs 2 -queue 4 \
        -store "$store" \
        2>"$workdir/serve$2.log" &
    serve_pid=$!
    for _ in $(seq 1 100); do
        [[ -s "$workdir/addr$1" ]] && break
        if ! kill -0 "$serve_pid" 2>/dev/null; then
            echo "store daemon died during startup:" >&2
            cat "$workdir/serve$2.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    addr=$(cat "$workdir/addr$1")
    [[ -n "$addr" ]] || { echo "no address written" >&2; exit 1; }
}

run_store_job() { # submits $job_body, waits via the stream, echoes the id-stripped manifest
    local job id
    job=$(curl -sf "http://$addr/v1/jobs" -d "$job_body")
    id=$(sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p' <<<"$job" | head -1)
    [[ -n "$id" ]] || { echo "store submit returned no job id: $job" >&2; exit 1; }
    curl -sfN "http://$addr/v1/jobs/$id/stream" >/dev/null # blocks until terminal
    curl -sf "http://$addr/v1/jobs/$id/result" | sed '/"id":/d'
}

echo "== store: cold start computes and persists"
start_store_daemon "2" "2"
echo "   listening on $addr (store $store)"
cold=$(run_store_job)
metrics=$(curl -sf "http://$addr/metrics")
grep -q '"store_misses": 1' <<<"$metrics" || { echo "cold run did not miss the store: $metrics" >&2; exit 1; }
grep -q '"store_entries": 1' <<<"$metrics" || { echo "cold run did not persist an entry: $metrics" >&2; exit 1; }
kill -TERM "$serve_pid"
rc=0
wait "$serve_pid" || rc=$?
serve_pid=
[[ "$rc" -eq 0 ]] || { echo "store daemon exited $rc after SIGTERM, want 0" >&2; cat "$workdir/serve2.log" >&2; exit 1; }

echo "== store: warm restart serves from disk"
start_store_daemon "3" "3"
echo "   listening on $addr"
warm=$(run_store_job)
metrics=$(curl -sf "http://$addr/metrics")
grep -q '"store_hits": 1' <<<"$metrics" || { echo "warm restart did not hit the store: $metrics" >&2; exit 1; }
grep -q '"llc_accesses": 0' <<<"$metrics" || { echo "warm restart replayed the grid (llc_accesses moved): $metrics" >&2; exit 1; }
if [[ "$cold" != "$warm" ]]; then
    echo "restarted manifest differs from the original:" >&2
    diff <(echo "$cold") <(echo "$warm") >&2 || true
    exit 1
fi
echo "   manifests byte-identical across restart"
kill -TERM "$serve_pid"
rc=0
wait "$serve_pid" || rc=$?
serve_pid=
[[ "$rc" -eq 0 ]] || { echo "store daemon exited $rc after final SIGTERM, want 0" >&2; exit 1; }

# ---------------------------------------------------------------------------
# Phase 3: the stream cache. mcf_like has two phases and libquantum_like
# one, so each daemon below builds three phase streams.
# ---------------------------------------------------------------------------

default_cells() { # the LRU and PLRU cells of a manifest, one compact object a line
    tr -d '\n ' | grep -oE '\{"workload":"[^"]*","policy":"(LRU|PLRU)"[^}]*\}'
}
stop_store_daemon() { # $1 = log suffix
    kill -TERM "$serve_pid"
    rc=0
    wait "$serve_pid" || rc=$?
    serve_pid=
    [[ "$rc" -eq 0 ]] || { echo "store daemon exited $rc after SIGTERM, want 0" >&2; cat "$workdir/serve$1.log" >&2; exit 1; }
}

echo "== streams: a second capture writes the stream files"
start_store_daemon "4" "4"
grep -q "streams in $store/streams" "$workdir/serve4.log" || { echo "start-up line does not name the stream dir:" >&2; cat "$workdir/serve4.log" >&2; exit 1; }
job_body='{"workloads": ["mcf_like", "libquantum_like"], "policies": ["lru", "plru"], "ipv": "0,0,1,0,3,0,1,2,1,0,5,1,0,0,1,11,13"}'
run_store_job >/dev/null
metrics=$(curl -sf "http://$addr/metrics")
for want in '"store_misses": 1' '"stream_captures": 3' '"stream_writes": 3' '"stream_corrupt": 0'; do
    grep -q "$want" <<<"$metrics" || { echo "second capture: metrics lack $want: $metrics" >&2; exit 1; }
done
stop_store_daemon "4"

echo "== streams: a later restart loads every phase"
start_store_daemon "5" "5"
job_body='{"workloads": ["mcf_like", "libquantum_like"], "policies": ["lru", "plru"], "ipv": "15,14,13,12,11,10,9,8,7,6,5,4,3,2,1,0,0"}'
loaded=$(run_store_job)
metrics=$(curl -sf "http://$addr/metrics")
for want in '"store_misses": 1' '"stream_captures": 0' '"stream_loads": 3' '"stream_corrupt": 0'; do
    grep -q "$want" <<<"$metrics" || { echo "restart over written streams: metrics lack $want: $metrics" >&2; exit 1; }
done
cold_cells=$(default_cells <<<"$cold")
[[ $(wc -l <<<"$cold_cells") -eq 4 ]] || { echo "cold manifest has no 4 LRU/PLRU cells: $cold" >&2; exit 1; }
if [[ "$(default_cells <<<"$loaded")" != "$cold_cells" ]]; then
    echo "cells over loaded streams differ from the cold manifest's:" >&2
    diff <(echo "$cold_cells") <(default_cells <<<"$loaded") >&2 || true
    exit 1
fi
echo "   3 phases loaded, none captured; LRU and PLRU cells byte-identical to the cold run"
stop_store_daemon "5"

echo "PASS: serve smoke"

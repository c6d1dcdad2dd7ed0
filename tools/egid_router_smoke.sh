#!/usr/bin/env bash
# End-to-end smoke test for the egid-router sharding front door: boot two
# egid shards behind one router, drive load through the router (zero
# rejects), install a 3-shard map mid-load (live migration must be
# invisible to the client), checkpoint fan-out, SIGKILL one shard under
# load (typed rejects, not stalls), restart it on the same ports, watch
# the health probes bring it back, and prove clean load again. CI runs
# this under `timeout`; locally:
#
#   tools/egid_router_smoke.sh build
#
# The only argument is the build directory holding the egid, egid_router
# and loadgen binaries. Exits non-zero (with a FAIL line) on the first
# broken step.
set -u -o pipefail

BUILD_DIR=${1:-build}
EGID="$BUILD_DIR/egid"
ROUTER="$BUILD_DIR/egid_router"
LOADGEN="$BUILD_DIR/loadgen"
WORK=$(mktemp -d)

# Shard state, indexed by shard number.
declare -a SHARD_PID SHARD_HTTP SHARD_INGEST
ROUTER_PID=""
ROUTER_HTTP=""
ROUTER_INGEST=""

dump_log() {  # dump_log LABEL PATH
  if [[ -s $2 ]]; then
    echo "--- $1 log ($2) ---" >&2
    cat "$2" >&2
  else
    echo "--- $1 log is empty ---" >&2
  fi
}

fail() {
  echo "FAIL: $*" >&2
  [[ -f $WORK/router.log ]] && dump_log "egid-router" "$WORK/router.log"
  for i in "${!SHARD_PID[@]}"; do
    [[ -f $WORK/shard$i.log ]] && dump_log "shard $i" "$WORK/shard$i.log"
  done
  kill_all
  rm -rf "$WORK"
  exit 1
}

kill_all() {
  [[ -n $ROUTER_PID ]] && kill -9 "$ROUTER_PID" 2>/dev/null
  for pid in "${SHARD_PID[@]:-}"; do
    [[ -n $pid ]] && kill -9 "$pid" 2>/dev/null
  done
  wait 2>/dev/null
}

[[ -x $EGID ]] || { echo "FAIL: egid binary not found at $EGID" >&2; exit 1; }
[[ -x $ROUTER ]] || { echo "FAIL: egid_router binary not found at $ROUTER" >&2; exit 1; }
[[ -x $LOADGEN ]] || { echo "FAIL: loadgen binary not found at $LOADGEN" >&2; exit 1; }

# CLI contract: --help and a missing --shards both exit 2 with the usage.
"$ROUTER" --help >/dev/null 2>"$WORK/cli.err"
RC=$?
[[ $RC -eq 2 ]] || fail "egid_router --help exited $RC, want 2"
grep -q '^usage: egid_router ' "$WORK/cli.err" \
  || fail "egid_router --help printed no usage"
env -u EGID_ROUTER_SHARDS "$ROUTER" >/dev/null 2>"$WORK/cli.err"
RC=$?
[[ $RC -eq 2 ]] || fail "egid_router without --shards exited $RC, want 2"

# wait_banner LABEL LOG PID PATTERN — fail fast with the process's captured
# stderr if it dies or never prints its ready banner.
wait_banner() {
  local label=$1 log=$2 pid=$3 pattern=$4
  for _ in $(seq 100); do
    grep -q "$pattern" "$log" 2>/dev/null && return 0
    kill -0 "$pid" 2>/dev/null \
      || fail "$label (pid $pid) died during startup; its captured output follows"
    sleep 0.1
  done
  fail "$label (pid $pid) did not print its ready banner within 10s"
}

# start_shard IDX [extra egid flags...] — boots shard IDX on its recorded
# ports (0 = fresh ephemeral) with its own checkpoint file, then records
# the ports parsed from the ready banner.
start_shard() {
  local idx=$1
  shift
  local log="$WORK/shard$idx.log"
  "$EGID" --window=16 --buffer=256 --refit-interval=64 --workers=2 \
          --checkpoint="$WORK/shard$idx.egis" \
          --http-port="${SHARD_HTTP[$idx]:-0}" \
          --ingest-port="${SHARD_INGEST[$idx]:-0}" \
          "$@" >"$log" 2>&1 &
  SHARD_PID[$idx]=$!
  wait_banner "shard $idx" "$log" "${SHARD_PID[$idx]}" '^egid ready'
  grep -Eq '^egid ready http=[0-9]+ ingest=[0-9]+ streams=[0-9]+$' "$log" \
    || fail "unexpected shard $idx ready banner: $(grep ready "$log")"
  SHARD_HTTP[$idx]=$(sed -n 's/^egid ready http=\([0-9]*\).*/\1/p' "$log" | tail -1)
  SHARD_INGEST[$idx]=$(sed -n 's/.*ingest=\([0-9]*\).*/\1/p' "$log" | tail -1)
  [[ -n ${SHARD_HTTP[$idx]} && -n ${SHARD_INGEST[$idx]} ]] \
    || fail "could not parse shard $idx ports"
}

shard_endpoint() {  # shard_endpoint IDX -> HOST:HTTP:INGEST
  echo "127.0.0.1:${SHARD_HTTP[$1]}:${SHARD_INGEST[$1]}"
}

start_router() {  # start_router SHARDS_CSV
  "$ROUTER" --shards="$1" --probe-interval=0.2 --probe-backoff-max=0.5 \
            --acquire-timeout=2 >"$WORK/router.log" 2>&1 &
  ROUTER_PID=$!
  wait_banner "egid-router" "$WORK/router.log" "$ROUTER_PID" '^egid-router ready'
  # The banner CI's sed and perfbench/src/proc.cc parse.
  grep -Eq '^egid-router ready http=[0-9]+ ingest=[0-9]+ shards=[0-9]+$' "$WORK/router.log" \
    || fail "unexpected router ready banner: $(grep ready "$WORK/router.log")"
  ROUTER_HTTP=$(sed -n 's/^egid-router ready http=\([0-9]*\).*/\1/p' "$WORK/router.log" | tail -1)
  ROUTER_INGEST=$(sed -n 's/.*ingest=\([0-9]*\).*/\1/p' "$WORK/router.log" | tail -1)
  [[ -n $ROUTER_HTTP && -n $ROUTER_INGEST ]] || fail "could not parse router ports"
}

rhttp() {  # rhttp METHOD PATH [BODY] -> body on stdout
  local body
  if [[ $# -ge 3 ]]; then
    body=$(curl -sS -X "$1" --data-binary "$3" "http://127.0.0.1:$ROUTER_HTTP$2")
  else
    body=$(curl -sS -X "$1" "http://127.0.0.1:$ROUTER_HTTP$2")
  fi || {
    if kill -0 "$ROUTER_PID" 2>/dev/null; then
      fail "curl $1 $2 failed but egid-router (pid $ROUTER_PID) is still running"
    else
      fail "egid-router (pid $ROUTER_PID) died before $1 $2"
    fi
  }
  printf '%s\n' "$body"
}

json_field() {  # json_field KEY <<< JSON -> integer value
  sed -n "s/.*\"$1\":\([0-9][0-9]*\).*/\1/p" | head -1
}

# ---------------------------------------------------------------- phase 1
# Two shards, one router; a clean load through the router must be lossless.
start_shard 0
start_shard 1
start_router "$(shard_endpoint 0),$(shard_endpoint 1)"
echo "router up: http=$ROUTER_HTTP ingest=$ROUTER_INGEST over 2 shards"

"$LOADGEN" --http-port="$ROUTER_HTTP" --ingest-port="$ROUTER_INGEST" \
           --streams=40 --conns=4 --batch=20 --rounds=3 \
  || fail "lossless loadgen through the router (phase 1)"

rhttp GET /healthz | grep -q '"status":"ok"' || fail "router healthz after load"
rhttp GET /v1/shards | grep -q '"version":1' || fail "initial shard map version"
rhttp GET /metrics | python3 -m json.tool >/dev/null || fail "/metrics is not JSON"

# ---------------------------------------------------------------- phase 2
# Live reshard: install a 3-shard map while a loadgen run is in flight.
# The client must see zero rejects — migration is checkpoint handoff, not
# connection churn.
start_shard 2
"$LOADGEN" --http-port="$ROUTER_HTTP" --ingest-port="$ROUTER_INGEST" \
           --streams=40 --conns=4 --batch=5 --rounds=400 \
  >"$WORK/loadgen_migrate.json" 2>&1 &
LG_PID=$!
sleep 0.4
MAP=$(rhttp POST /v1/shards \
  "{\"shards\":[\"$(shard_endpoint 0)\",\"$(shard_endpoint 1)\",\"$(shard_endpoint 2)\"]}")
echo "reshard: $MAP"
echo "$MAP" | grep -q '"version":2' || fail "reshard did not bump the map version: $MAP"
echo "$MAP" | grep -q '"failed":0' || fail "reshard reported failed migrations: $MAP"
MOVED=$(echo "$MAP" | json_field moved)
[[ -n $MOVED && $MOVED -ge 1 ]] || fail "reshard moved no streams: $MAP"
if ! wait "$LG_PID"; then
  cat "$WORK/loadgen_migrate.json" >&2
  fail "loadgen saw rejects during live migration (phase 2)"
fi
rhttp GET /v1/shards | grep -q "$(shard_endpoint 2)" \
  || fail "shard map did not grow to include shard 2"

# Checkpoint fan-out: one POST on the router checkpoints every shard.
rhttp POST /v1/checkpoint | grep -q '"checkpointed":true' \
  || fail "checkpoint fan-out"
for i in 0 1 2; do
  [[ -s $WORK/shard$i.egis ]] || fail "shard $i checkpoint file missing"
done

# ---------------------------------------------------------------- phase 3
# SIGKILL one shard under load: its streams must turn into fast typed
# rejects (the other shards keep acking), health must degrade, and a
# restart on the same ports must be picked up by the probes.
"$LOADGEN" --http-port="$ROUTER_HTTP" --ingest-port="$ROUTER_INGEST" \
           --streams=30 --conns=3 --batch=5 --rounds=2000 \
  >"$WORK/loadgen_kill.json" 2>&1 &
LG_PID=$!
sleep 0.6
kill -9 "${SHARD_PID[1]}"
echo "killed shard 1 (pid ${SHARD_PID[1]}) under load"
if wait "$LG_PID"; then
  cat "$WORK/loadgen_kill.json" >&2
  fail "loadgen exited 0 despite a dead shard (phase 3)"
fi
REJECTS=$(json_field rejects <"$WORK/loadgen_kill.json")
ACCEPTED=$(json_field points_accepted <"$WORK/loadgen_kill.json")
[[ -n $REJECTS && $REJECTS -ge 1 ]] \
  || fail "expected typed rejects after shard loss: $(cat "$WORK/loadgen_kill.json")"
[[ -n $ACCEPTED && $ACCEPTED -ge 1 ]] \
  || fail "surviving shards accepted nothing: $(cat "$WORK/loadgen_kill.json")"
echo "shard loss: $ACCEPTED points accepted on survivors, $REJECTS typed rejects"
rhttp GET /healthz | grep -q '"status":"degraded"' \
  || fail "router healthz did not degrade after shard loss"

# Restart the shard on its recorded ports; restore-on-boot reloads its
# checkpoint and the router's probes must flip it healthy again.
start_shard 1
for _ in $(seq 100); do
  rhttp GET /healthz | grep -q '"status":"ok"' && break
  sleep 0.1
done
rhttp GET /healthz | grep -q '"status":"ok"' \
  || fail "router probes never recovered the restarted shard"
echo "shard 1 restarted and probed healthy again"

"$LOADGEN" --http-port="$ROUTER_HTTP" --ingest-port="$ROUTER_INGEST" \
           --streams=30 --conns=3 --batch=20 --rounds=3 \
  || fail "lossless loadgen after shard recovery (phase 3)"

kill_all
rm -rf "$WORK"
echo "PASS: egid-router smoke (shard, reshard under load, kill, recover)"

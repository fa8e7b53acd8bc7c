#!/usr/bin/env bash
# datd_fleet.sh — a minimal real-process deployment of the monitoring ring.
#
# Boots a small fleet of datd daemons on loopback (one --create bootstrap
# seed, the rest joining through it with retry+backoff), inspects it with
# datctl remote, drains one daemon with SIGTERM and checks it exits 0, then
# tears the fleet down. This is the by-hand version of what dat_supervisor
# automates at 64 nodes: a datd::ProcessFleet forks the daemons and
# chaos::Campaign runs a seeded kill plan against them, judging each phase.
#
#   ./examples/datd_fleet.sh [build-dir] [nodes] [base-port]
#
# Exits non-zero if the fleet fails to answer status or the drained daemon
# does not exit cleanly.

set -euo pipefail

BUILD_DIR="${1:-build}"
NODES="${2:-5}"
BASE_PORT="${3:-9600}"
DATD="$BUILD_DIR/tools/datd"
DATCTL="$BUILD_DIR/tools/datctl"

[ -x "$DATD" ] || { echo "missing $DATD (build the datd target first)"; exit 2; }
[ -x "$DATCTL" ] || { echo "missing $DATCTL"; exit 2; }

PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill -9 "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
}
trap cleanup EXIT

echo "== boot: 1 seed + $((NODES - 1)) joiners on 127.0.0.1:$BASE_PORT.."
"$DATD" --create=true --port="$BASE_PORT" --value=1 --replicas=2 \
  --epoch-ms=150 2>/dev/null &
PIDS+=($!)
for i in $(seq 1 $((NODES - 1))); do
  "$DATD" --port=$((BASE_PORT + i)) --seeds="127.0.0.1:$BASE_PORT" \
    --value=$((i + 1)) --replicas=2 --epoch-ms=150 --seed="$i" 2>/dev/null &
  PIDS+=($!)
done

echo "== wait: every daemon answering datctl remote status"
for i in $(seq 0 $((NODES - 1))); do
  port=$((BASE_PORT + i))
  for attempt in $(seq 1 60); do
    if "$DATCTL" remote status --target="127.0.0.1:$port" 2>/dev/null; then
      break
    fi
    [ "$attempt" -eq 60 ] && { echo "daemon on :$port never came up"; exit 1; }
    sleep 0.5
  done
done

echo "== settle: a few push epochs, then scrape the seed's telemetry"
sleep 2
"$DATCTL" remote metrics --target="127.0.0.1:$BASE_PORT" --format=prom \
  | grep -E '^dat_daemon_(uptime_us|incarnation)' || {
  echo "telemetry scrape missing daemon series"; exit 1; }

echo "== drain: SIGTERM the last joiner; it must hand off and exit 0"
victim_pid="${PIDS[$((NODES - 1))]}"
kill -TERM "$victim_pid"
if ! timeout 15 bash -c "wait $victim_pid" 2>/dev/null; then
  # wait only works for children of the same shell; poll instead.
  for attempt in $(seq 1 60); do
    kill -0 "$victim_pid" 2>/dev/null || break
    sleep 0.25
  done
fi
if kill -0 "$victim_pid" 2>/dev/null; then
  echo "drained daemon still running after deadline"; exit 1
fi

echo "== survivors still serving"
"$DATCTL" remote status --target="127.0.0.1:$BASE_PORT" --json
echo "== done (cleanup will SIGKILL the survivors)"

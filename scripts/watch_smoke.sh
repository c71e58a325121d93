#!/usr/bin/env bash
# Smoke test for the online-repair watch subsystem: start `tml serve`,
# register a watch, stream a violating trace file in small chunks, and
# assert a background follower receives both the violation push and the
# completed repair report, that the stats reply reports the
# subscription, that --from-seq replay serves the full history to a
# late subscriber, and that a client's batch submit of the same trace
# file is the watch's last repair job, already cached.
#
# With --chaos, two failure drills on top:
#   1. the follower is SIGKILLed mid-stream, more violations fire while
#      nobody is subscribed, and a reconnect with --from-seq 0 must
#      replay every violation (bounded replay log => zero missed events);
#   2. a fleet backend is SIGKILLed while watches are live on the
#      coordinator: appends must keep working (watch state lives on the
#      coordinator, not the dead backend) and repair notifications must
#      still arrive via re-routing.
#
# Usage: scripts/watch_smoke.sh [--chaos]
set -euo pipefail

cd "$(dirname "$0")/.."

CHAOS=0
[ "${1:-}" = "--chaos" ] && CHAOS=1

dune build bin/tml_cli.exe
TML=_build/default/bin/tml_cli.exe

WORK=$(mktemp -d)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

wait_up() { # log-file
  for _ in $(seq 1 50); do
    grep -q "listening on unix:" "$1" 2>/dev/null && return 0
    sleep 0.1
  done
  echo "server never came up:"; cat "$1"; exit 1
}

wait_grep() { # pattern file tries what
  for _ in $(seq 1 "${3:-100}"); do
    grep -q "$1" "$2" 2>/dev/null && return 0
    sleep 0.1
  done
  echo "FAIL: never saw $4 (pattern $1) in $2"; cat "$2" 2>/dev/null; exit 1
}

# 3 traces in 4, delivery ends in state 2 => P(F two) = 0.75 > 0.5:
# every prefix of the stream violates the watched bound.
cat > "$WORK/trace.txt" <<'EOF'
0 2 2
0 2 2
0 2 2
0 1 1
0 2 2
0 2 2
0 2 2
0 1 1
EOF

SPEC=(--states 3 --prop 'P<=0.5 [ F two ]' --label two:2 --max-drop 0.9 --starts 2)

# ----------------------------------------------------------------------
# Single server: register + follow + chunked append => violation and
# repair pushes, stats section, replay, unwatch.
# ----------------------------------------------------------------------

SOCK="$WORK/serve.sock"
"$TML" serve --socket "$SOCK" --workers 2 > "$WORK/serve.log" 2>&1 &
PIDS+=($!)
wait_up "$WORK/serve.log"
echo "server up"

"$TML" watch register w1 --socket "$SOCK" "${SPEC[@]}" > "$WORK/register.log"
grep -q "watch w1 created" "$WORK/register.log" \
  || { echo "FAIL: register"; cat "$WORK/register.log"; exit 1; }

"$TML" watch follow w1 --socket "$SOCK" --max-events 4 --idle-exit 15 \
  > "$WORK/follow.log" 2>&1 &
FOLLOW_PID=$!
PIDS+=("$FOLLOW_PID")
wait_grep "following w1" "$WORK/follow.log" 50 "follower attach"

# subscription visible in the stats reply's server section
"$TML" client stats --socket "$SOCK" > "$WORK/stats.log"
grep -q "subscriptions=1" "$WORK/stats.log" \
  || { echo "FAIL: stats does not count the subscription"; cat "$WORK/stats.log"; exit 1; }

"$TML" watch append w1 --socket "$SOCK" --file "$WORK/trace.txt" \
  --chunk-bytes 16 > "$WORK/append.log"
grep -q "violated=true" "$WORK/append.log" \
  || { echo "FAIL: no violating chunk"; cat "$WORK/append.log"; exit 1; }
grep -q "job=" "$WORK/append.log" \
  || { echo "FAIL: violation submitted no repair job"; cat "$WORK/append.log"; exit 1; }
echo "chunked append: $(grep -c 'violated=true' "$WORK/append.log") violating chunk(s)"

wait_grep '"event":"violation"' "$WORK/follow.log" 100 "violation push"
wait_grep '"event":"repair"' "$WORK/follow.log" 300 "repair push"
echo "follower got violation + repair pushes"

# late subscriber: --from-seq 0 replays the full logged history
"$TML" watch follow w1 --socket "$SOCK" --from-seq 0 --max-events 2 \
  --idle-exit 10 > "$WORK/replay.log" 2>&1
grep -q '"event":"violation"' "$WORK/replay.log" \
  || { echo "FAIL: replay missed the violation"; cat "$WORK/replay.log"; exit 1; }
echo "from-seq replay served the history"

# cross-form batch == stream: the watch submits its history as per-group
# tallies; a client submitting the same history as trace text names the
# same job, already settled by the watch's repair
VIOLATIONS=$(grep -c 'violated=true' "$WORK/append.log")
LAST_JOB=$(grep -o 'job=[0-9a-f]*' "$WORK/append.log" | tail -1 | cut -d= -f2)
"$TML" watch follow w1 --socket "$SOCK" --from-seq 0 \
  --max-events $((2 * VIOLATIONS)) --idle-exit 30 > "$WORK/all.log" 2>&1 || true
grep '"event":"repair"' "$WORK/all.log" | grep -q "\"job\":\"$LAST_JOB\"" \
  || { echo "FAIL: no repair push for the last job $LAST_JOB"; cat "$WORK/all.log"; exit 1; }
BATCH=$("$TML" client data-repair --socket "$SOCK" --async -t "$WORK/trace.txt" \
  --init 0 "${SPEC[@]}")
[ "$BATCH" = "$LAST_JOB (cached)" ] \
  || { echo "FAIL: batch submit printed '$BATCH', want '$LAST_JOB (cached)'"; exit 1; }
echo "batch trace submit = the watch's last repair job (cached)"

"$TML" watch unwatch w1 --socket "$SOCK" | grep -q "unwatched w1" \
  || { echo "FAIL: unwatch"; exit 1; }

if [ "$CHAOS" = 0 ]; then
  echo "PASS"
  exit 0
fi

# ----------------------------------------------------------------------
# Chaos drill 1: SIGKILL the subscriber mid-stream; violations fired
# while nobody listens must still reach a reconnecting follower via the
# replay log.
# ----------------------------------------------------------------------

"$TML" watch register w2 --socket "$SOCK" "${SPEC[@]}" > /dev/null
"$TML" watch follow w2 --socket "$SOCK" --max-events 99 --idle-exit 30 \
  > "$WORK/chaos-follow.log" 2>&1 &
CF_PID=$!
PIDS+=("$CF_PID")
wait_grep "following w2" "$WORK/chaos-follow.log" 50 "chaos follower attach"

head -4 "$WORK/trace.txt" > "$WORK/part1.txt"
"$TML" watch append w2 --socket "$SOCK" --file "$WORK/part1.txt" > /dev/null
wait_grep '"event":"violation"' "$WORK/chaos-follow.log" 100 "pre-kill violation"

kill -9 "$CF_PID"
echo "chaos: SIGKILLed follower (pid $CF_PID)"

# two more violating appends with zero subscribers attached
tail -4 "$WORK/trace.txt" > "$WORK/part2.txt"
"$TML" watch append w2 --socket "$SOCK" --file "$WORK/part2.txt" > /dev/null
"$TML" watch append w2 --socket "$SOCK" --file "$WORK/part1.txt" > /dev/null

# reconnect from the beginning: all three violations must replay
"$TML" watch follow w2 --socket "$SOCK" --from-seq 0 --max-events 6 \
  --idle-exit 10 > "$WORK/reconnect.log" 2>&1 || true
GOT=$(grep -c '"event":"violation"' "$WORK/reconnect.log" || true)
[ "$GOT" -ge 3 ] \
  || { echo "FAIL: reconnect replayed $GOT/3 violations"; cat "$WORK/reconnect.log"; exit 1; }
echo "chaos: killed follower reconnected, $GOT/3 violations replayed, none missed"

# ----------------------------------------------------------------------
# Chaos drill 2: watches on a coordinator survive a backend SIGKILL —
# appends keep working and repairs re-route to the surviving node.
# ----------------------------------------------------------------------

NODE_ADDRS=()
declare -A NODE_PID
for i in 0 1; do
  NSOCK="$WORK/node$i.sock"
  "$TML" serve --socket "$NSOCK" --workers 2 > "$WORK/node$i.log" 2>&1 &
  NODE_PID[$i]=$!
  PIDS+=($!)
  NODE_ADDRS+=(--node "unix:$NSOCK")
done
for i in 0 1; do wait_up "$WORK/node$i.log"; done

COORD_SOCK="$WORK/coord.sock"
"$TML" serve --coordinator --socket "$COORD_SOCK" "${NODE_ADDRS[@]}" \
  --probe-interval 0.3 --eject-threshold 2 --rpc-timeout 5 \
  > "$WORK/coord.log" 2>&1 &
PIDS+=($!)
wait_up "$WORK/coord.log"
echo "coordinator + 2 backends up"

"$TML" watch register wf --socket "$COORD_SOCK" "${SPEC[@]}" > /dev/null
"$TML" watch follow wf --socket "$COORD_SOCK" --max-events 99 --idle-exit 30 \
  > "$WORK/fleet-follow.log" 2>&1 &
PIDS+=($!)
wait_grep "following wf" "$WORK/fleet-follow.log" 50 "fleet follower attach"

"$TML" watch append wf --socket "$COORD_SOCK" --file "$WORK/part1.txt" > /dev/null
wait_grep '"event":"repair"' "$WORK/fleet-follow.log" 300 "pre-kill fleet repair"

kill -9 "${NODE_PID[0]}"
echo "chaos: SIGKILLed backend node 0 (pid ${NODE_PID[0]})"

# the watch must still accept appends (state lives on the coordinator)
BEFORE=$(grep -c '"event":"repair"' "$WORK/fleet-follow.log" || true)
"$TML" watch append wf --socket "$COORD_SOCK" --file "$WORK/part2.txt" \
  > "$WORK/fleet-append2.log"
grep -q "violated=true" "$WORK/fleet-append2.log" \
  || { echo "FAIL: append after backend kill"; cat "$WORK/fleet-append2.log"; exit 1; }

# ...and the new violation's repair must complete on the survivor
for _ in $(seq 1 300); do
  NOW=$(grep -c '"event":"repair"' "$WORK/fleet-follow.log" || true)
  [ "$NOW" -gt "$BEFORE" ] && break
  sleep 0.1
done
NOW=$(grep -c '"event":"repair"' "$WORK/fleet-follow.log" || true)
[ "$NOW" -gt "$BEFORE" ] \
  || { echo "FAIL: no repair push after backend kill"; cat "$WORK/fleet-follow.log"; exit 1; }
echo "chaos: backend killed mid-stream — watch state intact, repair re-routed"
echo "PASS"

#!/usr/bin/env bash
# Smoke test for the repair service: start `tml serve` on a Unix socket,
# drive a 20-request mixed client batch covering all four repair kinds,
# assert every request succeeds and the stats reply counts eliminate
# stages, check that a traced `tml batch` dump loads back into
# `tml trace --summary`, then SIGTERM the server and assert a clean
# drain (exit 0, "drained" in the output).
#
# With --chaos the server is started with fault injection armed at the
# connection read and write sites; individual requests may fail with
# typed injected-fault errors, but the server must survive the whole
# batch, keep answering, and still drain cleanly.
#
# Usage: scripts/server_smoke.sh [--chaos]
set -euo pipefail

cd "$(dirname "$0")/.."

CHAOS=0
[ "${1:-}" = "--chaos" ] && CHAOS=1

dune build bin/tml_cli.exe
TML=_build/default/bin/tml_cli.exe

WORK=$(mktemp -d)
SOCK="$WORK/tml.sock"
SERVER_LOG="$WORK/server.log"
SERVER_PID=
cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# ----------------------------------------------------------------------
# Fixtures: a 3-state DTMC, a trace dataset over it, and a 3-state MDP
# with per-state features for the reward-repair path.
# ----------------------------------------------------------------------

cat > "$WORK/model.dtmc" <<'EOF'
dtmc
states 3
init 0
0 -> 1 : 0.3
0 -> 2 : 0.7
1 -> 1 : 1.0
2 -> 2 : 1.0
label goal = 1
EOF

cat > "$WORK/traces.txt" <<'EOF'
group clean
0 1 1
0 1 1
group field
0 2 2
EOF

cat > "$WORK/model.mdp" <<'EOF'
mdp
states 3
init 0
0 go -> 1 : 1.0
0 wait -> 2 : 1.0
1 stay -> 1 : 1.0
2 stay -> 2 : 1.0
label goal = 1
feature 0 = 0.0 0.0
feature 1 = 1.0 0.0
feature 2 = 0.0 1.0
EOF

# ----------------------------------------------------------------------
# Start the server and wait for its listening line.
# ----------------------------------------------------------------------

SERVE_ARGS=(serve --socket "$SOCK" --workers 2)
if [ "$CHAOS" = 1 ]; then
  SERVE_ARGS+=(--inject-fault read:raise:3 --inject-fault write:raise:3 --seed 7)
fi

"$TML" "${SERVE_ARGS[@]}" > "$SERVER_LOG" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 50); do
  grep -q "listening on unix:" "$SERVER_LOG" 2>/dev/null && break
  kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died at startup"; cat "$SERVER_LOG"; exit 1; }
  sleep 0.1
done
grep -q "listening on unix:" "$SERVER_LOG" || { echo "server never came up"; cat "$SERVER_LOG"; exit 1; }
echo "server up (pid $SERVER_PID, socket $SOCK)"

# ----------------------------------------------------------------------
# The mixed batch: 20 requests cycling through the four repair kinds
# (five of each), with varied check bounds so not everything collapses
# onto one cached digest.
# ----------------------------------------------------------------------

client() { "$TML" client --socket "$SOCK" "$@"; }

run_one() {
  case $(( $1 % 4 )) in
    0) client check -m "$WORK/model.dtmc" -p "P>=0.2$1 [ F goal ]" ;;
    1) client model-repair -m "$WORK/model.dtmc" -p "P>=0.35 [ F goal ]" \
         -v v:0:0.4 -d 0,1,+v -d 0,2,-v --starts 2 ;;
    2) client data-repair -t "$WORK/traces.txt" --states 3 --init 0 \
         -l goal:1 -p "P>=0.5 [ F goal ]" --pin clean --starts 2 ;;
    3) client reward-repair -m "$WORK/model.mdp" --theta 0:1 \
         -c 0:go:wait --gamma 0.9 --starts 2 ;;
  esac
}

OK=0
FAILED=0
for i in $(seq 0 19); do
  if OUT=$(run_one "$i" 2>&1); then
    OK=$((OK + 1))
  else
    FAILED=$((FAILED + 1))
    echo "request $i failed:"
    echo "$OUT" | sed 's/^/    /'
  fi
done
echo "batch: $OK/20 succeeded, $FAILED failed"

if [ "$CHAOS" = 1 ]; then
  # injected connection faults may legitimately fail individual requests;
  # the server just has to keep serving — the final ping proves it
  client ping > /dev/null
  echo "server still answering after injected read/write faults"
else
  [ "$FAILED" -eq 0 ] || { echo "FAIL: $FAILED request(s) failed"; exit 1; }
  # async submit + wait round-trip on the job digest
  DIGEST=$(client check -m "$WORK/model.dtmc" -p "P>=0.25 [ F goal ]" --async | awk '{print $1}')
  client wait --job "$DIGEST" --timeout 30 > /dev/null
  echo "async submit + wait ok (job $DIGEST)"
  # the server's stats reply carries per-stage totals; the batch's model
  # and data repairs ran parametric elimination
  STATS=$(client stats)
  echo "$STATS" | grep -Eq '"stages":\{.*"eliminate":\{"count":[1-9]' \
    || { echo "FAIL: stats show no eliminate stage: $STATS"; exit 1; }
  echo "stats report eliminate stage runs"
fi

# ----------------------------------------------------------------------
# Trace export round trip: a traced batch's JSONL dump must load back
# into `tml trace --summary` with its stage spans.
# ----------------------------------------------------------------------

"$TML" batch --suite wsn --jobs 2 --trace-out "$WORK/trace.jsonl" > /dev/null
SUMMARY=$("$TML" trace --summary "$WORK/trace.jsonl")
echo "$SUMMARY" | grep -q "stage:eliminate" \
  || { echo "FAIL: trace summary lists no stage:eliminate"; echo "$SUMMARY"; exit 1; }
echo "trace export loads back with stage:eliminate spans"

# ----------------------------------------------------------------------
# Graceful drain: SIGTERM, then the server must exit 0 on its own with
# the drained line in its output.
# ----------------------------------------------------------------------

kill -TERM "$SERVER_PID"
RC=0
wait "$SERVER_PID" || RC=$?
SERVER_PID=
[ "$RC" -eq 0 ] || { echo "FAIL: server exited $RC after SIGTERM"; cat "$SERVER_LOG"; exit 1; }
grep -q "drained" "$SERVER_LOG" || { echo "FAIL: no drain line in server log"; cat "$SERVER_LOG"; exit 1; }
[ ! -e "$SOCK" ] || { echo "FAIL: socket file left behind"; exit 1; }
echo "clean drain: exit 0, $(grep drained "$SERVER_LOG")"
echo "PASS"

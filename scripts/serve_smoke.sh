#!/usr/bin/env bash
# Smoke-test the retime-serve daemon end to end:
#   1. start it on a kernel-chosen loopback port,
#   2. submit the same tiny-suite G-RAR job twice,
#   3. assert the second submission is a cache hit with zero solver work
#      and a bit-identical result payload,
#   4. scrape the metrics hit counter,
#   5. shut the daemon down gracefully and check it exits,
#   6. restart it on the same --cache-dir and assert the first
#      submission is already a disk hit with the same payload digest.
# Binaries default to the release profile; override with SERVE=/CLIENT=.
set -euo pipefail

SERVE=${SERVE:-target/release/retime-serve}
CLIENT=${CLIENT:-target/release/retime-client}
BANNER=$(mktemp)
CACHE_DIR=$(mktemp -d)

"$SERVE" --addr 127.0.0.1:0 --queue-bound 16 --cache-dir "$CACHE_DIR" >"$BANNER" &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$BANNER" "$CACHE_DIR"' EXIT

wait_for_addr() {
  for _ in $(seq 1 100); do
    grep -q "listening on" "$BANNER" && break
    sleep 0.1
  done
  ADDR=$(sed -n 's/^retime-serve listening on //p' "$BANNER")
  [ -n "$ADDR" ] || { echo "FAIL: daemon never printed its address"; exit 1; }
}
wait_for_addr
echo "daemon at $ADDR"

# --help must document every submit flag the server accepts — greps here
# keep the client usage text, the module doc, and the README quickstart
# from drifting apart.
HELP=$("$CLIENT" --help)
for flag in --format --convert --model --yield --sigma --clock-sigma --stat-seed; do
  grep -q -e "$flag" <<<"$HELP" \
    || { echo "FAIL: client --help does not document $flag"; exit 1; }
done
grep -q "statistical" <<<"$HELP" \
  || { echo "FAIL: client --help does not mention the statistical model"; exit 1; }

first=$("$CLIENT" --addr "$ADDR" submit --circuit s1196 --flow grar --c medium --wait)
echo "$first"
second=$("$CLIENT" --addr "$ADDR" submit --circuit s1196 --flow grar --c medium --wait)
echo "$second"

echo "$second" | grep -q '"cached":true' \
  || { echo "FAIL: second submission was not a cache hit"; exit 1; }
echo "$second" | grep -q '"solver_invocations":0' \
  || { echo "FAIL: cache hit reported solver work"; exit 1; }

# Bit-identical payloads: same digest, same area row.
sha() { sed -n 's/.*"payload_sha256":"\([0-9a-f]*\)".*/\1/p' <<<"$1"; }
row() { sed -n 's/.*"result"://p' <<<"$1"; }
[ -n "$(sha "$first")" ] && [ "$(sha "$first")" = "$(sha "$second")" ] \
  || { echo "FAIL: payload digests differ"; exit 1; }
[ "$(row "$first")" = "$(row "$second")" ] \
  || { echo "FAIL: result rows differ"; exit 1; }
row "$first" | grep -q '"total_area":' \
  || { echo "FAIL: result row carries no area"; exit 1; }

"$CLIENT" --addr "$ADDR" metrics | grep -q '^retime_serve_cache_hits_total 1$' \
  || { echo "FAIL: metrics did not count the cache hit"; exit 1; }

# --- Statistical delay mode: a distinct cache entry with yield fields. ---
stat=$("$CLIENT" --addr "$ADDR" submit --circuit s1196 --flow grar --c medium \
  --model statistical --yield 0.9987 --wait)
echo "$stat"
echo "$stat" | grep -q '"cached":true' \
  && { echo "FAIL: statistical submission aliased the deterministic cache entry"; exit 1; }
row "$stat" | grep -q '"min_yield":' \
  || { echo "FAIL: statistical result row carries no min_yield"; exit 1; }
row "$stat" | grep -q '"jitter_sens":' \
  || { echo "FAIL: statistical result row carries no jitter_sens"; exit 1; }
[ "$(sha "$stat")" != "$(sha "$first")" ] \
  || { echo "FAIL: statistical payload digest equals the deterministic one"; exit 1; }

"$CLIENT" --addr "$ADDR" shutdown | grep -q '"draining":true' \
  || { echo "FAIL: shutdown was not acknowledged"; exit 1; }
wait "$SERVER_PID"
echo "PASS: cache-hit round trip, metrics, and graceful shutdown"

# --- Restart on the same cache dir: the disk tier must answer cold. ---
: >"$BANNER"
"$SERVE" --addr 127.0.0.1:0 --queue-bound 16 --cache-dir "$CACHE_DIR" >"$BANNER" &
SERVER_PID=$!
wait_for_addr
echo "restarted daemon at $ADDR"

third=$("$CLIENT" --addr "$ADDR" submit --circuit s1196 --flow grar --c medium --wait)
echo "$third"
echo "$third" | grep -q '"cached":true' \
  || { echo "FAIL: restart-warm submission was not a cache hit"; exit 1; }
echo "$third" | grep -q '"solver_invocations":0' \
  || { echo "FAIL: restart-warm hit reported solver work"; exit 1; }
[ "$(sha "$first")" = "$(sha "$third")" ] \
  || { echo "FAIL: payload digest changed across restart"; exit 1; }
# Two persisted entries: the deterministic job and its statistical twin.
"$CLIENT" --addr "$ADDR" metrics | grep -q '^retime_serve_cache_recovered_total 2$' \
  || { echo "FAIL: recovery did not count both persisted entries"; exit 1; }

"$CLIENT" --addr "$ADDR" shutdown | grep -q '"draining":true' \
  || { echo "FAIL: restarted daemon shutdown was not acknowledged"; exit 1; }
wait "$SERVER_PID"
trap 'rm -rf "$BANNER" "$CACHE_DIR"' EXIT
echo "PASS: restart-warm disk hit and graceful shutdown"

#!/bin/sh
# netd smoke: chaind on a loopback Unix socket via `serve --listen`, loaded
# by 8 concurrent loadgen connections. The replies must be byte-identical
# to the same request sequence through the stdio path, SIGTERM must drain
# gracefully (exit 0, every reply delivered), and loadgen's --out file must
# be valid report-IR JSON carrying the tail quantiles.
#
# Usage: ci/netd.sh CHAOSCHECK
set -eu
cc=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
s=$(mktemp -d)
trap 'rm -rf "$s"' EXIT

{
  printf '{"op":"check","scenario":"reversed"}\n'
  printf '{"op":"check","scenario":"incomplete"}\n'
} > "$s/frames.ndjson"
"$cc" serve --scale 0.002 --jobs 2 --listen "unix:$s/chaind.sock" \
  2> "$s/serve.err" &
srv=$!
i=0
while [ $i -lt 100 ]; do
  [ -S "$s/chaind.sock" ] && break
  sleep 0.1
  i=$((i + 1))
done
[ -S "$s/chaind.sock" ]
"$cc" loadgen --connect "unix:$s/chaind.sock" \
  --frames "$s/frames.ndjson" --rate 400 --requests 64 --conns 8 \
  --replies "$s/replies.out" --out "$s/bench.json" > /dev/null
kill -TERM "$srv"
wait "$srv"
[ "$(wc -l < "$s/replies.out")" -eq 64 ]
grep -q 'netd: 8 connections accepted, 64 frames' "$s/serve.err"
awk 'NR <= 2 { f[NR] = $0 } END { for (i = 0; i < 64; i++) print f[i % 2 + 1] }' \
  "$s/frames.ndjson" > "$s/serial.in"
"$cc" serve --scale 0.002 --jobs 2 --queue 128 \
  < "$s/serial.in" > "$s/serial.out" 2>/dev/null
cmp "$s/serial.out" "$s/replies.out"
grep -q '"id": "loadgen"' "$s/bench.json"
grep -q '"text": "latency p999 (ms)"' "$s/bench.json"
jq -e '.id == "loadgen"' "$s/bench.json" > /dev/null
jq -e '[.blocks[0].rows[]?.cells[]?.text?]
       | contains(["latency p50 (ms)", "latency p99 (ms)",
                   "latency p999 (ms)"])' "$s/bench.json" > /dev/null

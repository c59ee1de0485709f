#!/bin/sh
# sharded netd smoke: the service split across 2 shard event loops, loaded
# by 256 ramped connections (32x ci/netd.sh). Every reply must be delivered
# through the SIGTERM drain with 0 dropped, 0 connect errors and 0 accept
# failures, and the reply stream must be byte-identical to a --shards 1 run
# and to the stdio path. The select run always executes; the epoll run
# repeats it whenever `chaoscheck pollers` says the platform has the
# backend. A TCP run covers the SO_REUSEPORT listener-per-shard path (the
# Unix sockets take the round-robin dispatcher).
#
# Usage: ci/shards.sh CHAOSCHECK
set -eu
cc=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
s=$(mktemp -d)
trap 'rm -rf "$s"' EXIT

{
  printf '{"op":"check","scenario":"reversed"}\n'
  printf '{"op":"check","scenario":"incomplete"}\n'
} > "$s/frames.ndjson"
"$cc" pollers > "$s/pollers.out"
grep -qx select "$s/pollers.out"
run_sharded() {
  # $1 = poller backend, $2 = shard count, $3 = output tag
  "$cc" serve --scale 0.002 --jobs 2 --queue 256 \
    --poller "$1" --shards "$2" --listen "unix:$s/$3.sock" \
    2> "$s/$3.err" &
  srv=$!
  i=0
  while [ $i -lt 100 ]; do
    [ -S "$s/$3.sock" ] && break
    sleep 0.1
    i=$((i + 1))
  done
  [ -S "$s/$3.sock" ]
  # ramp 0.1s < conns/rate, so every connection dials while requests are
  # still being scheduled and request i lands on connection (i mod 256):
  # all 256 connections carry traffic
  "$cc" loadgen --connect "unix:$s/$3.sock" \
    --frames "$s/frames.ndjson" --poller "$1" --ramp 0.1 \
    --rate 2000 --requests 512 --conns 256 \
    --replies "$s/$3.replies" --out "$s/$3.json" > "$s/$3.loadgen"
  kill -TERM "$srv"
  wait "$srv"
  [ "$(wc -l < "$s/$3.replies")" -eq 512 ]
  grep -q 'netd: 256 connections accepted, 512 frames' "$s/$3.err"
  grep -q ', 0 accept failures' "$s/$3.err"
  jq -e '[.blocks[0].rows[] | select(.cells[0].text == "dropped")
          | .cells[1].n] == [0]' "$s/$3.json" > /dev/null
  jq -e '[.blocks[0].rows[] | select(.cells[0].text == "connect errors")
          | .cells[1].n] == [0]' "$s/$3.json" > /dev/null
}
run_sharded select 2 shard2
run_sharded select 1 shard1
awk 'NR <= 2 { f[NR] = $0 } END { for (i = 0; i < 512; i++) print f[i % 2 + 1] }' \
  "$s/frames.ndjson" > "$s/serial512.in"
"$cc" serve --scale 0.002 --jobs 2 --queue 512 \
  < "$s/serial512.in" > "$s/serial512.out" 2>/dev/null
cmp "$s/serial512.out" "$s/shard2.replies"
cmp "$s/serial512.out" "$s/shard1.replies"
if grep -qx epoll "$s/pollers.out"; then
  run_sharded epoll 2 epoll2
  cmp "$s/serial512.out" "$s/epoll2.replies"
fi

port=$((20000 + $$ % 10000))
"$cc" serve --scale 0.002 --jobs 2 --queue 256 \
  --poller select --shards 2 --listen "tcp:127.0.0.1:$port" \
  2> "$s/tcp.err" &
srv=$!
i=0
while [ $i -lt 100 ]; do
  grep -q 'chaind: listening' "$s/tcp.err" && break
  sleep 0.1
  i=$((i + 1))
done
grep -q 'chaind: listening' "$s/tcp.err"
sleep 0.3
"$cc" loadgen --connect "tcp:127.0.0.1:$port" \
  --frames "$s/frames.ndjson" --rate 400 --requests 64 --conns 8 \
  --replies "$s/tcp.replies" > /dev/null
kill -TERM "$srv"
wait "$srv"
grep -q 'netd: 8 connections accepted, 64 frames' "$s/tcp.err"
head -64 "$s/serial512.out" | cmp - "$s/tcp.replies"

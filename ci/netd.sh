#!/bin/sh
# netd smoke: chaind on a loopback Unix socket via `serve --listen`, loaded
# by 8 concurrent loadgen connections with every chain source: scenario
# names, PEM (64-column LF and 76-column CRLF lines) and base64 TLS
# Certificate messages in both framings. The replies must be
# byte-identical to the same request sequence through the stdio path, the
# two wrappings of one PEM chain must get the same reply, SIGTERM must
# drain gracefully (exit 0, every reply delivered), and loadgen's --out
# file must be valid report-IR JSON carrying the tail quantiles.
#
# Usage: ci/netd.sh CHAOSCHECK
set -eu
cc=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
s=$(mktemp -d)
trap 'rm -rf "$s"' EXIT

"$cc" scenario reversed 2>/dev/null > "$s/chain.pem"
# the same blocks re-wrapped at 76 columns with CRLF line ends
awk '/-----BEGIN/ { printf "%s\r\n", $0; body = ""; next }
     /-----END/ { while (length(body) > 76) {
                    printf "%s\r\n", substr(body, 1, 76); body = substr(body, 77) }
                  if (body != "") printf "%s\r\n", body
                  printf "%s\r\n", $0; next }
     { body = body $0 }' "$s/chain.pem" > "$s/chain76.pem"
grep -q "$(printf '^[A-Za-z0-9+/]\\{76\\}\r$')" "$s/chain76.pem"
pem=$(jq -Rs . < "$s/chain.pem")
pem76=$(jq -Rs . < "$s/chain76.pem")
b12=$("$cc" certmsg "$s/chain.pem" --tls-format 1.2)
b13=$("$cc" certmsg "$s/chain.pem" --tls-format 1.3)
{
  printf '{"op":"check","scenario":"reversed"}\n'
  printf '{"op":"check","scenario":"incomplete"}\n'
  printf '{"op":"check","pem":%s,"domain":"netd.example"}\n' "$pem"
  printf '{"op":"check","pem":%s,"domain":"netd.example"}\n' "$pem76"
  printf '{"op":"check","certmsg":"%s","domain":"netd.example","format":"1.2"}\n' "$b12"
  printf '{"op":"check","certmsg":"%s","domain":"netd.example","format":"1.3"}\n' "$b13"
  printf '{"op":"check","certmsg":"%s","domain":"netd.example"}\n' "$b13"
} > "$s/frames.ndjson"
nf=$(wc -l < "$s/frames.ndjson")
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
awk -v nf="$nf" '{ f[NR] = $0 } END { for (i = 0; i < 64; i++) print f[i % nf + 1] }' \
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
# every chain source answered, and both wrappings of the PEM chain alike
[ "$(grep -c '"ok":true' "$s/replies.out")" -eq 64 ]
sed -n 3p "$s/replies.out" > "$s/pem.reply"
sed -n 4p "$s/replies.out" | cmp - "$s/pem.reply"

#!/bin/sh
# dual-encoding smoke: the same chain delivered as a raw TLS Certificate
# message under both the 1.2 and 1.3 wire framings must produce
# byte-identical verdict replies (one miss, one shared-cache hit), and
# `chaoscheck classify` must report full 1.2/1.3 decode agreement.
#
# Usage: ci/certmsg.sh CHAOSCHECK
set -eu
cc=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
s=$(mktemp -d)
trap 'rm -rf "$s"' EXIT

"$cc" scenario reversed 2>/dev/null > "$s/chain.pem"
b12=$("$cc" certmsg "$s/chain.pem" --tls-format 1.2)
b13=$("$cc" certmsg "$s/chain.pem" --tls-format 1.3)
{
  printf '{"op":"check","certmsg":"%s","domain":"dual.example","format":"1.2"}\n' "$b12"
  printf '{"op":"check","certmsg":"%s","domain":"dual.example"}\n' "$b13"
  printf '{"op":"stats"}\n'
} > "$s/dual.ndjson"
"$cc" serve --scale 0.002 --jobs 2 < "$s/dual.ndjson" > "$s/dual.out" 2>/dev/null
sed -n 1p "$s/dual.out" > "$s/dual1.out"
sed -n 2p "$s/dual.out" | cmp - "$s/dual1.out"
sed -n 3p "$s/dual.out" | grep -q '"hits":1'
sed -n 3p "$s/dual.out" | grep -q '"misses":1'
"$cc" scan --scale 0.002 --jobs 2 --store "$s/store" > /dev/null 2>&1
"$cc" classify --store "$s/store" > "$s/classify.out"
grep -q 'TLS 1.2/1.3 decode agreement' "$s/classify.out"
grep -q '(100.0%)' "$s/classify.out"

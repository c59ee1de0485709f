#!/bin/sh
# chainstore-at-scale smoke: a synthetic 100k-record store (mkstore, no
# population generation) must audit repair-free in bounded wall time with
# the Domain pool, serve indexed random access byte-identical to the
# sequential reference walk, prove inclusion against the authenticated
# ROOT, and — after a derived sidecar is deleted — have audit rebuild it
# from the frames and keep proving.
#
# Usage: ci/scale.sh CHAOSCHECK
set -eu
cc=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
s=$(mktemp -d)
trap 'rm -rf "$s"' EXIT

"$cc" mkstore --store "$s/big" --records 100000 --jobs 2 \
  | grep -q 'merkle root'
t0=$(date +%s)
"$cc" audit --store "$s/big" --jobs 2 > "$s/audit.out"
t1=$(date +%s)
grep -q '^audit ok' "$s/audit.out"
if grep -q '^store repaired' "$s/audit.out"; then
  echo "fresh synthetic store needed repairs" >&2
  exit 1
fi
# generous bound for a loaded 1-core runner; the target is seconds, not
# minutes
[ $((t1 - t0)) -le 60 ]
"$cc" get --store "$s/big" --seg obs 54321 > "$s/idx.rec"
"$cc" get --store "$s/big" --seg obs 54321 --seq > "$s/seq.rec"
cmp "$s/idx.rec" "$s/seq.rec"
"$cc" proof --store "$s/big" 99999 | grep -q '^proof ok'
rm "$s/big/obs.idx"
"$cc" audit --store "$s/big" --jobs 2 > "$s/audit2.out"
grep -q 'obs.idx: offset index rebuilt' "$s/audit2.out"
grep -q '^audit ok' "$s/audit2.out"
"$cc" proof --store "$s/big" 0 | grep -q '^proof ok'

#!/bin/sh
# report smoke: --format json is byte-identical across parallelism and
# across scan vs replay, and jq can parse it; --check-paper is green on
# the seed population and red (naming the deviating cell) under
# --inject-deviation; `chaoscheck diff` agrees a corpus with itself;
# `reproduce --scale 0` is a usage error, not an uncaught exception;
# `reproduce --only` rejects an unknown id before generating anything and
# runs a static table without a population.
#
# Usage: ci/report.sh CHAOSCHECK
set -eu
cc=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
s=$(mktemp -d)
trap 'rm -rf "$s"' EXIT

"$cc" scan --scale 0.002 --jobs 1 --format json --store "$s/store" \
  > "$s/a.json" 2>/dev/null
"$cc" scan --scale 0.002 --jobs 3 --format json > "$s/b.json" 2>/dev/null
cmp "$s/a.json" "$s/b.json"
"$cc" replay --store "$s/store" --jobs 3 --format json > "$s/c.json" 2>/dev/null
cmp "$s/a.json" "$s/c.json"
jq -e '.[0].id == "dataset"' "$s/a.json" > /dev/null
jq -e '[.[].blocks[] | select(.kind == "table")] | length == 3' \
  "$s/a.json" > /dev/null
"$cc" scan --scale 0.002 --jobs 2 --check-paper > /dev/null 2>&1
if "$cc" scan --scale 0.002 --jobs 2 --check-paper --inject-deviation \
    > /dev/null 2> "$s/inject.err"; then
  echo "inject-deviation unexpectedly passed --check-paper" >&2
  exit 1
fi
grep -q 'check-paper: dataset/' "$s/inject.err"
grep -q 'check-paper: dataset/TLS 1.2 vs 1.3 identical chains' "$s/inject.err"
"$cc" diff "$s/store" "$s/store" | grep -q 'corpora agree'
# a bad --scale is a usage error (exit 124) naming the flag, not a crash
set +e
"$cc" reproduce --scale 0 > /dev/null 2> "$s/scale.err"
rc=$?
set -e
test "$rc" -eq 124
grep -q -- '--scale' "$s/scale.err"
# an unknown --only id is a usage error (exit 124) naming the flag
set +e
"$cc" reproduce --only bogus > /dev/null 2> "$s/only.err"
rc=$?
set -e
test "$rc" -eq 124
grep -q -- '--only' "$s/only.err"
# a static table generates no population, even at a large scale
timeout 10 "$cc" reproduce --scale 0.5 --only table1 > "$s/table1.txt"
grep -q 'Table 1' "$s/table1.txt"

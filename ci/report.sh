#!/bin/sh
# report smoke: --format json is byte-identical across parallelism and
# across scan vs replay, and jq can parse it; --check-paper is green on
# the seed population and red (naming the deviating cell) under
# --inject-deviation; `chaoscheck diff` agrees a corpus with itself.
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

#!/bin/sh
# chainstore smoke: scan to a store, replay from it byte-identically at a
# different parallelism, audit clean, then chop the observation segment
# mid-frame and check audit detects and repairs the crash artifact. The
# repaired store must diff against a clean copy, and replay must be
# byte-identical with and without the offset indexes.
#
# Usage: ci/store.sh CHAOSCHECK
set -eu
cc=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
s=$(mktemp -d)
trap 'rm -rf "$s"' EXIT

"$cc" scan --scale 0.002 --jobs 2 --store "$s/store" > "$s/scan.out" 2>/dev/null
"$cc" replay --store "$s/store" --jobs 3 > "$s/replay.out" 2>/dev/null
cmp "$s/scan.out" "$s/replay.out"
"$cc" audit --store "$s/store" | grep -q '^audit ok'
cp -R "$s/store" "$s/clean"
size=$(wc -c < "$s/store/obs.seg")
dd if=/dev/null of="$s/store/obs.seg" bs=1 seek=$((size - 5)) 2>/dev/null
"$cc" audit --store "$s/store" --dry-run | grep -q 'truncated tail'
"$cc" audit --store "$s/store" | grep -q '^store repaired'
"$cc" audit --store "$s/store" | grep -q '^audit ok'
"$cc" replay --store "$s/store" > /dev/null 2>&1

# The repair dropped one observation, so the two corpora must diff
# (non-zero exit, dataset cells named).
if "$cc" diff "$s/clean" "$s/store" > "$s/diff.out" 2>/dev/null; then
  echo "diff of divergent corpora unexpectedly reported agreement" >&2
  exit 1
fi
grep -q '^dataset/' "$s/diff.out"

"$cc" replay --store "$s/store" --jobs 2 > "$s/with.out" 2>/dev/null
"$cc" replay --store "$s/store" --jobs 2 --no-index > "$s/without.out" \
  2>/dev/null
cmp "$s/with.out" "$s/without.out"

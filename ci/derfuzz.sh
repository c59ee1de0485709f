#!/bin/sh
# derfuzz smoke: a fixed-seed differential campaign over the lab
# certificate corpus (mutants through lib/der AND lib/der2) must pass the
# two-decoder agreement precondition on every unmutated certificate,
# classify every mutant with zero divergences (no split, no mismatch, no
# crash from either decoder), and produce byte-identical JSON reports at
# --jobs 1 and --jobs 3. The committed golden seed corpus must regenerate
# from the same seed.
#
# Usage: ci/derfuzz.sh CHAOSCHECK
set -eu
cc=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
golden=$(cd "$(dirname "$0")/.." && pwd)/test/golden/der_fuzz.seeds
s=$(mktemp -d)
trap 'rm -rf "$s"' EXIT

"$cc" derfuzz --iters 400 --seed 2026 --jobs 1 \
  --format json --out "$s/a.json" > /dev/null 2>&1
"$cc" derfuzz --iters 400 --seed 2026 --jobs 3 \
  --format json --out "$s/b.json" --seeds-out "$s/der_fuzz.seeds" \
  > /dev/null 2>&1
cmp "$s/a.json" "$s/b.json"
cmp "$golden" "$s/der_fuzz.seeds"
grep -q '"id": "derfuzz"' "$s/a.json"
grep -q 'the two decoders agreed on every mutant' "$s/a.json"
jq -e '.id == "derfuzz"' "$s/a.json" > /dev/null
jq -e '[.blocks[1].rows[]
        | select(.cells[0].text | test("split|mismatch|crash"))
        | .cells[1].n] | add == 0' "$s/a.json" > /dev/null
jq -e '[.blocks[1].rows[] | .cells[1].n] | add == 400' \
  "$s/a.json" > /dev/null

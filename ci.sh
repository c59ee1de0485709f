#!/bin/sh
# Local CI: full build, test suite, the bench smoke, every chaoscheck smoke
# in ci/, the committed bench snapshots, EXPERIMENTS.md freshness and the
# repository benchmark's own smoke test. Each smoke is defined once, in its
# ci/<name>.sh script, and runs once: `dune build` runs the seven that
# bin/dune wires in, and this script runs the one it does not.
set -eux

cd "$(dirname "$0")"

dune build
dune runtest

# The perf smoke (every micro workload on a tiny quota), defined as the
# bench `ci` alias.
dune build --force @bench/ci

chaoscheck=./_build/default/bin/chaoscheck.exe
sh ci/shards.sh "$chaoscheck"

s=$(mktemp -d)
trap 'rm -rf "$s"' EXIT

# bench JSON: the micro section must carry the store workloads and the
# committed BENCH_PR8.json protocol snapshot must parse with the same shape.
dune exec bench/main.exe -- --filter 'store/merkle-proof(1024)' \
  --json "$s/bench.json" > /dev/null
jq -e '.micro | length >= 1' "$s/bench.json" > /dev/null
jq -e '.micro[] | select(.name == "store/merkle-proof(1024)")' \
  "$s/bench.json" > /dev/null
jq -e '.store[] | select(.name == "store/merkle-proof(1024)")
       | .ns_per_run > 0' BENCH_PR8.json > /dev/null
jq -e '.scaling[] | select(.name == "store/merkle-proof(1048576)")
       | .ns_per_run > 0' BENCH_PR8.json > /dev/null
jq -e '.wall[] | select(.name == "store/audit(100k)")
       | .seconds > 0' BENCH_PR8.json > /dev/null

# bench JSON: the committed BENCH_PR9.json snapshot must carry the two-decoder
# and campaign workloads with positive timings.
jq -e '.der[] | select(.name == "der2/decode-certificate")
       | .ns_per_run > 0' BENCH_PR9.json > /dev/null
jq -e '.derfuzz[] | select(.name == "derfuzz/campaign(32)")
       | .ns_per_run > 0' BENCH_PR9.json > /dev/null

# bench JSON: the live micro section must carry both poll-wait workloads
# this platform offers, and the committed BENCH_PR10.json snapshot must
# carry both backends plus drop-free shard-scaling loadgen runs at >= 4x
# the PR 7 smoke's 8 connections.
dune exec bench/main.exe -- --filter 'net/*' \
  --json "$s/netbench.json" > /dev/null
jq -e '.micro[] | select(.name == "net/poll-wait(select,64fd)")
       | .ns_per_run > 0' "$s/netbench.json" > /dev/null
if "$chaoscheck" pollers | grep -qx epoll; then
  jq -e '.micro[] | select(.name == "net/poll-wait(epoll,64fd)")
         | .ns_per_run > 0' "$s/netbench.json" > /dev/null
fi
jq -e '.poller[] | select(.name == "net/poll-wait(select,64fd)")
       | .ns_per_run > 0' BENCH_PR10.json > /dev/null
jq -e '.poller[] | select(.name == "net/poll-wait(epoll,64fd)")
       | .ns_per_run > 0' BENCH_PR10.json > /dev/null
jq -e '[.loadgen[] | .dropped, .connect_errors] | add == 0' \
  BENCH_PR10.json > /dev/null
jq -e '[.loadgen[] | .connections] | min >= 32' BENCH_PR10.json > /dev/null
jq -e '[.loadgen[] | .shards] | (contains([1]) and contains([2]))' \
  BENCH_PR10.json > /dev/null

# EXPERIMENTS.md is generated (doc/EXPERIMENTS.head.md + Report.to_markdown);
# regenerate and fail if the committed copy is stale.
./gen_experiments.sh "$s/EXPERIMENTS.md"
cmp EXPERIMENTS.md "$s/EXPERIMENTS.md"

# The repository benchmark's smoke test (perfbench/): a serving refactor
# must not silently break the benchmark.
python3 perfbench/test_smoke.py

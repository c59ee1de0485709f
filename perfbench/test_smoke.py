#!/usr/bin/env python3
"""The benchmark's own tests, on its smoke mode (scale 0.002, tiny phases).

    python3 perfbench/test_smoke.py

Run from the root of a checkout; takes about a minute. Checks that:
- every workload, traced and untraced, passes its correctness gate and
  prints exactly the metrics BENCHMARK.json names, all numbers;
- a corrupted reference makes the gate fail, on a serving workload and on
  the corpus workload: exit 1 and "correct": false;
- in a directory holding only BENCHMARK.json and perfbench/, the command
  exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

with open("BENCHMARK.json") as f:
    BENCH = json.load(f)
NAMES = {0: [m["name"] for m in BENCH["end_to_end"]], 1: [m["name"] for m in BENCH["per_layer"]]}


def run(workload, trace, *extra, cwd="."):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None), p


def check(ok, what, p=None):
    if not ok:
        print("FAIL: " + what)
        if p is not None:
            print(p.stdout[-3000:], p.stderr[-3000:])
        sys.exit(1)
    print("ok: " + what)


def main():
    for w in BENCH["workloads"]:
        for trace in (0, 1):
            rc, r, p = run(w["name"], trace)
            what = f"{w['name']} --trace {trace}"
            check(rc == 0 and r is not None and r["correct"], what + " passes its gate", p)
            check(list(r["metrics"]) == NAMES[trace], what + " prints every named metric", p)
            check(all(isinstance(m["value"], (int, float)) for m in r["metrics"].values()),
                  what + " values are numbers", p)
            check(r["attempted"] >= 1 and r["failed"] == 0, what + " counts its work", p)
    for w in ("verdict-hit", "corpus"):
        rc, r, p = run(w, 0, "--inject-mismatch")
        check(rc == 1 and r is not None and not r["correct"], w + " gate catches a mismatch", p)
    bare = os.path.join(".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, r, p = run("verdict-hit", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(rc != 0 and r is None, "without the sources it exits non-zero, no result", p)


if __name__ == "__main__":
    main()

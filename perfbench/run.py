#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload verdict-hit|verdict-miss|corpus \
        --seed N --seconds S --trace 0|1 [--smoke] [--inject-mismatch]

Run it from the root of a checkout. It builds bin/chaoscheck.exe and
perfbench/perfbench.exe from source with dune, runs one workload, prints
each metric by name and unit, and ends standard output with one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones from the
traced run. A failed correctness check prints "correct": false and exits 1;
a checkout that cannot be built exits 2 without a result.

--smoke runs any workload at scale 0.002 with tiny phases, in seconds;
--inject-mismatch corrupts one reference so the gate must fail. See
perfbench/README.md for the protocol.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("verdict-hit", "verdict-miss", "corpus")
WORK = ".perfbench"  # scratch space inside the checkout (ignored by git)
EXE = "_build/default/bin/chaoscheck.exe"
BENCH = "_build/default/perfbench/perfbench.exe"
BUILD_TIMEOUT = 800
RUN_TIMEOUT = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for f in ("dune-project", "bin/chaoscheck.ml", "perfbench/dune"):
        if not os.path.isfile(f):
            die(f"{f} is missing: run from the root of a chaoschain checkout")
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        die("dune is not on PATH")
    cmd = dune + ["build", "--root", ".", "bin/chaoscheck.exe", "perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if r.returncode != 0:
        die("build failed")


def spawn(cmd, stdout, stderr):
    # A session of its own, so a timeout can stop the whole process group.
    return subprocess.Popen(cmd, stdout=stdout, stderr=stderr, start_new_session=True)


def stop_group(p):
    try:
        os.killpg(p.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    p.wait()


def timed_child(cmd, out_path, deadline):
    """Run cmd to completion; (exit code, wall s, cpu s, max rss MB)."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t0 = time.monotonic()
        p = spawn(cmd, out, err)
        while True:
            pid, status, ru = os.wait4(p.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                stop_group(p)
                raise TimeoutError(" ".join(cmd))
            time.sleep(0.002)
        wall = time.monotonic() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def read(path):
    with open(path, "rb") as f:
        return f.read()


def corpus(args, run_dir, deadline):
    """scan --store three times (the set-up), then replay and audit the
    last store, in turn, for --seconds."""
    scale = "0.002" if args.smoke else "0.02"
    fmt = "1.2" if args.seed % 2 == 0 else "1.3"
    n_setup = 1 if args.smoke else 3
    problems, attempted = [], 0
    scans = []
    for k in range(n_setup):
        store = os.path.join(run_dir, f"store{k}")
        out = os.path.join(run_dir, f"scan{k}.out")
        rc, wall, _, _ = timed_child(
            [EXE, "scan", "--scale", scale, "--jobs", "2", "--store", store, "--tls-format", fmt],
            out, deadline)
        attempted += 1
        if rc != 0:
            problems.append(f"scan {k} exited {rc}")
        scans.append((wall, store, read(out)))
    tables = scans[0][2]
    if any(s[2] != tables for s in scans):
        problems.append("scan tables differ between runs")
    if args.inject_mismatch:
        tables += b" "
    store = scans[-1][1]
    err = read(os.path.join(run_dir, f"scan{n_setup - 1}.out.err")).decode()
    records = int(err.split("store: ")[1].split(" observation records")[0]) if "store: " in err else 0
    store_bytes = sum(os.path.getsize(os.path.join(store, f)) for f in os.listdir(store))
    # The timed operation: one replay and one audit of the store.
    cycles = []
    t_end = time.monotonic() + args.seconds
    while not cycles or time.monotonic() < t_end:
        out = os.path.join(run_dir, "replay.out")
        rc, r_wall, r_cpu, r_rss = timed_child(
            [EXE, "replay", "--store", store, "--jobs", "2"], out, deadline)
        attempted += 1
        if rc != 0 or read(out) != tables:
            problems.append("replay tables differ from the scan's")
        out = os.path.join(run_dir, "audit.out")
        rc, a_wall, a_cpu, a_rss = timed_child(
            [EXE, "audit", "--store", store, "--jobs", "2"], out, deadline)
        attempted += 1
        text = read(out)
        if rc != 0 or b"audit ok" not in text or b"store repaired" in text:
            problems.append("audit not clean")
        cycles.append((r_wall, a_wall, r_cpu + a_cpu, max(r_rss, a_rss)))
    if records <= 0:
        problems.append("scan reported no observation records")
    n = max(records, 1)
    metrics = [
        ("setup_s", statistics.median(s[0] for s in scans), "s"),
        ("cpu_us_per_op", 1e6 * statistics.median(c[2] for c in cycles) / n, "us"),
        ("rss_peak_mb", statistics.median(c[3] for c in cycles), "MB"),
    ]
    print(f"corpus seed {args.seed}: scale {scale}, --tls-format {fmt}, {records} records, "
          f"{len(scans)} scans, {len(cycles)} replay+audit cycles")
    for name, value, unit in metrics + [
        ("throughput_per_s", n / statistics.median(c[0] + c[1] for c in cycles), "1/s"),
        ("scan_s", statistics.median(s[0] for s in scans), "s"),
        ("replay_s", statistics.median(c[0] for c in cycles), "s"),
        ("audit_s", statistics.median(c[1] for c in cycles), "s"),
        ("store_bytes_per_record", store_bytes / n, "B"),
    ]:
        print(f"  {name:<34} {value:14.4f} {unit}")
    for p in problems:
        print("GATE FAILED: " + p)
    failed = len(problems)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, v, u in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


def perfbench(args, run_dir, deadline):
    cmd = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--exe", EXE, "--dir", run_dir]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    sys.stdout.flush()
    p = spawn(cmd, None, None)
    try:
        return p.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop_group(p)
        die("run timed out")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject-mismatch", action="store_true")
    args = ap.parse_args()
    build()
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    deadline = time.monotonic() + RUN_TIMEOUT
    try:
        if args.workload == "corpus" and args.trace == 0:
            rc = corpus(args, run_dir, deadline)
        else:
            rc = perfbench(args, run_dir, deadline)
        # spans of a traced run outlive the scratch directory
        for f in os.listdir(run_dir):
            if f.endswith(".spans.tsv"):
                os.replace(os.path.join(run_dir, f), os.path.join(WORK, f))
    except TimeoutError as e:
        die(f"timed out: {e}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the svx end-to-end benchmark (svxbench.cc).

    python3 svxbench/run.py --workload cold-rewrite|hot-scan|update-mix \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark package (svxbench/CMakeLists.txt, which compiles ../src) into
.bench_build/svxbench; later runs rebuild incrementally. Every metric is
printed by name with its unit; every run is appended as one record to
.bench_out/history.jsonl, keyed by commit, seed and workload (earlier
records are never rewritten). The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end_to_end metrics of BENCHMARK.json with --trace 0 and its
per_layer metrics with --trace 1. The exit code is non-zero when the build
fails, an operation fails or a correctness check finds a mismatch.
"""
import argparse
import datetime
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "svxbench"
OUT = ROOT / ".bench_out"
WORKLOADS = ("cold-rewrite", "hot-scan", "update-mix")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], check=True,
                   stdout=sys.stderr)
    return BUILD / "svxbench"


def commit_key():
    """The git commit (suffixed -dirty for uncommitted changes) when run
    from a clone, else a hash of the sources."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                            "--dirty", "--abbrev=40"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha1()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    OUT.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.time()
    try:
        # The binary keeps its stores and traces in .bench_out/ under ROOT.
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        full = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"benchmark exited {proc.returncode} without a result")
        return proc.returncode or 1

    record = {"commit": commit_key(), "seed": args.seed,
              "workload": args.workload,
              "time": datetime.datetime.fromtimestamp(started).isoformat(),
              "exit_code": proc.returncode, **full}
    with open(OUT / "history.jsonl", "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    metrics = {}
    for m in wanted:
        got = full["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} missing or not in {m['unit']}: {got}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    result = {"correct": full["correct"], "attempted": full["attempted"],
              "failed": full["failed"], "metrics": metrics}
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

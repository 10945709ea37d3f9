#!/usr/bin/env python3
"""Steadiness check of the svx benchmark: runs every workload ten times,
with seeds 1 to 10, and reports each end-to-end metric's run-to-run spread
against the bound BENCHMARK.json fixes for it.

    python3 svxbench/steady.py

The spread is the distance between the first and third quartile of the
runs' values (statistics.quantiles(values, n=4)), as a share of their
median. A metric is "steady" when its spread is below a third of its
bound, "wide" when below the bound, and "FAIL" otherwise. Exits non-zero
on any FAIL or failed run. Run from the repository root; each run also
lands in .bench_out/history.jsonl.
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    design = json.loads((ROOT / "svxbench" / "design.json").read_text())
    unmapped = [m["name"] for m in spec["per_layer"]
                if m["name"] not in design["layer_metrics"]]
    if unmapped:
        print("per_layer metrics missing from design.json: "
              + ", ".join(unmapped))

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, RUNS + 1):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "svxbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: run failed "
                      f"(exit {proc.returncode})\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                flush=True)
        print(f"\n{workload}: {RUNS} runs of {seconds} s")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if spread < m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "wide"
            else:
                verdict = "FAIL"
            ok = ok and verdict != "FAIL"
            print(f"  {m['name']:28} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.3f} {m['bound']:6.2f}  {verdict}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

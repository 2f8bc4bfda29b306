"""Run-to-run spread of the end-to-end metrics, as a markdown table.

    python3 perfbench/spread.py

Runs ``run.py`` once per workload of BENCHMARK.json and seed 1-10, one
after another, for the benchmark's ``run_seconds`` each, and prints for
each metric the median of the runs, its quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  The reference figures
in README.md come from this command.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print("| workload | metric | median | q1 | q3 | spread | bound | failed/attempted |")
    print("|---|---|---|---|---|---|---|---|")
    for name in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=HERE.parent,
            )
            print(proc.stderr, end="", file=sys.stderr)
            if proc.returncode != 0:
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{name} seed {seed}: {runs[-1]}", file=sys.stderr)
        failed = f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}"
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            print(f"| {name} | {metric} | {med:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {(q3 - q1) / med:.3f} | {bound} | {failed} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

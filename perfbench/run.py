"""Benchmark of minfault's CLI: gen -> inject -> harden, and solve.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload for about S seconds.  Each round is a
fresh worker process (one thread, ``--jobs 1``) that sets up the inputs
and runs the pipeline's commands through ``minfault.cli.main``.  Every
round's outputs are then checked by ``checks.py``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics of
BENCHMARK.json (medians over rounds), with ``--trace 1`` its per-layer
metrics (medians over traced rounds, which alternate with untraced ones
so that the tracing overhead can be reported).

Outputs go to ``perfbench/.runs/<workload>/``; the spans of the last
traced round are kept there as ``spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    CheckError,
    Failed,
    check_plan,
    check_request_faults,
    check_row,
    check_solutions,
    closed_form_count,
    closed_form_faults,
    read_cnf,
    read_summary,
    read_system,
    signature_class_faults,
    top_frequency,
)
from workloads import WORKLOADS, Workload, round_files  # noqa: E402

ROUND_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a wrong output)."""


def run_worker(w: Workload, seed: int, d: Path, traced: bool) -> dict:
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "worker.py"), w.name, str(seed), str(d),
            "1" if traced else "0"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=ROUND_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a round took longer than {ROUND_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Ops:
    """Operations of a run: each passes, fails (the program reported an
    error) or is wrong (an output disagrees with its check)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def run(self, name: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Failed as exc:
            self.failed += 1
            print(f"{name}: failed: {exc}", file=sys.stderr)
        except (CheckError, OSError, KeyError, ValueError, TypeError) as exc:
            self.failed += 1
            self.wrong.append(f"{name}: {type(exc).__name__}: {exc}")
            print(f"{name}: wrong: {exc}", file=sys.stderr)
        return None


def _exit_ok(cmd: str, rc: int) -> None:
    if rc != 0:
        raise Failed(f"minfault {cmd} exited with {rc}")


def _plan_ops(ops: Ops, w: Workload, system, faults, plan_path: Path) -> None:
    high = top_frequency(system, 1)
    levels = ops.run("plan file", check_plan, system, faults, plan_path, high, w.budgets)
    for budget, error in levels or [(b, CheckError("plan not checked")) for b in w.budgets]:
        ops.run(f"budget level {budget}", _raise, error)


def _raise(error: Exception | None) -> None:
    if error is not None:
        raise error


def _solve_check(w: Workload, system, files) -> None:
    req = system.requests[0]
    clauses = read_cnf(files["cnf"])
    if set(clauses) != set(req.paths):
        raise CheckError("the formula file is not request 0's paths")
    check_solutions(clauses, files["sols"], w.solve_k, closed_form_count(req, w.solve_k))


def check_round(ops: Ops, w: Workload, d: Path, result: dict) -> int:
    """Check one round's outputs; returns its injection count."""
    for cmd, rc, _ in result["codes"]:
        ops.run(f"exit of {cmd}", _exit_ok, cmd, rc)
    if any(rc != 0 for cmd, rc, _ in result["codes"] if cmd == "gen"):
        return 0  # set-up failed, counted above: no inputs to check the outputs against
    files = round_files(d)
    system = ops.run("system file", read_system, files["sys"])
    if system is None:
        return 0
    rows = ops.run("summary.csv", read_summary, files["camp"]) or {}
    expected = closed_form_faults if w.share == 0 else signature_class_faults
    faults = {}
    for rid in sorted(system.requests) if w.requests > 1 else [0]:
        ops.run(f"campaign row {rid}", check_row, rows, rid)
        faults[rid] = ops.run(f"faults of request {rid}", check_request_faults, system,
                              files["camp"], rows.get(rid), rid,
                              expected(system.requests[rid], w.kmax))
    if w.budgets:
        _plan_ops(ops, w, system, faults, files["plan"])
    if w.solve_k is not None:
        ops.run("solutions", _solve_check, w, system, files)
    return sum(int(r["fault_injection_number"] or 0) for r in rows.values())


def declared_metrics(traced: bool) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json declares for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if traced else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "minfault" / "__init__.py").is_file():
        print(f"error: no minfault sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))

    w = WORKLOADS[args.workload]
    base = HERE / ".runs" / w.name
    shutil.rmtree(base, ignore_errors=True)
    d = base / "round"
    ops = Ops()
    rounds: list[tuple[bool, dict, int]] = []
    start = time.perf_counter()
    try:
        while True:
            # a traced run alternates untraced and traced rounds, in pairs
            traced = bool(args.trace) and len(rounds) % 2 == 1
            result = run_worker(w, args.seed, d, traced)
            injections = check_round(ops, w, d, result)
            first = rounds[0][2] if rounds else injections
            ops.run("injections repeat", _same, injections, first)
            rounds.append((traced, result, injections))
            print(f"round {len(rounds)}{' (traced)' if traced else ''}: "
                  f"pipeline {result['pipeline_s']:.3f} s", file=sys.stderr)
            if traced:
                os.replace(d / "spans.jsonl", base / "spans.jsonl")
            elapsed = time.perf_counter() - start
            pair_open = bool(args.trace) and len(rounds) % 2 == 1
            if not pair_open and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(d, ignore_errors=True)

    plain = [r for t, r, _ in rounds if not t]
    if args.trace:
        traced_rounds = [r for t, r, _ in rounds if t]
        values = {name: statistics.median(r["layers"][name] for r in traced_rounds)
                  for name in traced_rounds[0]["layers"]}
        values["trace.overhead_s"] = (statistics.median(r["pipeline_s"] for r in traced_rounds)
                                      - statistics.median(r["pipeline_s"] for r in plain))
    else:
        values = {
            "pipeline_s": statistics.median(r["pipeline_s"] for r in plain),
            "setup_s": statistics.median(s for r in plain for s in r["setup_s"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "injections": rounds[0][2],  # every round's count is checked to be the same
        }
    missing = sorted(set(declared) - set(values))
    if missing:
        print(f"error: declared metrics not measured: {missing}", file=sys.stderr)
        return 1
    for line in ops.wrong:
        print(f"wrong output: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not ops.wrong,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 1 if ops.wrong else 0


def _same(got: int, first: int) -> None:
    if got != first:
        raise CheckError(f"injection count {got} differs from the first round's {first}")


if __name__ == "__main__":
    sys.exit(main())

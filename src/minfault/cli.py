"""Command-line surface: generate, solve, inject, harden.

Machine-readable results go to files (or stdout for ``solve``);
diagnostics go to stderr only.  Every run writes a manifest alongside
its primary output recording parameters, input/output digests, and
per-phase wall times.  Exit codes: 0 success, 1 usage error, 2
input/parse error, 3 infeasible optimization.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import __version__
from .campaign import CampaignConfig, CampaignResult, run_campaign, run_campaign_static
from .cnf import parse_cnf
from .errors import (
    CnfParseError,
    InfeasibleBudgetError,
    MinfaultError,
    ParameterError,
    SchemaError,
    UnknownRequestError,
)
from .hardening import budget_sweep
from .simulation import GenParams, generate_system, load_system, system_to_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3


class UsageError(MinfaultError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _dump_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class Manifest:
    """Provenance record for one CLI run.

    The run id hashes the semantic parameters and the *content* of every
    input, never file paths, so re-running the same flags on identical
    inputs reproduces the id no matter where the files live.
    """

    def __init__(self, command: str, params: dict, identity: dict):
        self.command = command
        self.params = params
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}
        self.timings_ms: dict[str, float] = {}
        seed_material = _dump_json({"command": command, "identity": identity})
        self.run_id = _sha256(seed_material.encode())[:12]

    def add_input(self, path: Path, data: bytes, identity: bytes | None = None) -> None:
        self.inputs[str(path)] = _sha256(data)
        material = data if identity is None else identity
        self.run_id = _sha256((self.run_id + _sha256(material)).encode())[:12]

    def add_output(self, path: Path, text: str) -> None:
        self.outputs[str(path)] = _sha256(text.encode())

    def write(self, primary_out: Path) -> None:
        doc = {
            "command": self.command,
            "params": self.params,
            "run_id": self.run_id,
            "tool_version": __version__,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "timings_ms": {k: round(v, 3) for k, v in self.timings_ms.items()},
        }
        _write_atomic(Path(str(primary_out) + ".manifest.json"), _dump_json(doc))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="minfault", description=__doc__)
    parser.add_argument("--version", action="version", version=f"minfault {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a simulated system file")
    gen.add_argument("--groups", type=int, required=True)
    gen.add_argument("--edges", type=int, required=True)
    gen.add_argument("--bones", type=int, required=True)
    gen.add_argument("--requests", type=int, required=True)
    gen.add_argument("--share", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=Path, required=True)

    solve = sub.add_parser("solve", help="enumerate minimal satisfying assignments")
    solve.add_argument("--cnf", type=Path, required=True)
    solve.add_argument("--k", type=int, required=True)
    solve.add_argument("--out", type=Path, default=None, help="default: stdout")

    inject = sub.add_parser("inject", help="run fault-injection campaigns")
    inject.add_argument("--system", type=Path, required=True)
    target = inject.add_mutually_exclusive_group(required=True)
    target.add_argument("--request", type=int, default=None)
    target.add_argument("--all", action="store_true")
    inject.add_argument("--kmax", type=int, required=True)
    inject.add_argument("--static", type=int, default=None, metavar="K",
                        help="use the static baseline at fixed bound K instead")
    inject.add_argument("--jobs", type=int, default=1)
    inject.add_argument("--out-dir", type=Path, required=True)

    harden = sub.add_parser("harden", help="select call sites to harden under budgets")
    harden.add_argument("--system", type=Path, required=True)
    harden.add_argument("--campaign-dir", type=Path, required=True)
    harden.add_argument("--high", type=str, required=True,
                        help="comma-separated request ids, or auto-topfreq:N")
    harden.add_argument("--budgets", type=str, required=True, help="comma-separated, increasing")
    harden.add_argument("--method", choices=["exact", "greedy"], default="exact")
    harden.add_argument("--out", type=Path, required=True)
    return parser


def cmd_gen(args) -> int:
    try:
        params = GenParams(
            group_num=args.groups,
            edge_num=args.edges,
            bone_num=args.bones,
            n_requests=args.requests,
            shared_api_fraction=args.share,
            seed=args.seed,
        )
    except ParameterError as exc:
        raise UsageError(str(exc)) from None
    flags = {
        "groups": args.groups, "edges": args.edges, "bones": args.bones,
        "requests": args.requests, "share": args.share, "seed": args.seed,
    }
    manifest = Manifest("gen", dict(flags, out=str(args.out)), identity=flags)
    t0 = time.perf_counter()
    system = generate_system(params)
    manifest.timings_ms["generate"] = (time.perf_counter() - t0) * 1e3
    text = system_to_json(system)
    _write_atomic(args.out, text)
    manifest.add_output(args.out, text)
    manifest.write(args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    from .solver import SolverConfig, enumerate_minimal

    if args.k < 0:
        raise UsageError("--k must be >= 0")
    data = args.cnf.read_bytes()
    cnf = parse_cnf(data.decode("utf-8"))
    manifest = Manifest("solve", {"cnf": str(args.cnf), "k": args.k}, identity={"k": args.k})
    manifest.add_input(args.cnf, data)
    t0 = time.perf_counter()
    solutions = enumerate_minimal(cnf, SolverConfig(max_size=args.k))
    manifest.timings_ms["solve"] = (time.perf_counter() - t0) * 1e3
    lines = []
    for sol in solutions:
        lines.append(" ".join(str(v + 1) for v in sol) if sol else "0")
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(args.out, text)
        manifest.add_output(args.out, text)
        manifest.write(args.out)
    return EXIT_OK


def _campaign_doc(result: CampaignResult, system, mode: str, run_id: str) -> dict:
    return {
        "run_id": run_id,
        "mode": mode,
        "request_id": result.request_id,
        "k_max": result.k_max,
        "final_k": result.final_k,
        "injections": result.injections,
        "solver_calls": result.solver_calls,
        "valid_faults": [
            {
                "vars": list(fault),
                "symbols": [list(system.symbol_table[v]) for v in fault],
            }
            for fault in result.valid_faults
        ],
        "timings_ms": {
            "cnf_solving": round(result.wall_times.solve_ms, 3),
            "injection": round(result.wall_times.inject_ms, 3),
            "bookkeeping": round(result.wall_times.bookkeeping_ms, 3),
            "end_to_end": round(result.wall_times.total_ms, 3),
        },
    }


def cmd_inject(args) -> int:
    if args.kmax < 1:
        raise UsageError("--kmax must be >= 1")
    if args.static is not None and args.static < 1:
        raise UsageError("--static must be >= 1")
    data = args.system.read_bytes()
    system = load_system(args.system)
    if args.request is not None:
        system.request(args.request)  # unknown id is an input error
        request_ids = [args.request]
    else:
        request_ids = [r.request_id for r in system.requests]
    mode = "static" if args.static is not None else "dynamic"
    manifest = Manifest(
        "inject",
        {"system": str(args.system), "kmax": args.kmax, "static": args.static,
         "requests": request_ids, "jobs": args.jobs},
        identity={"kmax": args.kmax, "static": args.static, "requests": request_ids},
    )
    manifest.add_input(args.system, data)
    args.out_dir.mkdir(parents=True, exist_ok=True)

    def run_one(rid: int):
        try:
            if args.static is not None:
                return rid, run_campaign_static(system, rid, args.static), None
            return rid, run_campaign(system, CampaignConfig(request_id=rid, k_max=args.kmax)), None
        except MinfaultError as exc:
            return rid, None, str(exc)

    t0 = time.perf_counter()
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(run_one, request_ids))
    else:
        outcomes = [run_one(rid) for rid in request_ids]
    manifest.timings_ms["campaigns"] = (time.perf_counter() - t0) * 1e3

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([
        "request_id", "fault_injection_number", "solver_calls", "valid_faults",
        "cnf_solving_time_ms", "end_to_end_time_ms", "error", "run_id",
    ])
    for rid, result, error in outcomes:
        if result is None:
            writer.writerow([rid, "", "", "", "", "", error, manifest.run_id])
            continue
        out_file = args.out_dir / f"request_{rid}.json"
        text = _dump_json(_campaign_doc(result, system, mode, manifest.run_id))
        _write_atomic(out_file, text)
        manifest.add_output(out_file, text)
        writer.writerow([
            rid, result.injections, result.solver_calls, len(result.valid_faults),
            round(result.wall_times.solve_ms, 3), round(result.wall_times.total_ms, 3),
            "", manifest.run_id,
        ])
    summary = args.out_dir / "summary.csv"
    _write_atomic(summary, buf.getvalue())
    manifest.add_output(summary, buf.getvalue())
    manifest.write(summary)
    return EXIT_OK


def _parse_high(spec: str, system) -> list[int]:
    if spec.startswith("auto-topfreq:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad --high value {spec!r}") from None
        if n < 0:
            raise UsageError("auto-topfreq count must be >= 0")
        ranked = sorted(system.request_frequency, key=lambda p: (-p[1], p[0]))
        return [rid for rid, _ in ranked[:n]]
    try:
        return [int(tok) for tok in spec.split(",") if tok != ""]
    except ValueError:
        raise UsageError(f"bad --high value {spec!r}") from None


def cmd_harden(args) -> int:
    data = args.system.read_bytes()
    system = load_system(args.system)
    manifest = Manifest(
        "harden",
        {"system": str(args.system), "campaign_dir": str(args.campaign_dir),
         "high": args.high, "budgets": args.budgets, "method": args.method},
        identity={"high": args.high, "budgets": args.budgets, "method": args.method},
    )
    manifest.add_input(args.system, data)

    result_files = sorted(args.campaign_dir.glob("request_*.json"))
    if not result_files:
        raise SchemaError(f"no request_*.json files in {args.campaign_dir}")
    faults_by_request: dict[int, list[tuple[int, ...]]] = {}
    for f in result_files:
        raw = f.read_bytes()
        try:
            doc = json.loads(raw)
            rid = doc["request_id"]
            faults = [tuple(entry["vars"]) for entry in doc["valid_faults"]]
            # run identity hashes the fault set, not the bytes: neither
            # timing fields nor discovery order may perturb it
            semantic = repr((rid, sorted(faults))).encode()
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise SchemaError(f"{f}: malformed campaign result ({exc})") from None
        faults_by_request[rid] = faults
        manifest.add_input(f, raw, identity=semantic)

    high = _parse_high(args.high, system)
    for rid in high:
        system.request(rid)
    try:
        budgets = [int(tok) for tok in args.budgets.split(",") if tok != ""]
    except ValueError:
        raise UsageError(f"bad --budgets value {args.budgets!r}") from None

    t0 = time.perf_counter()
    try:
        sweep = budget_sweep(system, faults_by_request, high, budgets, method=args.method)
    except ParameterError as exc:
        raise UsageError(str(exc)) from None
    manifest.timings_ms["optimize"] = (time.perf_counter() - t0) * 1e3

    levels_doc = []
    for lv in sweep.levels:
        entry = {"budget": lv.budget, "feasible": lv.feasible}
        if lv.feasible:
            entry.update({
                "selected": [
                    {
                        "var": v,
                        "service": system.symbol_table[v][0],
                        "api": system.symbol_table[v][1],
                        "replica": system.symbol_table[v][2],
                    }
                    for v in lv.plan.selected
                ],
                "cr": lv.cr,
                "mcg": lv.mcg,
                "afvr": lv.afvr,
                "covered": lv.plan.soft_covered,
                "soft_total": lv.plan.soft_total,
                "exact": lv.plan.exact,
            })
        levels_doc.append(entry)
    doc = {
        "run_id": manifest.run_id,
        "method": args.method,
        "high_priority": sorted(high),
        "levels": levels_doc,
    }
    text = _dump_json(doc)
    _write_atomic(args.out, text)
    manifest.add_output(args.out, text)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["budget", "feasible", "exact", "selected", "covered", "cr", "mcg", "afvr", "run_id"])
    for lv in sweep.levels:
        if lv.feasible:
            writer.writerow([
                lv.budget, 1, int(lv.plan.exact),
                " ".join(str(v) for v in lv.plan.selected),
                lv.plan.soft_covered,
                f"{lv.cr:.6f}",
                "" if lv.mcg is None else f"{lv.mcg:.6f}",
                f"{lv.afvr:.6f}",
                manifest.run_id,
            ])
        else:
            writer.writerow([lv.budget, 0, "", "", "", "", "", "", manifest.run_id])
    csv_path = args.out.with_suffix(".csv") if args.out.suffix == ".json" else Path(str(args.out) + ".csv")
    _write_atomic(csv_path, buf.getvalue())
    manifest.add_output(csv_path, buf.getvalue())
    manifest.write(args.out)

    if not any(lv.feasible for lv in sweep.levels):
        print("no budget level is feasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


_HANDLERS = {"gen": cmd_gen, "solve": cmd_solve, "inject": cmd_inject, "harden": cmd_harden}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CnfParseError, SchemaError, UnknownRequestError, ParameterError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasibleBudgetError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MinfaultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: generate, solve, inject, harden.

Machine-readable results go to files (or stdout for ``solve``);
diagnostics go to stderr only.  Every run that writes its primary output
to a file writes a manifest alongside it, recording parameters,
input/output digests, and per-phase wall times; ``solve`` to stdout
writes none.  Exit codes: 0 success, 1 usage error, 2 input/parse error,
3 infeasible optimization, 4 out of memory.  ``solve`` to stdout also
exits 0 when its reader closes the pipe early (``solve ... | head``).

``inject --kmax K [--static]`` runs one campaign per request, dynamic or
the static baseline at the fixed bound K, and holds one in memory at a
time; ``--jobs`` is accepted only as 1.  Its ``summary.csv`` and manifest
are written last, so a directory without them is incomplete.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import sys
import time
from collections.abc import Iterable, Iterator
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
from .solver import SolverConfig, iter_sorted_blocks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_MEMORY = 4


class UsageError(MinfaultError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_atomic(path: Path, chunks: Iterable[str]) -> str:
    """Write the text chunks to ``path`` and return the SHA-256 of its bytes.

    The chunks go to a ``.tmp`` sibling that ``os.replace`` then moves
    over ``path``, so readers see the whole file or none of it.  When
    writing fails, or producing a chunk raises, the ``.tmp`` file is
    removed and ``path`` is left as it was.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                data = chunk.encode("utf-8")
                digest.update(data)
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest.hexdigest()


def _dump_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# indentation of the items of a fault entry's ``symbols`` and ``vars`` lists
_ITEM = " " * 8


def _fault_fragments(symbol_table):
    """Variable id -> its (``vars`` item, ``symbols`` item) text in a campaign file.

    Each variable is encoded on first use, so one inject run encodes it
    once however many files and faults hold it.
    """

    @functools.cache
    def fragments(v: int) -> tuple[str, str]:
        service, api, replica = (json.dumps(x) for x in symbol_table[v])
        return (
            f"{_ITEM}{json.dumps(v)}",
            f"{_ITEM}[\n{_ITEM}  {service},\n{_ITEM}  {api},\n{_ITEM}  {replica}\n{_ITEM}]",
        )

    return fragments


def _dump_campaign(result: CampaignResult, mode: str, run_id: str, fragments) -> Iterator[str]:
    """A campaign file in pieces, the same text ``_dump_json`` gives for the document.

    The small head goes through ``_dump_json``; ``valid_faults`` sorts
    after every head key, so its entries follow, one piece per fault,
    from a template with each fault's variables taken from ``fragments``
    (see ``_fault_fragments``).  The pure-Python indenting encoder would
    otherwise re-encode every symbol of every fault, and nothing holds
    the whole file.
    """
    head = _dump_json({
        "run_id": run_id,
        "mode": mode,
        "request_id": result.request_id,
        "k_max": result.k_max,
        "final_k": result.final_k,
        "injections": result.injections,
        "solver_calls": result.solver_calls,
        "timings_ms": {
            "cnf_solving": round(result.wall_times.solve_ms, 3),
            "injection": round(result.wall_times.inject_ms, 3),
            "bookkeeping": round(result.wall_times.bookkeeping_ms, 3),
            "end_to_end": round(result.wall_times.total_ms, 3),
        },
    })
    # drop the head's closing "\n}\n" and append the last key
    yield f'{head[:-3]},\n  "valid_faults": '
    if not result.valid_faults:
        yield "[]\n}\n"
        return
    sep = "[\n"
    for fault in result.valid_faults:  # non-empty: no request fails uninjected
        frags = [fragments(v) for v in fault]
        yield (
            sep + '    {\n      "symbols": [\n'
            + ",\n".join([s for _, s in frags])
            + '\n      ],\n      "vars": [\n'
            + ",\n".join([v for v, _ in frags])
            + "\n      ]\n    }"
        )
        sep = ",\n"
    yield "\n  ]\n}\n"


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

    def add_output(self, path: Path, digest: str) -> None:
        self.outputs[str(path)] = digest

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
        _write_atomic(Path(str(primary_out) + ".manifest.json"), [_dump_json(doc)])


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
    inject.add_argument("--static", action="store_true",
                        help="run the static baseline at the fixed bound --kmax instead")
    inject.add_argument("--jobs", type=int, choices=[1], default=1)
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
    manifest.add_output(args.out, _write_atomic(args.out, [text]))
    manifest.write(args.out)
    return EXIT_OK


# ``solve`` and ``inject`` join their output into chunks of about this many characters
_CHUNK_CHARS = 1 << 20


def _chunked(pieces: Iterable[str]) -> Iterator[str]:
    """The text of ``pieces`` joined into chunks of about ``_CHUNK_CHARS``."""
    parts: list[str] = []
    size = 0
    for text in pieces:
        parts.append(text)
        size += len(text)
        if size >= _CHUNK_CHARS:
            yield "".join(parts)
            parts = []
            size = 0
    if parts:
        yield "".join(parts)


def _solution_text(blocks, names: dict[int, str]) -> Iterator[str]:
    """``solve``'s output text for the solver's blocks, one piece per block.

    One line per solution: its variables' names separated by spaces, or
    ``0`` for the empty solution.  A block ``(prefix, lasts)`` is
    formatted with one join over its shared prefix text.
    """
    for prefix, lasts in blocks:
        if lasts is None:
            yield "0\n"
        else:
            head = "".join([names[v] + " " for v in prefix])
            yield head + ("\n" + head).join([names[v] for v in lasts]) + "\n"


def cmd_solve(args) -> int:
    """Stream the sorted minimal solutions to ``--out`` (atomically) or stdout.

    Nothing holds the whole output: the solver's blocks are formatted
    and written in chunks of about 1 MB, and the manifest's digest is
    computed on the way.  The ``solve`` timing covers search, formatting
    and writing, which interleave.
    """
    if args.k < 0:
        raise UsageError("--k must be >= 0")
    data = args.cnf.read_bytes()
    cnf = parse_cnf(data.decode("utf-8"))
    manifest = Manifest("solve", {"cnf": str(args.cnf), "k": args.k}, identity={"k": args.k})
    manifest.add_input(args.cnf, data)
    # only the variables that occur: the header may declare any number
    names = {v: str(v + 1) for v in cnf.variables()}
    chunks = _chunked(_solution_text(iter_sorted_blocks(cnf, SolverConfig(max_size=args.k)), names))
    if args.out is None:
        try:
            for chunk in chunks:
                sys.stdout.write(chunk)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader took what it wanted; stdout now points at devnull,
            # so the flush at interpreter exit has no pipe left to fail on
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_OK
    t0 = time.perf_counter()
    manifest.add_output(args.out, _write_atomic(args.out, chunks))
    manifest.timings_ms["solve"] = (time.perf_counter() - t0) * 1e3
    manifest.write(args.out)
    return EXIT_OK


def cmd_inject(args) -> int:
    """One campaign per request, each written out and dropped before the next starts."""
    if args.kmax < 1:
        raise UsageError("--kmax must be >= 1")
    data = args.system.read_bytes()
    system = load_system(args.system)
    if args.request is not None:
        system.request(args.request)  # unknown id is an input error
        request_ids = [args.request]
    else:
        request_ids = [r.request_id for r in system.requests]
    mode = "static" if args.static else "dynamic"
    static = args.kmax if args.static else None
    manifest = Manifest(
        "inject",
        {"system": str(args.system), "kmax": args.kmax, "static": static,
         "requests": request_ids, "jobs": args.jobs},
        identity={"kmax": args.kmax, "static": static, "requests": request_ids},
    )
    manifest.add_input(args.system, data)
    args.out_dir.mkdir(parents=True, exist_ok=True)

    fragments = _fault_fragments(system.symbol_table)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["request_id", "fault_injection_number", "solver_calls", "valid_faults",
                     "cnf_solving_time_ms", "end_to_end_time_ms", "error", "run_id"])
    campaigns_s = 0.0
    for rid in request_ids:
        t0 = time.perf_counter()
        try:
            if args.static:
                result = run_campaign_static(system, rid, args.kmax)
            else:
                result = run_campaign(system, CampaignConfig(request_id=rid, k_max=args.kmax))
        except MinfaultError as exc:
            writer.writerow([rid, "", "", "", "", "", str(exc), manifest.run_id])
            continue
        finally:
            campaigns_s += time.perf_counter() - t0
        out_file = args.out_dir / f"request_{rid}.json"
        pieces = _dump_campaign(result, mode, manifest.run_id, fragments)
        manifest.add_output(out_file, _write_atomic(out_file, _chunked(pieces)))
        times = result.wall_times
        writer.writerow([rid, result.injections, result.solver_calls, len(result.valid_faults),
                         round(times.solve_ms, 3), round(times.total_ms, 3), "", manifest.run_id])
        del result  # the next campaign runs with this one freed
    manifest.timings_ms["campaigns"] = campaigns_s * 1e3
    summary = args.out_dir / "summary.csv"
    manifest.add_output(summary, _write_atomic(summary, [buf.getvalue()]))
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
        ids = [int(tok) for tok in spec.split(",") if tok != ""]
    except ValueError:
        raise UsageError(f"bad --high value {spec!r}") from None
    return list(dict.fromkeys(ids))


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
        except (json.JSONDecodeError, KeyError, TypeError, RecursionError) as exc:
            raise SchemaError(f"{f}: malformed campaign result ({exc})") from None
        # ``type(x) is int`` also refuses JSON's true and false
        if type(rid) is not int or {type(v) for fault in faults for v in fault} - {int}:
            raise SchemaError(f"{f}: request_id and fault variables must be integers")
        if rid in faults_by_request:
            raise SchemaError(f"{f}: a second campaign result for request {rid}")
        # run identity hashes the fault set, not the bytes: neither
        # timing fields nor discovery order may perturb it
        semantic = repr((rid, sorted(faults))).encode()
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
    manifest.add_output(args.out, _write_atomic(args.out, [_dump_json(doc)]))

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
    manifest.add_output(csv_path, _write_atomic(csv_path, [buf.getvalue()]))
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
    except MemoryError:
        print("out of memory", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())

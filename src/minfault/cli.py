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
import gc
import hashlib
import io
import json
import os
import sys
import time
from collections.abc import Iterable, Iterator
from itertools import chain, groupby
from operator import itemgetter
from pathlib import Path

from . import __version__
from .campaign import CampaignConfig, CampaignResult, run_campaign, run_campaign_static
from .cnf import _decimal as _cnf_decimal, _plain, make_cnf, parse_cnf
from .errors import MinfaultError, ParameterError, SchemaError, UnknownRequestError
from .hardening import budget_sweep
from .jsontext import dumps
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


def _decimal(text: str) -> int:
    """An integer flag value, by the formula file's rule (``cnf._decimal``).

    That is ASCII digits with an optional leading ``-``: ``int`` alone
    would also read ``+2``, ``1_0``, ``٣`` and padding spaces.  A ``-``
    is kept so that range checks name a negative value.
    """
    try:
        return _cnf_decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a decimal integer: {text!r}") from None


def _fraction(text: str) -> float:
    """``gen --share``'s value: the digits of :func:`_decimal`, optionally
    followed by ``.`` and ASCII digits, then read by ``float``.

    ``float`` alone would also read ``٠.٣``, `` 0.3``, ``1_0``, ``1e-1``
    and ``nan``.
    """
    whole, dot, frac = text.partition(".")
    try:
        _cnf_decimal(whole)
        if dot:
            _cnf_decimal("-" + frac)  # reads only if ``frac`` is digits, unsigned and not empty
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a decimal number: {text!r}") from None
    return float(text)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ``solve``'s solutions and ``inject``'s campaign files, the outputs that
# grow with their input, come in pieces of at most this many characters
# (``_solution_text``, ``_dump_campaign``): a string past glibc's default
# mmap threshold (128 KiB, mallopt(3)) gets fresh pages from the kernel,
# each faulted in on first write, where one below it reuses the heap's.
_CHUNK_CHARS = 1 << 16


def _write_atomic(path: Path, pieces: Iterable[str]) -> str:
    """Write the text pieces to ``path`` and return the SHA-256 of its bytes.

    Each piece is encoded and written in turn: ``solve`` and ``inject``
    bound their own pieces (``_CHUNK_CHARS``), and a whole document is one
    piece.  The pieces go to a ``.tmp`` sibling that ``os.replace`` then
    moves over ``path``, so readers see the whole file or none of it.  When
    writing fails, or producing a piece raises, the ``.tmp`` file is
    removed and ``path`` is left as it was.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for piece in pieces:
                data = piece.encode("utf-8")
                digest.update(data)
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest.hexdigest()


def _dump_json(doc) -> str:
    """``doc`` as ``json.dumps(doc, indent=2, sort_keys=True)`` writes it, and
    a newline: manifests, the run-id seed, ``plan.json`` and campaign heads.
    ``jsontext.dumps`` writes the same text with its per-item work in C."""
    return dumps(doc) + "\n"


# nesting depth and indentation of the items of a fault entry's
# ``symbols`` and ``vars`` lists
_ITEM_LEVEL = 4
_ITEM = "  " * _ITEM_LEVEL


def _fault_fragments(symbol_table):
    """Variable id -> its (``vars`` item, ``symbols`` item) text in a campaign file.

    Each item is ``jsontext.dumps`` of the variable or its symbol, at the
    depth the items sit in the file, after that depth's indent.  Each
    variable is encoded on first use, so one inject run encodes it once
    however many files and faults hold it.
    """

    @functools.cache
    def fragments(v: int) -> tuple[str, str]:
        return _ITEM + dumps(v), _ITEM + dumps(symbol_table[v], _ITEM_LEVEL)

    return fragments


# a fragments pair's ``vars`` and ``symbols`` item
_VARS, _SYMBOLS = itemgetter(0), itemgetter(1)


@functools.cache
def _fault_template(n: int) -> str:
    """A campaign file's entry for a fault of ``n`` variables: ``%`` takes
    the ``n`` ``symbols`` items, then the ``n`` ``vars`` items."""
    items = ",\n".join(["%s"] * n)
    return (f'    {{\n      "symbols": [\n{items}\n      ],\n'
            f'      "vars": [\n{items}\n      ]\n    }}')


def _dump_campaign(result: CampaignResult, mode: str, run_id: str, fragments) -> Iterator[str]:
    """A campaign file in pieces, the same text ``_dump_json`` gives for the document.

    The small head goes through ``_dump_json``; ``valid_faults`` sorts
    after every head key, so its entries follow.  Each run of faults of
    one length ``n`` is formatted in batches, one piece per batch: the
    length's template (``_fault_template``) takes each fault's items,
    read column by column from ``fragments`` (see ``_fault_fragments``).
    So each symbol is encoded once per run, not once per fault that
    holds it.  A batch holds as many faults as fit ``_CHUNK_CHARS`` at
    the run's longest possible entry: the template's fixed text, ``n``
    times the run's longest ``vars`` and ``symbols`` item pair, and a
    separator.  So no piece passes the bound unless one entry alone does.
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
    for n, run in groupby(result.valid_faults, len):  # n > 0: no request fails uninjected
        run = list(run)
        template = _fault_template(n)
        pair = max([len(v) + len(s) for v, s in map(fragments, set(chain.from_iterable(run)))])
        # each "%s" of the template is two characters; each entry follows a 2-character separator
        per_piece = max(1, _CHUNK_CHARS // (len(template) - 4 * n + n * pair + 2))
        for start in range(0, len(run), per_piece):
            batch = run[start:start + per_piece]
            # per position in the faults, the batch's fragments; columns are
            # read through ``map``, so nothing is allocated per variable
            cols = [list(map(fragments, map(itemgetter(i), batch))) for i in range(n)]
            args = zip(*[map(_SYMBOLS, col) for col in cols], *[map(_VARS, col) for col in cols])
            yield sep + ",\n".join(map(template.__mod__, args))
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


@functools.cache  # one parser per process: building it costs about a quarter of a small ``gen``
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="minfault", description=__doc__)
    parser.add_argument("--version", action="version", version=f"minfault {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a simulated system file")
    gen.add_argument("--groups", type=_decimal, required=True)
    gen.add_argument("--edges", type=_decimal, required=True)
    gen.add_argument("--bones", type=_decimal, required=True)
    gen.add_argument("--requests", type=_decimal, required=True)
    gen.add_argument("--share", type=_fraction, default=0.0)
    gen.add_argument("--seed", type=_decimal, default=0)
    gen.add_argument("--out", type=Path, required=True)

    solve = sub.add_parser("solve", help="enumerate minimal satisfying assignments")
    solve.add_argument("--cnf", type=Path, required=True)
    solve.add_argument("--k", type=_decimal, required=True)
    solve.add_argument("--out", type=Path, default=None, help="default: stdout")

    inject = sub.add_parser("inject", help="run fault-injection campaigns")
    inject.add_argument("--system", type=Path, required=True)
    target = inject.add_mutually_exclusive_group(required=True)
    target.add_argument("--request", type=_decimal, default=None)
    target.add_argument("--all", action="store_true")
    inject.add_argument("--kmax", type=_decimal, required=True)
    inject.add_argument("--static", action="store_true",
                        help="run the static baseline at the fixed bound --kmax instead")
    inject.add_argument("--jobs", type=_decimal, choices=[1], default=1)
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
    t1 = time.perf_counter()
    manifest.add_output(args.out, _write_atomic(args.out, [system_to_json(system)]))
    manifest.timings_ms["generate"] = (t1 - t0) * 1e3
    manifest.timings_ms["write"] = (time.perf_counter() - t1) * 1e3
    manifest.write(args.out)
    return EXIT_OK


def _solution_text(blocks, names: dict[int, str]) -> Iterator[str]:
    """``solve``'s output text for the solver's blocks, in pieces of at most ``_CHUNK_CHARS``.

    One line per solution: its variables' names separated by spaces, or
    ``0`` for the empty solution.  A block ``(prefix, tails)`` is its
    tails' lines, each after the prefix's text, in slices of as many
    lines as fit the bound at the longest line's length; consecutive
    slices are joined while they fit it.  So no piece passes the bound
    unless one line alone does.  Consecutive blocks often share one
    ``tails`` object, so the last object's lines are kept and reused.
    """
    parts: list[str] = []
    size = 0
    last = None  # held, so no other object can take its id
    for prefix, tails in blocks:
        if tails is not last:
            last = tails
            # an empty tail is the empty formula's one solution
            lines = [" ".join([names[v] for v in t]) or "0" for t in tails]
            longest = max(map(len, lines))
        head = "".join([names[v] + " " for v in prefix])
        step = max(1, _CHUNK_CHARS // (len(head) + longest + 1))
        # a block that fits is joined whole: a slice would copy its lines
        slices = [lines] if step >= len(lines) else [lines[i:i + step] for i in range(0, len(lines), step)]
        for part in slices:
            text = head + ("\n" + head).join(part) + "\n"
            if parts and size + len(text) > _CHUNK_CHARS:
                yield "".join(parts)
                parts = []
                size = 0
            parts.append(text)
            size += len(text)
    if parts:
        yield "".join(parts)


def cmd_solve(args) -> int:
    """Stream the sorted minimal solutions to ``--out`` (atomically) or stdout.

    Nothing holds the whole output: ``_solution_text``'s bounded pieces are
    written in turn, and the manifest's digest is computed on the way.  The
    ``solve`` timing covers search, formatting and writing, which interleave.
    """
    if args.k < 0:
        raise UsageError("--k must be >= 0")
    data = args.cnf.read_bytes()
    cnf = parse_cnf(data.decode("utf-8"))
    manifest = Manifest("solve", {"cnf": str(args.cnf), "k": args.k}, identity={"k": args.k})
    manifest.add_input(args.cnf, data)
    # only the variables that occur: the header may declare any number
    names = {v: str(v + 1) for v in cnf.variables()}
    pieces = _solution_text(iter_sorted_blocks(cnf, SolverConfig(max_size=args.k)), names)
    if args.out is None:
        try:
            for piece in pieces:
                sys.stdout.write(piece)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader took what it wanted; stdout now points at devnull,
            # so the flush at interpreter exit has no pipe left to fail on
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_OK
    t0 = time.perf_counter()
    manifest.add_output(args.out, _write_atomic(args.out, pieces))
    manifest.timings_ms["solve"] = (time.perf_counter() - t0) * 1e3
    manifest.write(args.out)
    return EXIT_OK


def cmd_inject(args) -> int:
    """One campaign per request, each written out and dropped before the next starts."""
    if args.kmax < 1:
        raise UsageError("--kmax must be >= 1")
    data = args.system.read_bytes()
    system = load_system(args.system, data)
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
    campaigns_s = write_s = 0.0
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
        t0 = time.perf_counter()
        out_file = args.out_dir / f"request_{rid}.json"
        pieces = _dump_campaign(result, mode, manifest.run_id, fragments)
        manifest.add_output(out_file, _write_atomic(out_file, pieces))
        write_s += time.perf_counter() - t0
        times = result.wall_times
        writer.writerow([rid, result.injections, result.solver_calls, len(result.valid_faults),
                         round(times.solve_ms, 3), round(times.total_ms, 3), "", manifest.run_id])
        del result  # the next campaign runs with this one freed
    t0 = time.perf_counter()
    summary = args.out_dir / "summary.csv"
    manifest.add_output(summary, _write_atomic(summary, [buf.getvalue()]))
    write_s += time.perf_counter() - t0
    manifest.timings_ms["campaigns"] = campaigns_s * 1e3
    manifest.timings_ms["write"] = write_s * 1e3
    manifest.write(summary)
    return EXIT_OK


def _parse_high(spec: str, system) -> list[int]:
    if spec.startswith("auto-topfreq:"):
        try:
            n = _decimal(spec.split(":", 1)[1])
        except argparse.ArgumentTypeError:
            raise UsageError(f"bad --high value {spec!r}") from None
        if n < 0:
            raise UsageError("auto-topfreq count must be >= 0")
        ranked = sorted(system.request_frequency, key=lambda p: (-p[1], p[0]))
        return [rid for rid, _ in ranked[:n]]
    try:
        ids = [_decimal(tok) for tok in spec.split(",")]
    except argparse.ArgumentTypeError:
        raise UsageError(f"bad --high value {spec!r}") from None
    return list(dict.fromkeys(ids))


def cmd_harden(args) -> int:
    """Sweep ``--budgets`` over the faults in ``--campaign-dir``'s campaign files.

    Each file is checked as it is read, and a bad one is a ``SchemaError``
    that names it: its JSON shape, its ``request_id``'s type, its faults
    by :func:`make_cnf`'s rule (with that rule's message), its request
    id against the system, and that no earlier file holds the same
    request.  The ``--high`` ids are looked up by :func:`budget_sweep`,
    after ``--budgets`` is checked.
    """
    data = args.system.read_bytes()
    system = load_system(args.system, data)
    manifest = Manifest(
        "harden",
        {"system": str(args.system), "campaign_dir": str(args.campaign_dir),
         "high": args.high, "budgets": args.budgets, "method": args.method},
        identity={"high": args.high, "budgets": args.budgets, "method": args.method},
    )
    manifest.add_input(args.system, data)

    t0 = time.perf_counter()
    result_files = sorted(args.campaign_dir.glob("request_*.json"))
    if not result_files:
        raise SchemaError(f"no request_*.json files in {args.campaign_dir}")
    faults_by_request: dict[int, list[tuple[int, ...]]] = {}
    file_of_request: dict[int, Path] = {}
    for f in result_files:
        raw = f.read_bytes()
        # a collection during the decode would free nothing, since every
        # object built is still referenced; the document is freed before
        # the collector is back on, so no later collection walks it either
        collecting = gc.isenabled()
        gc.disable()
        try:
            doc = json.loads(raw)
            rid = doc["request_id"]
            faults = [tuple(entry["vars"]) for entry in doc["valid_faults"]]
            del doc
            # the sweep's formulas hold the faults to ``cnf``'s rule; it
            # runs here so that a bad fault names its file, and before the
            # sort below, which mixed types would break
            if not _plain(faults, system.n_vars):
                make_cnf(faults, system.n_vars)  # raises the first bad fault's error
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise SchemaError(f"{f}: malformed campaign result ({exc})") from None
        finally:
            if collecting:
                gc.enable()
        # ``type(x) is int`` also refuses JSON's true and false
        if type(rid) is not int:
            raise SchemaError(f"{f}: request_id must be an integer")
        try:
            system.request(rid)
        except UnknownRequestError:
            raise SchemaError(f"{f}: the system has no request with id {rid}") from None
        if rid in file_of_request:
            raise SchemaError(
                f"{f}: a second campaign result for request {rid}, after {file_of_request[rid]}")
        file_of_request[rid] = f
        # run identity hashes the fault set, not the bytes: neither
        # timing fields nor discovery order may perturb it
        semantic = repr((rid, sorted(faults))).encode()
        faults_by_request[rid] = faults
        manifest.add_input(f, raw, identity=semantic)
    manifest.timings_ms["read"] = (time.perf_counter() - t0) * 1e3

    high = _parse_high(args.high, system)
    try:
        budgets = [_decimal(tok) for tok in args.budgets.split(",")]
    except argparse.ArgumentTypeError:
        raise UsageError(f"bad --budgets value {args.budgets!r}") from None

    t0 = time.perf_counter()
    try:
        sweep = budget_sweep(system, faults_by_request, high, budgets, method=args.method)
    except ParameterError as exc:
        raise UsageError(str(exc)) from None
    manifest.timings_ms["optimize"] = (time.perf_counter() - t0) * 1e3

    levels_doc = []
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["budget", "feasible", "exact", "selected", "covered", "cr", "mcg", "afvr", "run_id"])
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
        levels_doc.append(entry)
    doc = {
        "run_id": manifest.run_id,
        "method": args.method,
        "high_priority": sorted(high),
        "levels": levels_doc,
    }
    manifest.add_output(args.out, _write_atomic(args.out, [_dump_json(doc)]))
    csv_path = args.out.with_suffix(".csv") if args.out.suffix == ".json" else Path(str(args.out) + ".csv")
    manifest.add_output(csv_path, _write_atomic(csv_path, [buf.getvalue()]))
    manifest.write(args.out)

    if not any(lv.feasible for lv in sweep.levels):
        print("no budget level is feasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


_HANDLERS = {"gen": cmd_gen, "solve": cmd_solve, "inject": cmd_inject, "harden": cmd_harden}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MinfaultError, OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("out of memory", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())

"""Independent checks of minfault's outputs.

Each check recomputes the expected answer from the system file or the
formula file with its own code (a closed form, a signature-class
enumeration, a plain greedy pick) and never calls into minfault or
compares with a saved copy of earlier output.  A check returns normally
when the output is right and raises ``CheckError`` naming the first
discrepancy otherwise.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path


class CheckError(Exception):
    """An output disagrees with the independently computed answer."""


class Failed(Exception):
    """The program reported that an operation failed."""


@dataclass(frozen=True)
class Request:
    paths: tuple[frozenset[int], ...]
    group_of_path: tuple[int, ...]
    frequency: int


@dataclass(frozen=True)
class System:
    n_vars: int
    requests: dict[int, Request]
    symbols: tuple[tuple, ...]


def read_system(path: Path) -> System:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    requests = {
        r["id"]: Request(
            paths=tuple(frozenset(p) for p in r["paths"]),
            group_of_path=tuple(r["group_of_path"]),
            frequency=r["frequency"],
        )
        for r in doc["requests"]
    }
    return System(doc["n_vars"], requests, tuple(tuple(s) for s in doc["symbol_table"]))


# --- expected fault sets ---------------------------------------------------


def _group_paths(req: Request) -> list[tuple[frozenset[int], frozenset[int]]]:
    """The (fast, full) path pair of each group; groups must be disjoint."""
    groups: dict[int, list[frozenset[int]]] = {}
    for p, g in zip(req.paths, req.group_of_path):
        groups.setdefault(g, []).append(p)
    pairs, seen = [], frozenset()
    for g in sorted(groups):
        if len(groups[g]) != 2:
            raise CheckError(f"group {g} has {len(groups[g])} paths; the closed form needs 2")
        a, b = groups[g]
        if (a | b) & seen:
            raise CheckError("groups share variables; the closed form needs disjoint groups")
        seen |= a | b
        pairs.append((a, b))
    return pairs


def _group_faults(a: frozenset[int], b: frozenset[int]) -> list[frozenset[int]]:
    """Minimal sets breaking both paths of a group, smallest first: one
    shared skeleton variable, or one fast-only plus one full-only variable."""
    return [frozenset((v,)) for v in sorted(a & b)] + [
        frozenset((x, y)) for x in sorted(a - b) for y in sorted(b - a)
    ]


def closed_form_faults(req: Request, k: int) -> set[frozenset[int]]:
    """Minimal faults of size <= k of a request whose groups are disjoint:
    the unions of one minimal fault per group."""
    per_group = [_group_faults(a, b) for a, b in _group_paths(req)]
    out: set[frozenset[int]] = set()

    def extend(i: int, acc: frozenset[int]) -> None:
        if i == len(per_group):
            out.add(acc)
            return
        # every later group adds at least one variable
        room = k - len(acc) - (len(per_group) - i - 1)
        for f in per_group[i]:
            if len(f) > room:
                break
            extend(i + 1, acc | f)

    extend(0, frozenset())
    return out


def closed_form_count(req: Request, k: int) -> int:
    """How many minimal faults of size <= k ``closed_form_faults`` has."""
    by_size = [1] + [0] * k  # coefficient of each fault size
    for a, b in _group_paths(req):
        group = {1: len(a & b), 2: len(a - b) * len(b - a)}
        nxt = [0] * (k + 1)
        for size, n in enumerate(by_size):
            for extra, m in group.items():
                if size + extra <= k:
                    nxt[size + extra] += n * m
        by_size = nxt
    return sum(by_size)


def signature_class_faults(req: Request, k: int) -> set[frozenset[int]]:
    """Minimal faults of size <= k by signature classes.

    Variables lying on the same set of paths are interchangeable, and a
    minimal fault holds at most one of them.  So a minimal fault is one
    variable from each class of a minimal cover of the paths by classes.
    """
    sig: dict[int, int] = {}
    for i, p in enumerate(req.paths):
        for v in p:
            sig[v] = sig.get(v, 0) | (1 << i)
    classes: dict[int, list[int]] = {}
    for v in sorted(sig):
        classes.setdefault(sig[v], []).append(v)
    full = (1 << len(req.paths)) - 1
    out: set[frozenset[int]] = set()
    for size in range(1, min(k, len(classes)) + 1):
        for combo in itertools.combinations(sorted(classes), size):
            if _union(combo) != full:
                continue
            if any(_union(combo[:i] + combo[i + 1:]) == full for i in range(size)):
                continue
            out.update(frozenset(pick) for pick in itertools.product(*(classes[m] for m in combo)))
    return out


def _union(masks) -> int:
    acc = 0
    for m in masks:
        acc |= m
    return acc


# --- campaign outputs ------------------------------------------------------


def read_summary(camp_dir: Path) -> dict[int, dict[str, str]]:
    """Rows of ``summary.csv`` by request id."""
    rows: dict[int, dict[str, str]] = {}
    with open(Path(camp_dir) / "summary.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rid = int(row["request_id"])
            if rid in rows:
                raise CheckError(f"summary.csv lists request {rid} twice")
            rows[rid] = row
    return rows


def check_row(rows: dict[int, dict[str, str]], rid: int) -> None:
    """The campaign of request ``rid`` ran to its end."""
    row = rows.get(rid)
    if row is None:
        raise CheckError(f"summary.csv has no row for request {rid}")
    if row["error"]:
        raise Failed(f"request {rid}: {row['error']}")


def check_request_faults(
    system: System, camp_dir: Path, row: dict[str, str], rid: int, expected: set[frozenset[int]]
) -> list[frozenset[int]]:
    """``request_<rid>.json`` lists exactly the expected faults, once each,
    with matching symbols and counts; returns the faults."""
    doc = json.loads((Path(camp_dir) / f"request_{rid}.json").read_text(encoding="utf-8"))
    if doc["request_id"] != rid:
        raise CheckError(f"request_{rid}.json names request {doc['request_id']}")
    faults = []
    for entry in doc["valid_faults"]:
        vs = entry["vars"]
        if any(x >= y for x, y in zip(vs, vs[1:])):
            raise CheckError(f"request {rid}: fault {vs} is not strictly ascending")
        if [tuple(s) for s in entry["symbols"]] != [system.symbols[v] for v in vs]:
            raise CheckError(f"request {rid}: fault {vs} has wrong symbols")
        faults.append(frozenset(vs))
    got = set(faults)
    if len(got) != len(faults):
        raise CheckError(f"request {rid}: a fault is listed twice")
    if got != expected:
        missing, extra = expected - got, got - expected
        example = sorted(next(iter(missing or extra)))
        raise CheckError(
            f"request {rid}: {len(missing)} expected faults missing, {len(extra)} unexpected"
            f" (e.g. {'missing' if missing else 'unexpected'} {example})"
        )
    if int(row["valid_faults"]) != len(faults):
        raise CheckError(f"request {rid}: summary.csv counts {row['valid_faults']} faults, file has {len(faults)}")
    injections = int(row["fault_injection_number"])
    if injections != doc["injections"] or injections < len(faults):
        raise CheckError(f"request {rid}: injection count {injections} is inconsistent")
    return faults


# --- hardening plans -------------------------------------------------------


def top_frequency(system: System, n: int) -> list[int]:
    """The ``n`` most frequent requests, ties by id (``auto-topfreq:n``)."""
    return sorted(system.requests, key=lambda r: (-system.requests[r].frequency, r))[:n]


def greedy_soft_cover(hard, soft, budget: int) -> int | None:
    """Soft clauses covered by a plain greedy pick: hard clauses first, then
    soft ones, each step taking the variable in most uncovered clauses
    (ties to the smallest id).  None when the hard clauses do not fit."""
    sel: set[int] = set()
    left = _greedy(hard, sel, budget)
    if any(not c & sel for c in hard):
        return None
    _greedy(soft, sel, left)
    return sum(1 for c in soft if c & sel)


def _greedy(clauses, sel: set[int], left: int) -> int:
    """Add greedy picks to ``sel``; returns the budget left."""
    uncovered = [c for c in clauses if not c & sel]
    while left > 0 and uncovered:
        gains = Counter(v for c in uncovered for v in c)
        v = min(gains, key=lambda x: (-gains[x], x))
        sel.add(v)
        left -= 1
        uncovered = [c for c in uncovered if v not in c]
    return left


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_plan(
    system: System,
    faults: dict[int, list[frozenset[int]]],
    plan_path: Path,
    high: list[int],
    budgets: tuple[int, ...],
) -> list[tuple[int, Exception | None]]:
    """Recount every budget level of ``plan.json`` without ``execute``.

    Returns ``(budget, exception or None)`` per level; raises when the file as
    a whole is wrong.  A level must be feasible, hit every hard clause,
    select at most ``budget`` APIs and report recounted ``covered``,
    ``cr``, ``mcg`` and ``afvr``; a level flagged exact must cover no
    fewer soft clauses than the greedy pick.
    """
    doc = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    if doc["high_priority"] != sorted(high):
        raise CheckError(f"plan protects {doc['high_priority']}, expected {sorted(high)}")
    if [lv["budget"] for lv in doc["levels"]] != list(budgets):
        raise CheckError(f"plan levels {[lv['budget'] for lv in doc['levels']]} != budgets {list(budgets)}")
    with open(Path(plan_path).with_suffix(".csv"), newline="", encoding="utf-8") as fh:
        csv_rows = list(csv.DictReader(fh))
    if len(csv_rows) != len(doc["levels"]):
        raise CheckError("plan.csv and plan.json differ in level count")
    active = {rid: fs for rid, fs in sorted(faults.items()) if fs}
    hard = [f for rid, fs in active.items() if rid in high for f in fs]
    soft = [f for rid, fs in active.items() if rid not in high for f in fs]

    results: list[tuple[int, Exception | None]] = []
    prev = None  # (budget, reported covered) of the last feasible level
    for lv, row in zip(doc["levels"], csv_rows):
        try:
            _check_level(system, active, hard, soft, lv, row, prev)
            results.append((lv["budget"], None))
        except (CheckError, Failed) as exc:
            results.append((lv["budget"], exc))
        if lv["feasible"]:
            prev = (lv["budget"], lv["covered"])
    return results


def _check_level(system, active, hard, soft, lv, row, prev) -> None:
    b = lv["budget"]
    if not lv["feasible"]:
        raise Failed(f"budget {b}: reported infeasible")
    sel_vars = [e["var"] for e in lv["selected"]]
    sel = frozenset(sel_vars)
    if len(sel) != len(sel_vars) or sel_vars != sorted(sel_vars):
        raise CheckError(f"budget {b}: selection is not sorted and unique")
    if len(sel) > b:
        raise CheckError(f"budget {b}: {len(sel)} APIs selected")
    for e in lv["selected"]:
        if (e["service"], e["api"], e["replica"]) != system.symbols[e["var"]]:
            raise CheckError(f"budget {b}: var {e['var']} has wrong symbol")
    unhit = [sorted(c) for c in hard if not c & sel]
    if unhit:
        raise CheckError(f"budget {b}: hard clause {unhit[0]} not hit")
    covered = sum(1 for c in soft if c & sel)
    if lv["covered"] != covered or lv["soft_total"] != len(soft):
        raise CheckError(f"budget {b}: covered {lv['covered']}/{lv['soft_total']}, recount {covered}/{len(soft)}")
    if not _close(lv["cr"], covered / len(soft) if soft else 1.0):
        raise CheckError(f"budget {b}: cr {lv['cr']} is wrong")
    mcg = None if prev is None else (covered - prev[1]) / (b - prev[0])
    if (mcg is None) != (lv["mcg"] is None) or (mcg is not None and not _close(lv["mcg"], mcg)):
        raise CheckError(f"budget {b}: mcg {lv['mcg']}, recount {mcg}")
    fractions = []
    for rid, fs in active.items():
        paths = system.requests[rid].paths
        still = sum(1 for f in fs if all(p & (f - sel) for p in paths))
        fractions.append(still / len(fs))
    afvr = sum(fractions) / len(fractions) if fractions else 0.0
    if not _close(lv["afvr"], afvr):
        raise CheckError(f"budget {b}: afvr {lv['afvr']}, recount {afvr}")
    if lv["exact"]:
        greedy = greedy_soft_cover(hard, soft, b)
        if greedy is not None and covered < greedy:
            raise CheckError(f"budget {b}: exact plan covers {covered}, greedy covers {greedy}")
    if (int(row["budget"]), row["feasible"], row["exact"], row["covered"]) != (
        b, "1", str(int(lv["exact"])), str(covered)
    ) or row["selected"] != " ".join(map(str, sel_vars)):
        raise CheckError(f"budget {b}: plan.csv disagrees with plan.json")


# --- solver output ---------------------------------------------------------


def read_cnf(path: Path) -> list[frozenset[int]]:
    """Clauses of a ``p mcnf`` file as 0-based variable sets."""
    clauses = []
    header = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if header is None:
            if line == "c" or line.startswith("c "):
                continue
            header = line.split()
            continue
        lits = [int(t) for t in line.split()]
        if not lits or lits[-1] != 0:
            raise CheckError(f"formula line {line!r} is not 0-terminated")
        clauses.append(frozenset(v - 1 for v in lits[:-1]))
    if header is None or header[:2] != ["p", "mcnf"] or int(header[3]) != len(clauses):
        raise CheckError("formula header is malformed")
    return clauses


def check_solutions(clauses: list[frozenset[int]], sols_path: Path, k: int, expected_count: int) -> None:
    """Every line is a drop-one minimal hitting set of at most ``k`` 1-based
    ids; lines are strictly ascending, so unique and sorted; and there are
    ``expected_count`` of them."""
    if not clauses:
        if Path(sols_path).read_text(encoding="utf-8") != "0\n":
            raise CheckError("the empty formula must give the single line '0'")
        return
    masks: dict[int, int] = {}
    for i, c in enumerate(clauses):
        for v in c:
            masks[v + 1] = masks.get(v + 1, 0) | (1 << i)
    full = (1 << len(clauses)) - 1
    prev: tuple[int, ...] = ()
    n = 0
    with open(sols_path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            try:
                sol = tuple(map(int, line.split()))
            except ValueError:
                raise CheckError(f"line {n}: {line.strip()!r} is not a list of ids") from None
            if not sol or len(sol) > k:
                raise CheckError(f"line {n}: {len(sol)} variables, bound is {k}")
            if sol <= prev:
                raise CheckError(f"line {n}: {sol} does not follow {prev}; lines must be sorted and unique")
            acc = twice = last = 0  # twice: clauses hit by two or more variables
            for v in sol:
                m = masks.get(v)
                if m is None or v <= last:
                    raise CheckError(f"line {n}: {sol} is not an ascending list of formula variables")
                twice |= acc & m
                acc |= m
                last = v
            if acc != full:
                raise CheckError(f"line {n}: {sol} misses a clause")
            # dropping v keeps every clause hit iff each clause v hits is hit twice
            if any(masks[v] & ~twice == 0 for v in sol):
                raise CheckError(f"line {n}: {sol} is not minimal")
            prev = sol
    if n != expected_count:
        raise CheckError(f"{n} solutions, the closed form gives {expected_count}")

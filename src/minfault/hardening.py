"""Budget-bounded selection of API call sites to harden.

Each discovered fault becomes a positive clause (harden at least one of
its APIs); high-priority requests contribute hard clauses that must all
be covered, low-priority requests contribute soft clauses whose covered
count is maximized.  Plans have one order: the most soft clauses
covered, then the fewest APIs, then the lexicographically smallest
selection.  Selection is two-stage: enumerate the minimal hard covers
within budget, extend each cover with the residual budget over the
remaining soft clauses, and keep the first plan in that order.  On small
instances the extension is an exact branch and bound, which makes the
plan the first of all selections; above the size limits it is the
greedy, as in Khuller, Moss & Naor's seeded scheme for budgeted maximum
coverage (1999), and the plan is flagged approximate.

Clauses are held as per-variable bitmasks: bit i of a variable's mask is
set when clause instance i contains it.  Each request's masks are shifted
into place by one merge, so a fault shared by two requests counts twice.
Within a request, faults follow :func:`make_cnf`'s one rule: a fault
listed twice, in either order, is one clause.  A sweep builds each
request's formula, which checks its faults, and one record of masks over
its clauses, which coverage and AFVR both read.  Only the
high requests' formulas are kept, for the hard-cover search that
:func:`optimize` also runs.  The sweep runs it once, at its largest
budget; each level takes that search's covers of its size or less, which
are exactly its own minimal covers.
The greedy is lazy (Minoux, 1978), with the same picks and ties as a
full rescan at every pick.  Its picks do not depend on the budget, which
only stops it sooner, so a sweep extends each cover greedily once, at its
largest budget, and every approximate level takes a prefix of the picks.

The sweep's residual-failure metric (AFVR) applies the execution rule of
:func:`minfault.simulation.execute` with those bitmasks: a fault still
fails when every path of the request holds one of its non-immune variables.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from .cnf import MonotoneCnf, make_cnf
from .errors import InfeasibleBudgetError, ParameterError
# execute is not called here; perfbench/tracing.py patches it by name
from .simulation import SimulatedSystem, execute  # noqa: F401
from .solver import SolverConfig, _cover_masks, enumerate_minimal

# exact-mode limits: above any of these the approximate path takes over
_EXACT_MAX_CANDIDATES = 24
_EXACT_MAX_CLAUSES = 64
_EXACT_MAX_COVERS = 512


@dataclass(frozen=True)
class HardeningInstance:
    hard: tuple[tuple[int, MonotoneCnf], ...]  # (request_id, per-request formula)
    soft: tuple[tuple[int, MonotoneCnf], ...]
    budget: int
    n_vars: int

    def __post_init__(self):
        if self.budget < 0:
            raise ParameterError(f"budget must be >= 0, got {self.budget}")


@dataclass(frozen=True)
class HardeningPlan:
    selected: tuple[int, ...]
    hard_satisfied: bool
    soft_covered: int
    soft_total: int
    cr: float
    feasible: bool
    exact: bool


@dataclass(frozen=True)
class SweepLevel:
    budget: int
    plan: HardeningPlan | None
    cr: float | None
    mcg: float | None
    afvr: float | None
    feasible: bool


@dataclass(frozen=True)
class BudgetSweep:
    levels: tuple[SweepLevel, ...]


def build_request_cnf(valid_faults: Sequence, n_vars: int) -> MonotoneCnf:
    """One clause per fault: hardening any one API of a fault mitigates it."""
    return make_cnf(valid_faults, n_vars)


def _index(requests: Iterable[tuple[Mapping[int, int], int]]) -> tuple[dict[int, int], int]:
    """Merge per-request ``(var -> clause bitmask, clause count)`` pairs into
    one, each request's bits shifted past the earlier ones', so a clause
    shared by two requests counts twice."""
    out: dict[int, int] = {}
    n = 0
    for masks, count in requests:
        for v, m in masks.items():
            out[v] = out.get(v, 0) | m << n
        n += count
    return out, n


def _indexes(instance: HardeningInstance) -> list[tuple[dict[int, int], int]]:
    """The hard and the soft index of ``instance``'s formulas."""
    return [_index((_cover_masks(cnf.clauses), cnf.m) for _, cnf in side)
            for side in (instance.hard, instance.soft)]


def _uncovered(index: tuple[Mapping[int, int], int], selected) -> int:
    """Bitmask of the indexed clauses that ``selected`` misses."""
    masks, n = index
    out = (1 << n) - 1
    for v in selected:
        out &= ~masks.get(v, 0)
    return out


def _plan(selected, hard, soft, feasible, exact) -> HardeningPlan:
    sel = tuple(sorted(selected))
    n_soft = soft[1]
    covered = n_soft - _uncovered(soft, sel).bit_count()
    return HardeningPlan(selected=sel, hard_satisfied=not _uncovered(hard, sel),
                         soft_covered=covered, soft_total=n_soft,
                         cr=covered / n_soft if n_soft else 1.0, feasible=feasible, exact=exact)


def _plan_key(covered: int, selection) -> tuple:
    """The one plan order: most soft clauses, then fewest APIs, then smallest ids."""
    sel = tuple(sorted(selection))
    return (-covered, len(sel), sel)


def _max_coverage_exact(cover, soft, limit):
    """The smallest plan key of ``cover`` with at most ``limit`` more APIs.

    Branch and bound with an explicit stack.  Candidates are the APIs
    hitting a soft clause the cover misses, in descending gain order; a
    node adds a later candidate only if it covers a clause still
    uncovered, since a plan holding an API that adds nothing loses to the
    plan without it.  Every plan below a node covers at most the smaller
    of two bounds: its coverage plus the top-r marginal gains, r its picks
    left, and the coverage with every later candidate added.  A node is
    cut when no plan below it can sort before the best.
    """
    masks, n = soft
    uncovered = _uncovered(soft, cover)
    base = n - uncovered.bit_count()  # soft clauses the cover covers itself
    order = sorted((-(m & uncovered).bit_count(), v) for v, m in masks.items() if m & uncovered)
    cands = [(masks[v] & uncovered, v) for _, v in order]
    suffix = [0] * (len(cands) + 1)  # suffix[i]: the clauses cands[i:] hit
    for i in range(len(cands) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | cands[i][0]
    best = _plan_key(base, cover)
    stack = [(0, 0, ())]  # (next candidate, clauses the picks cover, picks)
    while stack:
        pos, covered, picks = stack.pop()
        best = min(best, _plan_key(base + covered.bit_count(), (*cover, *picks)))
        left = limit - len(picks)
        if left == 0 or pos == len(cands):
            continue
        gains = sorted([(m & ~covered).bit_count() for m, _ in cands[pos:]], reverse=True)
        bound = base + min(covered.bit_count() + sum(gains[:left]), (covered | suffix[pos]).bit_count())
        # a plan below covers at most ``bound`` clauses with one API more
        if (-bound, len(cover) + len(picks) + 1) > best[:2]:
            continue
        children = [(j + 1, covered | m, picks + (v,))
                    for j, (m, v) in enumerate(cands[pos:], pos) if m & ~covered]
        stack.extend(reversed(children))  # the highest gain is popped first
    return best


def _greedy_cover(masks: Mapping[int, int], uncovered: int, budget_left: int) -> list[int]:
    """Max-marginal-gain picks over the ``uncovered`` clause bits, ties by id.

    Lazy greedy: the heap holds ``(-gain, v)`` keys from earlier rounds.
    Gains only shrink, so a stale key never sorts after its fresh one; a
    top whose fresh key still sorts first is the full scan's pick.
    """
    # a variable with no gain now never gains later
    heap = [(-(m & uncovered).bit_count(), v) for v, m in masks.items() if m & uncovered]
    heapq.heapify(heap)
    picks = []
    while budget_left > 0 and uncovered:
        # clauses are non-empty, so some variable left in the heap still
        # hits an uncovered bit
        _, v = heapq.heappop(heap)
        key = (-(masks[v] & uncovered).bit_count(), v)
        while heap and key > heap[0]:
            _, v = heapq.heapreplace(heap, key)
            key = (-(masks[v] & uncovered).bit_count(), v)
        picks.append(v)
        uncovered &= ~masks[v]
        budget_left -= 1
    return picks


def _hard_covers(formulas: Iterable[MonotoneCnf], n_vars: int, budget: int) -> list[tuple[int, ...]]:
    """Minimal covers within ``budget`` of the high requests' ``formulas``, in lexicographic order.

    The formulas are joined by :func:`make_cnf` over ``n_vars``, which
    checks every clause against it and keeps a clause two requests share once.
    """
    hard = make_cnf([c for cnf in formulas for c in cnf.clauses], n_vars)
    return enumerate_minimal(hard, SolverConfig(max_size=budget))


def _best_plan(hard, soft, covers, budgets: Sequence[int]) -> list[HardeningPlan | None]:
    """Per budget, the plan with the smallest key over the ``covers`` that fit it; None when none fits.

    Each cover's residual budget goes to the soft clauses it leaves
    uncovered: exactly when the level is within the size limits, greedily
    above them (flagged via ``exact=False``).  Plans are ranked by
    :func:`_plan_key`.  The greedy runs once per cover, at the largest
    budget, and a level takes the first picks its residual budget allows:
    ``_greedy_cover``'s picks do not depend on its budget, which only
    stops it sooner, so each prefix is that level's own extension.
    """
    soft_masks, n_soft = soft
    small = len(soft_masks) <= _EXACT_MAX_CANDIDATES and n_soft <= _EXACT_MAX_CLAUSES
    exact = [small and sum(len(c) <= b for c in covers) <= _EXACT_MAX_COVERS for b in budgets]
    best: list[tuple | None] = [None] * len(budgets)
    for cover in covers:
        counts = None  # soft clauses covered after each greedy pick, the first entry before any
        for i, b in enumerate(budgets):
            residual = b - len(cover)
            if residual < 0:
                continue
            if exact[i]:
                key = _max_coverage_exact(cover, soft, residual)
            else:
                if counts is None:
                    uncovered = _uncovered(soft, cover)
                    picks = _greedy_cover(soft_masks, uncovered, budgets[-1] - len(cover))
                    counts = [n_soft - uncovered.bit_count()]
                    for v in picks:
                        uncovered &= ~soft_masks[v]
                        counts.append(n_soft - uncovered.bit_count())
                key = _plan_key(counts[min(residual, len(picks))], (*cover, *picks[:residual]))
            if best[i] is None or key < best[i]:
                best[i] = key
    return [None if key is None else _plan(key[2], hard, soft, feasible=True, exact=exact[i])
            for i, key in enumerate(best)]


def _greedy_plan(hard, soft, budget: int) -> HardeningPlan:
    """Greedy over the hard clauses, then over the soft ones with what is left."""
    picks = _greedy_cover(hard[0], _uncovered(hard, ()), budget)
    budget_left = budget - len(picks)
    hard_ok = not _uncovered(hard, picks)
    if hard_ok and budget_left > 0:
        picks += _greedy_cover(soft[0], _uncovered(soft, picks), budget_left)
    return _plan(picks, hard, soft, feasible=hard_ok, exact=False)


def optimize(instance: HardeningInstance) -> HardeningPlan:
    """Two-stage selection; raises when the hard side cannot fit the budget.

    On small instances the plan is the hard-feasible selection of at most
    ``budget`` APIs with the smallest :func:`_plan_key`: every selection
    holds a minimal hard cover, which :func:`_best_plan` extends exactly.
    Above the size limits each cover is extended greedily and the plan is
    flagged via ``exact=False``.  This is the sweep's plan rule at the one
    budget ``[budget]``.
    """
    covers = _hard_covers((cnf for _, cnf in instance.hard), instance.n_vars, instance.budget)
    [plan] = _best_plan(*_indexes(instance), covers, [instance.budget])
    if plan is None:
        raise InfeasibleBudgetError(f"hard clauses unsatisfiable within budget {instance.budget}")
    return plan


def greedy_baseline(instance: HardeningInstance) -> HardeningPlan:
    """Inverted-index greedy: cover hard clauses first, then soft ones.

    Never raises on a too-small budget; the returned plan carries
    ``feasible=False`` when the hard side could not be fully covered.
    """
    return _greedy_plan(*_indexes(instance), instance.budget)


def budget_sweep(
    system: SimulatedSystem,
    faults_by_request: Mapping[int, Iterable],
    high_priority: Iterable[int],
    budgets: Sequence[int],
    method: str = "exact",
) -> BudgetSweep:
    """Evaluate selection plans across increasing budgets.

    The method and the budgets are checked first (``ParameterError``),
    then every id in ``high_priority`` and ``faults_by_request`` is looked
    up in the system (``UnknownRequestError``).  ``high_priority`` and
    each request's faults may be any iterable, each read once; in request
    id order, each fault list becomes the request's formula by
    :func:`build_request_cnf`, so the first malformed fault raises what
    that raises.  The exact method runs one hard-cover search over the
    high requests' formulas, at the largest budget, and one
    :func:`_best_plan` call over all the budgets, which hands each level
    the covers that fit it; each level's plan follows :func:`optimize`'s
    rule.

    Coverage metrics come from the plans.  The residual-validity metric
    (AFVR) is the mean over requests of the share of known faults that
    still fail with the selected APIs immune, decided by ``execute``'s
    rule without injecting: a fault still fails when every path of the
    request holds one of its non-immune variables.  The rule needs no
    property of the faults: they may be non-minimal, non-failing or
    repeated.  A fault a request lists twice, in either order, counts
    once for coverage and for AFVR, whose share is over the request's
    distinct faults.  Requests with no known faults contribute neither
    clauses nor an averaging term, but their ids must still name requests
    of the system.  Marginal gain is undefined at the first level and is
    taken against the last feasible level when an infeasible one sits in
    between.
    """
    if method not in ("exact", "greedy"):
        raise ParameterError(f"method must be 'exact' or 'greedy', got {method!r}")
    if not budgets:
        raise ParameterError("budgets must be non-empty")
    if any(b < 0 for b in budgets):
        raise ParameterError("budgets must be non-negative")
    if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise ParameterError("budgets must be strictly increasing")
    high_ids = list(high_priority)
    for rid in [*high_ids, *faults_by_request]:
        system.request(rid)  # raises UnknownRequestError

    high = set(high_ids)
    records: dict[int, tuple[dict[int, int], int]] = {}  # request -> (clause masks, clause count)
    hard: list[MonotoneCnf] = []
    for rid in sorted(faults_by_request):
        # a list, so that any iterable, one-shot ones too, takes make_cnf's C path
        cnf = build_request_cnf(list(faults_by_request[rid]), system.n_vars)
        if cnf.m:
            records[rid] = (_cover_masks(cnf.clauses), cnf.m)
            if rid in high:
                hard.append(cnf)
    hard_index = _index(rec for rid, rec in records.items() if rid in high)
    soft_index = _index(rec for rid, rec in records.items() if rid not in high)
    if method == "exact":
        # the minimal covers within each budget are this search's covers of that size or less
        covers = _hard_covers(hard, system.n_vars, budgets[-1])
        plans = _best_plan(hard_index, soft_index, covers, budgets)
    else:
        plans = [plan if plan.feasible else None
                 for plan in (_greedy_plan(hard_index, soft_index, b) for b in budgets)]
    levels: list[SweepLevel] = []
    prev: tuple[int, int] | None = None  # (budget, soft_covered) of last feasible level
    for b, plan in zip(budgets, plans):
        if plan is None:
            levels.append(SweepLevel(budget=b, plan=None, cr=None, mcg=None, afvr=None, feasible=False))
            continue
        mcg = None
        if prev is not None:
            mcg = (plan.soft_covered - prev[1]) / (b - prev[0])
        immune = frozenset(plan.selected)
        # summed left to right: ``sum`` of floats is compensated from Python
        # 3.12 on, and the plan must not depend on the interpreter
        total = 0.0
        for rid, (masks, m) in records.items():
            still = (1 << m) - 1
            for path in system.request(rid).paths:
                broken = 0  # faults with a non-immune variable on this path
                for v in path:
                    if v not in immune:
                        broken |= masks.get(v, 0)
                still &= broken
            total += still.bit_count() / m
        afvr = total / len(records) if records else 0.0
        levels.append(SweepLevel(budget=b, plan=plan, cr=plan.cr, mcg=mcg, afvr=afvr, feasible=True))
        prev = (b, plan.soft_covered)
    return BudgetSweep(levels=tuple(levels))

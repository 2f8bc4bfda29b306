"""Budget-bounded selection of API call sites to harden.

Each discovered fault becomes a positive clause (harden at least one of
its APIs); high-priority requests contribute hard clauses that must all
be covered, low-priority requests contribute soft clauses whose covered
count is maximized.  Selection is two-stage: enumerate the minimal hard
covers within budget, then spend each cover's residual budget on the
remaining soft clauses.  On small instances the extension is an exact
branch and bound evaluated for every cover, which makes the combined
result globally optimal; above the size limits a single best cover is
extended greedily and the plan is flagged approximate.

Clauses are held as per-variable bitmasks: bit i of a variable's mask is
set when clause instance i contains it.  Instances are numbered across
requests, so a fault shared by two requests counts twice.  A sweep builds
each side's index once and every budget level reuses it.  It also runs
one hard-cover search: levels are computed from the largest budget down,
and the minimal covers within a smaller budget are the first search's
covers of that size or less.  The greedy is lazy (Minoux, 1978), with the
same picks and ties as a full rescan at every pick.

The sweep's residual-failure metric (AFVR) applies the execution rule of
:func:`minfault.simulation.execute` with bitmasks over each request's
known faults: a fault still fails when every path of the request holds
one of its non-immune variables.
"""

from __future__ import annotations

import functools
import heapq
from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType

from .cnf import MonotoneCnf, make_cnf
from .errors import InfeasibleBudgetError, ParameterError
# execute is not called here; perfbench/tracing.py patches it by name
from .simulation import SimulatedSystem, execute  # noqa: F401
from .solver import SolverConfig, enumerate_minimal

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
    return make_cnf([frozenset(f) for f in valid_faults], n_vars)


@functools.lru_cache(maxsize=2)
def _masks(formulas: tuple[tuple[int, MonotoneCnf], ...]) -> tuple[Mapping[int, int], int]:
    """Index clauses as ``(var -> clause bitmask, clause count)``.

    Clause instances are numbered across the formulas in order, one bit
    each, so a clause shared by two requests counts twice.  A sweep
    passes the same hard and soft tuples to every level, so the last two
    indexes are kept; the mapping is read-only because callers share it.
    """
    masks: dict[int, int] = {}
    n = 0
    for _, cnf in formulas:
        for c in cnf.clauses:
            bit = 1 << n
            for v in c:
                masks[v] = masks.get(v, 0) | bit
            n += 1
    return MappingProxyType(masks), n


def _path_holders(paths, faults) -> list[list[tuple[int, int]]]:
    """Per path, ``(var, bitmask of the faults holding it)`` for each of its
    variables that some fault holds.  Fault i is bit i, so a fault listed
    twice counts twice."""
    holders: dict[int, int] = {}
    for i, fault in enumerate(faults):
        for v in fault:
            holders[v] = holders.get(v, 0) | (1 << i)
    return [[(v, holders[v]) for v in path if v in holders] for path in paths]


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
    return HardeningPlan(
        selected=sel,
        hard_satisfied=not _uncovered(hard, sel),
        soft_covered=covered,
        soft_total=n_soft,
        cr=covered / n_soft if n_soft else 1.0,
        feasible=feasible,
        exact=exact,
    )


def _max_coverage_exact(candidates, cand_masks, limit):
    """Pick at most ``limit`` candidates maximizing covered clause bits.

    Branch and bound over candidates in descending gain order; ties in
    final coverage go to the lexicographically smallest selection.
    """
    order = sorted(range(len(candidates)), key=lambda i: (-cand_masks[i].bit_count(), candidates[i]))
    best_cov = -1
    best_sel: tuple[int, ...] = ()

    def consider(covered_mask, chosen):
        nonlocal best_cov, best_sel
        cov = covered_mask.bit_count()
        sel = tuple(sorted(candidates[i] for i in chosen))
        if cov > best_cov or (cov == best_cov and sel < best_sel):
            best_cov, best_sel = cov, sel

    def walk(pos, covered_mask, chosen):
        consider(covered_mask, chosen)
        picks_left = limit - len(chosen)
        if picks_left == 0 or pos == len(order):
            return
        gains = sorted(
            ((cand_masks[i] & ~covered_mask).bit_count() for i in order[pos:]),
            reverse=True,
        )
        if covered_mask.bit_count() + sum(gains[:picks_left]) < best_cov:
            return
        idx = order[pos]
        walk(pos + 1, covered_mask | cand_masks[idx], chosen + [idx])
        walk(pos + 1, covered_mask, chosen)

    walk(0, 0, [])
    return best_sel


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


# ((hard, n_vars), budget, covers) of the last cover search
_cover_memo: tuple | None = None


def _hard_covers(instance: HardeningInstance) -> list[tuple[int, ...]]:
    """Minimal hard covers within the budget, in lexicographic order.

    A call whose budget is within the last search's, on equal hard
    formulas, filters that search's covers by size instead of searching:
    minimality does not depend on the bound, so the list is the same.
    """
    global _cover_memo
    key = (instance.hard, instance.n_vars)
    if _cover_memo is None or _cover_memo[0] != key or instance.budget > _cover_memo[1]:
        hard_cnf = make_cnf([c for _, cnf in instance.hard for c in cnf.clauses], instance.n_vars)
        covers = enumerate_minimal(hard_cnf, SolverConfig(max_size=instance.budget))
        _cover_memo = (key, instance.budget, tuple(covers))
    # a fresh list, so no caller can alter the memo
    return [c for c in _cover_memo[2] if len(c) <= instance.budget]


def optimize(instance: HardeningInstance) -> HardeningPlan:
    """Two-stage selection; raises when the hard side cannot fit the budget.

    On small instances the exact stage-2 extension is evaluated for every
    minimal hard cover, which makes the result globally optimal: any
    optimal selection contains some minimal cover of the hard clauses.
    Above the size limits, the densest-coverage cover is frozen and the
    residual budget is spent greedily, flagged via ``exact=False``.

    The covers come from one search per hard side: a call with a budget
    no larger than the previous search's, on equal hard formulas, reuses
    that search's covers, so a sweep from the largest budget down runs
    one search.
    """
    hard, soft = _masks(instance.hard), _masks(instance.soft)
    soft_masks, n_soft = soft

    covers = _hard_covers(instance)
    if not covers:
        raise InfeasibleBudgetError(
            f"hard clauses unsatisfiable within budget {instance.budget}"
        )
    exact_mode = (
        len(soft_masks) <= _EXACT_MAX_CANDIDATES
        and n_soft <= _EXACT_MAX_CLAUSES
        and len(covers) <= _EXACT_MAX_COVERS
    )

    if exact_mode:
        best_sel: tuple[int, ...] | None = None
        best_cov = -1
        for cover in covers:
            uncovered = _uncovered(soft, cover)
            residual = instance.budget - len(cover)
            sel = cover
            if residual > 0 and uncovered:
                # one candidate per variable still hitting an uncovered clause
                candidates = sorted(v for v, m in soft_masks.items() if m & uncovered)
                cand_masks = [soft_masks[v] & uncovered for v in candidates]
                sel = tuple(sorted(cover + _max_coverage_exact(candidates, cand_masks, residual)))
            cov = n_soft - _uncovered(soft, sel).bit_count()
            if cov > best_cov or (cov == best_cov and sel < best_sel):
                best_cov, best_sel = cov, sel
        return _plan(best_sel, hard, soft, feasible=True, exact=True)

    # approximate path: freeze the best-covering minimal cover, extend greedily
    best = min(covers, key=lambda s: _uncovered(soft, s).bit_count())
    picks = _greedy_cover(soft_masks, _uncovered(soft, best), instance.budget - len(best))
    return _plan(best + tuple(picks), hard, soft, feasible=True, exact=False)


def greedy_baseline(instance: HardeningInstance) -> HardeningPlan:
    """Inverted-index greedy: cover hard clauses first, then soft ones.

    Never raises on a too-small budget; the returned plan carries
    ``feasible=False`` when the hard side could not be fully covered.
    """
    hard, soft = _masks(instance.hard), _masks(instance.soft)

    picks = _greedy_cover(hard[0], _uncovered(hard, ()), instance.budget)
    budget_left = instance.budget - len(picks)
    hard_ok = not _uncovered(hard, picks)

    if hard_ok and budget_left > 0:
        picks += _greedy_cover(soft[0], _uncovered(soft, picks), budget_left)

    return _plan(picks, hard, soft, feasible=hard_ok, exact=False)


def budget_sweep(
    system: SimulatedSystem,
    faults_by_request: Mapping[int, Sequence],
    high_priority: Collection[int],
    budgets: Sequence[int],
    method: str = "exact",
) -> BudgetSweep:
    """Evaluate selection plans across increasing budgets.

    Plans are computed from the largest budget down, so the exact method
    runs one hard-cover search per sweep (see :func:`optimize`); the
    levels are then assembled in increasing order.

    Coverage metrics come from the plans.  The residual-validity metric
    (AFVR) is the mean over requests of the share of known faults that
    still fail with the selected APIs immune, decided by ``execute``'s
    rule without injecting: a fault still fails when every path of the
    request holds one of its non-immune variables.  The rule needs no
    property of the faults: they may be non-minimal, non-failing or
    repeated.  Requests with no known faults contribute neither clauses
    nor an averaging term, but their ids must still name requests of the
    system.  Marginal gain is undefined at the first level and is taken
    against the last feasible level when an infeasible one sits in
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
    for rid in [*high_priority, *faults_by_request]:
        system.request(rid)  # raises UnknownRequestError

    active = {
        rid: faults for rid, faults in sorted(faults_by_request.items()) if faults
    }
    high = set(high_priority)
    hard = tuple(
        (rid, build_request_cnf(faults, system.n_vars))
        for rid, faults in active.items()
        if rid in high
    )
    soft = tuple(
        (rid, build_request_cnf(faults, system.n_vars))
        for rid, faults in active.items()
        if rid not in high
    )

    # largest budget first: optimize's one cover search serves every level
    plans: dict[int, HardeningPlan | None] = {}
    for b in reversed(budgets):
        instance = HardeningInstance(hard=hard, soft=soft, budget=b, n_vars=system.n_vars)
        if method == "exact":
            try:
                plans[b] = optimize(instance)
            except InfeasibleBudgetError:
                plans[b] = None
        else:
            plan = greedy_baseline(instance)
            plans[b] = plan if plan.feasible else None

    path_holders = {
        rid: _path_holders(system.request(rid).paths, faults) for rid, faults in active.items()
    }
    levels: list[SweepLevel] = []
    prev: tuple[int, int] | None = None  # (budget, soft_covered) of last feasible level
    for b in budgets:
        plan = plans[b]
        if plan is None:
            levels.append(SweepLevel(budget=b, plan=None, cr=None, mcg=None, afvr=None, feasible=False))
            continue
        mcg = None
        if prev is not None:
            mcg = (plan.soft_covered - prev[1]) / (b - prev[0])
        immune = frozenset(plan.selected)
        fractions = []
        for rid, faults in active.items():
            still = (1 << len(faults)) - 1
            for holders in path_holders[rid]:
                broken = 0  # faults with a non-immune variable on this path
                for v, faults_holding in holders:
                    if v not in immune:
                        broken |= faults_holding
                still &= broken
            fractions.append(still.bit_count() / len(faults))
        afvr = sum(fractions) / len(fractions) if fractions else 0.0
        levels.append(
            SweepLevel(budget=b, plan=plan, cr=plan.cr, mcg=mcg, afvr=afvr, feasible=True)
        )
        prev = (b, plan.soft_covered)
    return BudgetSweep(levels=tuple(levels))

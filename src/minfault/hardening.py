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
set when clause instance i contains it.  Instances are numbered across
requests, so a fault shared by two requests counts twice.  A sweep builds
each side's index once and runs one hard-cover search, at its largest
budget; each level takes that search's covers of its size or less, which
are exactly its own minimal covers.  The greedy is lazy (Minoux, 1978),
with the same picks and ties as a full rescan at every pick.

The sweep's residual-failure metric (AFVR) applies the execution rule of
:func:`minfault.simulation.execute` with bitmasks over each request's
known faults: a fault still fails when every path of the request holds
one of its non-immune variables.
"""

from __future__ import annotations

import heapq
from collections.abc import Collection, Mapping, Sequence
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


def _index(formulas: tuple[tuple[int, MonotoneCnf], ...]) -> tuple[dict[int, int], int]:
    """Index clauses as ``(var -> clause bitmask, clause count)``.

    Clause instances are numbered across the formulas in order, one bit
    each, so a clause shared by two requests counts twice.
    """
    clauses = [c for _, cnf in formulas for c in cnf.clauses]
    return _cover_masks(clauses), len(clauses)


def _path_holders(paths, faults) -> list[list[tuple[int, int]]]:
    """Per path, ``(var, bitmask of the faults holding it)`` for each of its
    variables that some fault holds.  Fault i is bit i, so a fault listed
    twice counts twice."""
    holders = _cover_masks(faults)
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


def _hard_covers(hard, n_vars: int, budget: int) -> list[tuple[int, ...]]:
    """Minimal hard covers within ``budget``, in lexicographic order."""
    hard_cnf = make_cnf([c for _, cnf in hard for c in cnf.clauses], n_vars)
    return enumerate_minimal(hard_cnf, SolverConfig(max_size=budget))


def _best_plan(hard, soft, covers, budget: int) -> HardeningPlan | None:
    """The plan with the smallest key over ``covers``; None when none fits ``budget``.

    Each cover's residual budget goes to the soft clauses it leaves
    uncovered: exactly on small instances, greedily above the size limits
    (flagged via ``exact=False``).  Plans are ranked by :func:`_plan_key`.
    """
    covers = [c for c in covers if len(c) <= budget]
    if not covers:
        return None
    soft_masks, n_soft = soft
    exact = (
        len(soft_masks) <= _EXACT_MAX_CANDIDATES
        and n_soft <= _EXACT_MAX_CLAUSES
        and len(covers) <= _EXACT_MAX_COVERS
    )
    keys = []
    for cover in covers:
        residual = budget - len(cover)
        if exact:
            keys.append(_max_coverage_exact(cover, soft, residual))
        else:
            sel = [*cover, *_greedy_cover(soft_masks, _uncovered(soft, cover), residual)]
            keys.append(_plan_key(n_soft - _uncovered(soft, sel).bit_count(), sel))
    return _plan(min(keys)[2], hard, soft, feasible=True, exact=exact)


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
    flagged via ``exact=False``.
    """
    covers = _hard_covers(instance.hard, instance.n_vars, instance.budget)
    plan = _best_plan(_index(instance.hard), _index(instance.soft), covers, instance.budget)
    if plan is None:
        raise InfeasibleBudgetError(
            f"hard clauses unsatisfiable within budget {instance.budget}"
        )
    return plan


def greedy_baseline(instance: HardeningInstance) -> HardeningPlan:
    """Inverted-index greedy: cover hard clauses first, then soft ones.

    Never raises on a too-small budget; the returned plan carries
    ``feasible=False`` when the hard side could not be fully covered.
    """
    return _greedy_plan(_index(instance.hard), _index(instance.soft), instance.budget)


def budget_sweep(
    system: SimulatedSystem,
    faults_by_request: Mapping[int, Sequence],
    high_priority: Collection[int],
    budgets: Sequence[int],
    method: str = "exact",
) -> BudgetSweep:
    """Evaluate selection plans across increasing budgets.

    Both indexes are built once.  The exact method runs one hard-cover
    search, at the largest budget, and hands each level the covers that
    fit it; each level's plan follows :func:`optimize`'s rule.

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

    hard_index, soft_index = _index(hard), _index(soft)
    if method == "exact":
        # the minimal covers within each budget are this search's covers of that size or less
        covers = _hard_covers(hard, system.n_vars, budgets[-1])
    path_holders = {
        rid: _path_holders(system.request(rid).paths, faults) for rid, faults in active.items()
    }
    levels: list[SweepLevel] = []
    prev: tuple[int, int] | None = None  # (budget, soft_covered) of last feasible level
    for b in budgets:
        if method == "exact":
            plan = _best_plan(hard_index, soft_index, covers, b)
        else:
            plan = _greedy_plan(hard_index, soft_index, b)
            if not plan.feasible:
                plan = None
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
        for rid, faults in active.items():
            still = (1 << len(faults)) - 1
            for holders in path_holders[rid]:
                broken = 0  # faults with a non-immune variable on this path
                for v, faults_holding in holders:
                    if v not in immune:
                        broken |= faults_holding
                still &= broken
            total += still.bit_count() / len(faults)
        afvr = total / len(active) if active else 0.0
        levels.append(
            SweepLevel(budget=b, plan=plan, cr=plan.cr, mcg=mcg, afvr=afvr, feasible=True)
        )
        prev = (b, plan.soft_covered)
    return BudgetSweep(levels=tuple(levels))

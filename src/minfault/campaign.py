"""Feedback-driven discovery of all minimal combinatorial faults.

The loop starts from the no-fault execution path and pulls minimal
candidates at bound k, one at a time, from a lazy search over the
current formula (:func:`minfault.solver.iter_minimal`).  It injects each
and reacts to the outcome: a failure records a valid fault, a survival
reveals a fresh alternative path that is conjoined into the formula, and
the search over the old formula is dropped unfinished for one over the
new.  Only when a search is exhausted does k grow, up to ``k_max``.

The campaign talks to the system exclusively through
:func:`minfault.simulation.execute`; it never reads paths directly.  It
keeps the valid faults, the current formula and counters, and nothing per
injection: its memory grows with what it learns, not with what it tries.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass

from .cnf import MonotoneCnf, conjoin, make_cnf
from .errors import MinfaultError, ParameterError
from .simulation import SimulatedSystem, execute
# enumerate_minimal is not called here; perfbench/tracing.py patches it by name
from .solver import SolverConfig, enumerate_minimal, iter_minimal  # noqa: F401


@dataclass(frozen=True)
class CampaignConfig:
    request_id: int
    k_max: int

    def __post_init__(self):
        if self.k_max < 1:
            raise ParameterError(f"k_max must be >= 1, got {self.k_max}")


@dataclass
class PhaseTimings:
    solve_ms: float = 0.0
    inject_ms: float = 0.0
    bookkeeping_ms: float = 0.0
    total_ms: float = 0.0


@dataclass
class CampaignResult:
    request_id: int
    k_max: int
    valid_faults: tuple[tuple[int, ...], ...]  # discovery order
    injections: int
    solver_calls: int
    final_cnf: MonotoneCnf
    final_k: int
    wall_times: PhaseTimings


def is_subsumed(candidate, valid) -> bool:
    """True iff some already-valid fault is a subset of the candidate.

    The campaign never needs this check (its candidates are minimal, see
    ``_drive``); it stays as an independent oracle for checking campaigns.
    """
    cand = frozenset(candidate)
    return any(frozenset(v) <= cand for v in valid)


def run_campaign(system: SimulatedSystem, config: CampaignConfig) -> CampaignResult:
    """Dynamic campaign: k starts at 1 and escalates on exhaustion."""
    return _drive(system, config.request_id, k_start=1, k_max=config.k_max, dynamic=True)


def run_campaign_static(system: SimulatedSystem, request_id: int, k_fixed: int) -> CampaignResult:
    """Baseline variant: full bound from the start, candidates kept across updates.

    Unlike the dynamic loop, a surviving injection does not discard the
    candidate pool; the pool is re-solved only once it drains.  Stale
    candidates therefore get injected, which is exactly the redundancy
    the dynamic mechanism is measured against.
    """
    if k_fixed < 1:
        raise ParameterError(f"k_fixed must be >= 1, got {k_fixed}")
    return _drive(system, request_id, k_start=k_fixed, k_max=k_fixed, dynamic=False)


def _drive(
    system: SimulatedSystem, request_id: int, k_start: int, k_max: int, dynamic: bool
) -> CampaignResult:
    t_start = time.perf_counter()
    solve_s = 0.0
    inject_s = 0.0

    bootstrap = execute(system, request_id, frozenset())
    if bootstrap.failed:
        raise MinfaultError(f"request {request_id} fails with no injected faults")
    phi = make_cnf([bootstrap.observed_path], system.n_vars)

    k = k_start
    # valid faults in discovery order, and the only candidates ever pulled
    # twice (see below); candidates are ascending tuples
    valid: dict[tuple[int, ...], None] = {}
    injections = 0
    solver_calls = 0

    def fresh_pool() -> Iterator[tuple[int, ...]]:
        # ``phi`` is immutable: the pool keeps solving the formula it was
        # opened on, however ``phi`` grows meanwhile
        nonlocal solver_calls
        solver_calls += 1
        return iter_minimal(phi, SolverConfig(max_size=k))

    pool = fresh_pool()
    while True:
        round_injections = injections
        round_m = phi.m
        while True:
            # the search runs inside next(), so its time is solving time
            t0 = time.perf_counter()
            cand = next(pool, None)
            solve_s += time.perf_counter() - t0
            if cand is None:
                break
            # a valid fault hits every real path, so it satisfies every
            # later formula: a minimal candidate containing it equals it.
            # A survivor never comes back: it misses the path it revealed,
            # which is conjoined before the next pull, and a pool yields
            # each set once, all satisfying the formula it was opened on
            # (in static mode too, where a stale pool runs on)
            if cand in valid:
                continue
            t0 = time.perf_counter()
            outcome = execute(system, request_id, cand)
            inject_s += time.perf_counter() - t0
            injections += 1
            if outcome.failed:
                valid[cand] = None
            else:
                phi = conjoin(phi, outcome.observed_path)
                if dynamic:
                    # the rest of the pool may no longer satisfy the grown
                    # formula; pull from a search over the new one instead
                    pool = fresh_pool()
        if dynamic:
            if k >= k_max:
                break
            k += 1
            pool = fresh_pool()
        else:
            if injections == round_injections and phi.m == round_m:
                break  # fixpoint: the last pool added nothing new
            pool = fresh_pool()

    total_s = time.perf_counter() - t_start
    timings = PhaseTimings(
        solve_ms=solve_s * 1e3,
        inject_ms=inject_s * 1e3,
        bookkeeping_ms=max(total_s - solve_s - inject_s, 0.0) * 1e3,
        total_ms=total_s * 1e3,
    )
    return CampaignResult(
        request_id=request_id,
        k_max=k_max,
        valid_faults=tuple(valid),
        injections=injections,
        solver_calls=solver_calls,
        final_cnf=phi,
        final_k=k,
        wall_times=timings,
    )

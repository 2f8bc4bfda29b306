"""Feedback-driven discovery of all minimal combinatorial faults.

The loop starts from the no-fault execution path, solves the current
formula for minimal candidates at bound k, injects them one by one, and
reacts to the outcome: a failure records a valid fault, a survival
reveals a fresh alternative path that is conjoined into the formula
(discarding the now-stale candidate stack).  Only when a bound is
exhausted does k grow, up to ``k_max``.

The campaign talks to the system exclusively through
:func:`minfault.simulation.execute`; it never reads paths directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .cnf import MonotoneCnf, conjoin, make_cnf
from .errors import MinfaultError, ParameterError
from .simulation import SimulatedSystem, execute
from .solver import SolverConfig, enumerate_minimal


@dataclass(frozen=True)
class CampaignConfig:
    request_id: int
    k_max: int

    def __post_init__(self):
        if self.k_max < 1:
            raise ParameterError(f"k_max must be >= 1, got {self.k_max}")


@dataclass(frozen=True)
class InjectionRecord:
    fault: tuple[int, ...]
    failed: bool
    formula_m: int  # clause count of the formula when this fault was injected


class InjectionHistory:
    """Append-only record of attempted fault sets and their outcomes."""

    def __init__(self):
        self._outcomes: dict[frozenset[int], bool] = {}

    def record(self, fault, failed: bool) -> None:
        fs = frozenset(fault)
        if fs in self._outcomes:
            raise MinfaultError(f"fault {sorted(fs)} recorded twice")
        self._outcomes[fs] = failed

    def __contains__(self, fault) -> bool:
        return frozenset(fault) in self._outcomes

    def __len__(self) -> int:
        return len(self._outcomes)

    def outcome(self, fault) -> bool:
        return self._outcomes[frozenset(fault)]


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
    history: InjectionHistory
    injection_log: tuple[InjectionRecord, ...]


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
    valid: list[tuple[int, ...]] = []
    history = InjectionHistory()
    log: list[InjectionRecord] = []
    injections = 0
    solver_calls = 0

    def fresh_stack() -> list[frozenset[int]]:
        nonlocal solver_calls, solve_s
        t0 = time.perf_counter()
        sols = enumerate_minimal(phi, SolverConfig(max_size=k))
        # popped from the end, so reverse to consume in lexicographic order
        pool = [frozenset(s) for s in reversed(sols)]
        solve_s += time.perf_counter() - t0
        solver_calls += 1
        return pool

    stack = fresh_stack()
    while True:
        round_injections = injections
        round_m = phi.m
        while stack:
            cand = stack.pop()
            # a valid fault hits every real path, so it satisfies every
            # later formula: a minimal candidate containing it equals it
            if cand in history:
                continue
            t0 = time.perf_counter()
            outcome = execute(system, request_id, cand)
            inject_s += time.perf_counter() - t0
            injections += 1
            log.append(InjectionRecord(tuple(sorted(cand)), outcome.failed, phi.m))
            history.record(cand, outcome.failed)
            if outcome.failed:
                valid.append(tuple(sorted(cand)))
            else:
                phi = conjoin(phi, outcome.observed_path)
                if dynamic:
                    # old candidates may no longer satisfy the grown
                    # formula; start over from the fresh solution set
                    stack = fresh_stack()
        if dynamic:
            if k >= k_max:
                break
            k += 1
            stack = fresh_stack()
        else:
            if injections == round_injections and phi.m == round_m:
                break  # fixpoint: the last pool added nothing new
            stack = fresh_stack()

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
        history=history,
        injection_log=tuple(log),
    )

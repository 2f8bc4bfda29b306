"""Enumeration of all subset-minimal satisfying assignments of a monotone CNF.

A monotone CNF is a hypergraph, and its minimal satisfying assignments
are that hypergraph's minimal hitting sets.  Two independent routes
exist on purpose: ``enumerate_minimal`` is a bitmask depth-first search
meant for real workloads, and ``brute_force_minimal`` is a small-universe
exhaustive oracle used to verify it.  They share no search machinery.

The search keeps minimality as an invariant with critical-clause
("crit") sets, after Murakami & Uno's MMCS (Discrete Applied Math. 170,
2014): every chosen variable must cover some clause no other chosen
variable covers, so every leaf is minimal and no leaf filter is needed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cnf import MonotoneCnf, is_satisfied
from .errors import FormulaTooLargeError, ParameterError

FaultSet = tuple  # tuple[VarId, ...] in ascending order


@dataclass(frozen=True)
class SolverConfig:
    """``max_size`` bounds the cardinality of returned assignments."""

    max_size: int

    def __post_init__(self):
        if self.max_size < 0:
            raise ParameterError(f"max_size must be >= 0, got {self.max_size}")


@dataclass
class SolverCounters:
    """Optional profiling counters; not part of the correctness contract.

    Every leaf is a distinct minimal solution, so ``leaf_hits`` equals the
    solution count and ``duplicate_leaves`` and ``nonminimal_leaves`` are
    always 0; they are kept so readers of the counters need not change.
    """

    expansions: int = 0
    pushes: int = 0
    leaf_hits: int = 0
    duplicate_leaves: int = 0
    nonminimal_leaves: int = 0


def _clause_candidates(cnf: MonotoneCnf) -> list[list[tuple[int, int]]]:
    """Per clause, ``(coverage mask, variable)`` for each of its variables."""
    cover: dict[int, int] = {}
    for i, c in enumerate(cnf.clauses):
        bit = 1 << i
        for v in c:
            cover[v] = cover.get(v, 0) | bit
    return [[(cover[v], v) for v in sorted(c)] for c in cnf.clauses]


def enumerate_minimal(cnf: MonotoneCnf, config: SolverConfig) -> list[FaultSet]:
    """All subset-minimal satisfying assignments with at most ``max_size`` variables.

    Explicit-stack DFS over uncovered-clause bitmasks (plain ints, so any
    clause count works); each expansion branches on the lowest-index
    uncovered clause.  A child is pushed only if every chosen variable
    still has a crit clause, one no other chosen variable covers, so each
    leaf is minimal.  Sibling ``j`` never picks the clause's variables
    tried before it, so each minimal set is reached exactly once.  Each
    assignment is ascending, the list sorted lexicographically.  The
    empty formula yields ``[()]``.
    """
    sols, _ = enumerate_minimal_with_counters(cnf, config)
    return sols


def enumerate_minimal_with_counters(
    cnf: MonotoneCnf, config: SolverConfig
) -> tuple[list[FaultSet], SolverCounters]:
    counters = SolverCounters()
    m = cnf.m
    if m == 0:
        counters.leaf_hits = 1
        return [()], counters
    maxd = config.max_size
    if maxd == 0:
        return [], counters

    cands = _clause_candidates(cnf)
    solutions: list[FaultSet] = []
    # (uncovered clauses, banned variables as a bitmask, chosen variables,
    #  crit mask of each chosen variable)
    stack: list[tuple[int, int, tuple[int, ...], tuple[int, ...]]] = [((1 << m) - 1, 0, (), ())]
    while stack:
        u, banned, chosen, crit = stack.pop()
        if u == 0:
            counters.leaf_hits += 1
            solutions.append(chosen)
            continue
        # a child at depth max_size is pushed only if it covers everything
        counters.expansions += 1
        i = (u & -u).bit_length() - 1
        last_level = len(chosen) + 1 == maxd
        tried = banned
        for cmask, v in cands[i]:
            vbit = 1 << v
            if banned & vbit:
                continue
            child_banned = tried
            tried |= vbit
            rest = ~cmask
            nu = u & rest
            if nu and last_level:
                continue
            child_crit = [c & rest for c in crit]
            if not all(child_crit):
                continue  # v covers every crit clause of some chosen variable
            child_crit.append(u & cmask)
            stack.append((nu, child_banned, chosen + (v,), tuple(child_crit)))
            counters.pushes += 1

    return sorted(tuple(sorted(s)) for s in solutions), counters


def is_minimal(candidate, cnf: MonotoneCnf) -> bool:
    """True iff dropping any single variable of a satisfying set breaks it.

    Raises ``ValueError`` when the candidate does not satisfy the formula
    (caller bug: minimality of a non-solution is meaningless).
    """
    fs = frozenset(candidate)
    if not is_satisfied(cnf, fs):
        raise ValueError(f"candidate {sorted(fs)} does not satisfy the formula")
    return all(not is_satisfied(cnf, fs - {v}) for v in fs)


def brute_force_minimal(cnf: MonotoneCnf, max_size: int) -> list[FaultSet]:
    """Exhaustive oracle: same contract and ordering as ``enumerate_minimal``.

    Enumerates subsets of the occurring variables by ascending size and
    keeps satisfying sets that stay unsatisfying after removing any
    single member (for monotone formulas that drop-one test is exactly
    subset-minimality).  Refuses universes above 20 variables.
    """
    if max_size < 0:
        raise ParameterError(f"max_size must be >= 0, got {max_size}")
    if cnf.n_vars > 20:
        raise FormulaTooLargeError(
            f"brute force refuses n_vars={cnf.n_vars} (limit 20)"
        )
    m = cnf.m
    if m == 0:
        return [()]
    occ = sorted(cnf.variables())
    masks: dict[int, int] = {}
    for i, c in enumerate(cnf.clauses):
        bit = 1 << i
        for v in c:
            masks[v] = masks.get(v, 0) | bit
    full = (1 << m) - 1
    # every member of a minimal set has a private clause, so size <= m
    out: list[FaultSet] = []
    for size in range(1, min(max_size, m, len(occ)) + 1):
        for combo in itertools.combinations(occ, size):
            acc = 0
            for v in combo:
                acc |= masks[v]
            if acc != full:
                continue
            minimal = True
            for v in combo:
                rest = 0
                for w in combo:
                    if w != v:
                        rest |= masks[w]
                if rest == full:
                    minimal = False
                    break
            if minimal:
                out.append(combo)
    out.sort()
    return out

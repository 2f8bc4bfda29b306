"""Enumeration of all subset-minimal satisfying assignments of a monotone CNF.

A monotone CNF is a hypergraph, and its minimal satisfying assignments
are that hypergraph's minimal hitting sets.  Two independent routes
exist on purpose: ``iter_minimal`` is a lazy bitmask depth-first search
meant for real workloads (``enumerate_minimal`` is its output, sorted),
and ``brute_force_minimal`` is a small-universe exhaustive oracle used to
verify it.  They share no search machinery.

The search keeps minimality as an invariant with critical-clause
("crit") sets, after Murakami & Uno's MMCS (Discrete Applied Math. 170,
2014): every chosen variable must cover some clause no other chosen
variable covers, so every leaf is minimal and no leaf filter is needed.
It prunes with the disjoint-clause lower bound (Gainer-Dewar &
Vera-Licona, SIAM J. Discrete Math. 31, 2017): a set of pairwise-disjoint
uncovered clauses needs as many more variables.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
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


def iter_minimal(
    cnf: MonotoneCnf, config: SolverConfig, counters: SolverCounters | None = None
) -> Iterator[FaultSet]:
    """Yield each subset-minimal satisfying assignment of at most ``max_size`` variables once.

    Explicit-stack DFS over uncovered-clause bitmasks (plain ints, so any
    clause count works); each expansion branches on the lowest-index
    uncovered clause, lowest variable first.  A child is pushed only if
    every chosen variable still has a crit clause, one no other chosen
    variable covers, so each leaf is minimal.  Sibling ``j`` never picks
    the clause's variables tried before it, so each minimal set is
    reached exactly once.  A node with more than one variable left is
    skipped when a greedy packing of pairwise-disjoint uncovered clauses
    (lowest index first) needs more variables than remain: each such
    clause needs a variable of its own.

    Each assignment is an ascending tuple; they come in search order, not
    sorted, and only as fast as they are pulled.  The empty formula
    yields ``()``.  ``counters``, when given, is updated in place.
    """
    if counters is None:
        counters = SolverCounters()
    m = cnf.m
    if m == 0:
        counters.leaf_hits += 1
        yield ()
        return
    maxd = config.max_size
    if maxd == 0:
        return

    cands = _clause_candidates(cnf)
    # clauses sharing no variable with clause i, as a mask
    apart = []
    for cs in cands:
        clash = 0
        for cmask, _ in cs:
            clash |= cmask
        apart.append(~clash)
    # (uncovered clauses, banned variables as a bitmask, chosen variables,
    #  crit mask of each chosen variable)
    stack: list[tuple[int, int, tuple[int, ...], tuple[int, ...]]] = [((1 << m) - 1, 0, (), ())]
    while stack:
        u, banned, chosen, crit = stack.pop()
        if u == 0:
            counters.leaf_hits += 1
            yield tuple(sorted(chosen))
            continue
        left = maxd - len(chosen)
        if left > 1:
            need = 0
            rest = u
            while rest and need <= left:
                need += 1
                rest &= apart[(rest & -rest).bit_length() - 1]
            if need > left:
                continue
        # a child at depth max_size is pushed only if it covers everything
        counters.expansions += 1
        i = (u & -u).bit_length() - 1
        last_level = left == 1
        tried = banned
        children = []
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
            children.append((nu, child_banned, chosen + (v,), tuple(child_crit)))
        # pushed in reverse so the lowest variable is popped first
        stack.extend(reversed(children))
        counters.pushes += len(children)


def enumerate_minimal(cnf: MonotoneCnf, config: SolverConfig) -> list[FaultSet]:
    """All subset-minimal satisfying assignments with at most ``max_size`` variables.

    The whole of :func:`iter_minimal`, sorted: each assignment ascending,
    the list lexicographic, whatever the search order.  The empty formula
    yields ``[()]``.
    """
    return sorted(iter_minimal(cnf, config))


def enumerate_minimal_with_counters(
    cnf: MonotoneCnf, config: SolverConfig
) -> tuple[list[FaultSet], SolverCounters]:
    """:func:`enumerate_minimal` plus the counters of its search."""
    counters = SolverCounters()
    return sorted(iter_minimal(cnf, config, counters)), counters


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

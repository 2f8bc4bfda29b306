"""Enumeration of all subset-minimal satisfying assignments of a monotone CNF.

A monotone CNF is a hypergraph, and its minimal satisfying assignments
are that hypergraph's minimal hitting sets.  Two independent routes
exist on purpose: ``iter_minimal`` is a lazy bitmask depth-first search
meant for real workloads (``iter_sorted_blocks`` and ``enumerate_minimal``
give its output in lexicographic order), and ``brute_force_minimal`` is a
small-universe exhaustive oracle used to verify it.  They share no search
machinery.

The search keeps minimality as an invariant with critical-clause
("crit") sets, after Murakami & Uno's MMCS (Discrete Applied Math. 170,
2014): every chosen variable must cover some clause no other chosen
variable covers, so every leaf is minimal and no leaf filter is needed.
It prunes with the disjoint-clause lower bound (Gainer-Dewar &
Vera-Licona, SIAM J. Discrete Math. 31, 2017): a set of pairwise-disjoint
uncovered clauses needs as many more variables.

``iter_sorted_blocks`` also collapses twin variables, those occurring in
exactly the same clauses, a reduction from the same survey.  It is exact:
a minimal set holds at most one variable of each twin class (two twins
cover the same clauses, so neither could keep a crit clause), and
swapping a member for any of its twins gives another minimal set of the
same size.  So the minimal sets of at most ``max_size`` variables are
exactly the choices of one member per class from the minimal sets of the
formula over the classes.
"""

from __future__ import annotations

import bisect
import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .cnf import MonotoneCnf, is_satisfied
from .errors import FormulaTooLargeError, ParameterError

FaultSet = tuple  # tuple[VarId, ...] in ascending order

_UNBOUNDED = float("inf")


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


def _cover_masks(clauses: Iterable[Iterable[int]]) -> dict[int, int]:
    """Each occurring variable's clause-cover mask: bit i for the i-th clause."""
    cover: dict[int, int] = {}
    for i, c in enumerate(clauses):
        bit = 1 << i
        for v in c:
            cover[v] = cover.get(v, 0) | bit
    return cover


def _clause_candidates(cnf: MonotoneCnf) -> list[list[tuple[int, int]]]:
    """Per clause, ``(coverage mask, variable)`` for each of its variables."""
    cover = _cover_masks(cnf.clauses)
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
    if cnf.m == 0:
        counters.leaf_hits += 1
        yield ()
        return
    yield from _search(_clause_candidates(cnf), config.max_size, counters)


def _search(
    cands: list[list[tuple[int, int]]], maxd: int, counters: SolverCounters
) -> Iterator[FaultSet]:
    """:func:`iter_minimal`'s search, given each clause's ``(coverage mask, variable)`` list."""
    if maxd == 0:
        return
    m = len(cands)
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


Block = tuple  # (prefix, lasts): the assignments prefix + (x,) for x in lasts


def iter_sorted_blocks(cnf: MonotoneCnf, config: SolverConfig) -> Iterator[Block]:
    """Every subset-minimal satisfying assignment of at most ``max_size`` variables, as blocks.

    A block ``(prefix, lasts)`` stands for the assignments
    ``prefix + (x,)`` for each ``x`` in ``lasts`` (never empty).  Blocks
    come in lexicographic order: flattened, they equal
    ``sorted(iter_minimal(cnf, config))``.  The empty formula's one
    assignment ``()`` has no last variable and comes as ``((), None)``.

    Twin variables, those occurring in exactly the same clauses, are
    searched once: :func:`iter_minimal`'s search runs over dense class
    indices, class ``i`` being the twin class with the ``i``-th smallest
    first member, so its bitmasks grow with the number of classes, not
    with the largest variable id.  Each set of classes it yields stands
    for every choice of one member per class (exact, see the module
    docstring); :func:`_expand_in_order` produces those choices in
    order.  Memory grows with the class-level sets, not with the
    expanded output.  A formula without twins has one class per
    variable, so it takes the same path and its sets are its output.
    """
    if cnf.m == 0:
        yield (), None
        return
    cover = _cover_masks(cnf.clauses)
    # cover mask -> its twin class, ascending; classes in order of their
    # smallest member
    twins: dict[int, list[int]] = {}
    for v in sorted(cover):
        twins.setdefault(cover[v], []).append(v)
    masks = list(twins)
    index = {v: i for i, members in enumerate(twins.values()) for v in members}
    cands = [[(masks[i], i) for i in sorted({index[v] for v in c})] for c in cnf.clauses]
    sets = list(_search(cands, config.max_size, SolverCounters()))
    yield from _expand_in_order(list(twins.values()), sets)


def _expand_in_order(classes: list[list[int]], sets: list[tuple[int, ...]]) -> Iterator[Block]:
    """The member choices of ``sets`` (tuples of indices into ``classes``) as sorted blocks.

    A depth-first walk with an explicit stack, so no global sort and no
    recursion.  A node is a prefix and the class sets still to place
    after it.  Its next variable ``x`` is a member, above the prefix's
    last variable, of a pending class whose set keeps a member above
    ``x`` in each of its other classes; so every node has a completion.
    Candidates are taken in ascending order across classes, which keeps
    classes whose ids interleave in order.  A node whose only pending
    set is one class is one block: that class's members above the prefix.
    """
    first = [members[0] for members in classes]
    top = [members[-1] for members in classes]
    # a walk node is (prefix, class sets still to place, None); a block
    # waiting its turn is (prefix, None, lasts)
    stack: list[tuple[FaultSet, list | None, list | None]] = [((), sets, None)]
    while stack:
        prefix, pending, lasts = stack.pop()
        if pending is None:
            yield prefix, lasts
            continue
        lo = prefix[-1] if prefix else -1
        # class -> (the rest of each pending set holding it, and the bound
        # the next variable must stay below for that set's other classes)
        groups: dict[int, list[tuple[tuple[int, ...], float]]] = {}
        for rs in pending:
            if len(rs) == 1:
                groups[rs[0]] = [((), _UNBOUNDED)]
                continue
            m1, m2 = sorted([top[c] for c in rs])[:2]
            for c in rs:
                hi = m2 if top[c] == m1 else m1
                if first[c] < hi:
                    groups.setdefault(c, []).append((tuple([d for d in rs if d != c]), hi))
        if len(groups) == 1:
            # the common leaf, one set with one class left: its block
            # needs no work per variable
            (c, entries), = groups.items()
            if not entries[0][0]:
                members = classes[c]
                yield prefix, members[bisect.bisect_right(members, lo):]
                continue
        steps = []
        for c, entries in groups.items():
            members = classes[c]
            a = bisect.bisect_right(members, lo)
            b = bisect.bisect_left(members, max([hi for _, hi in entries]))
            steps.extend([(x, c) for x in members[a:b]])
        steps.sort()
        items = []
        run: list[int] = []
        for x, c in steps:
            entries = groups[c]
            if not entries[0][0]:
                run.append(x)  # the set's last class: prefix + (x,) is complete
                continue
            if run:
                items.append((prefix, None, run))
                run = []
            items.append((prefix + (x,), [rest for rest, hi in entries if x < hi], None))
        if run:
            items.append((prefix, None, run))
        stack.extend(reversed(items))


def enumerate_minimal(cnf: MonotoneCnf, config: SolverConfig) -> list[FaultSet]:
    """All subset-minimal satisfying assignments with at most ``max_size`` variables.

    The same list as ``sorted(iter_minimal(cnf, config))``: each
    assignment ascending, the list lexicographic.  The empty formula
    yields ``[()]``.  This is :func:`iter_sorted_blocks` flattened, so
    twin variables are searched once and expanded in order.
    """
    out: list[FaultSet] = []
    for prefix, lasts in iter_sorted_blocks(cnf, config):
        if lasts is None:
            out.append(prefix)
        else:
            out.extend(zip(*map(itertools.repeat, prefix), lasts))
    return out


def enumerate_minimal_with_counters(
    cnf: MonotoneCnf, config: SolverConfig
) -> tuple[list[FaultSet], SolverCounters]:
    """:func:`enumerate_minimal`'s list, and the counters of the plain search.

    This runs :func:`iter_minimal` on ``cnf`` itself, without the twin
    reduction, so the counters describe the search a campaign makes.
    """
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
    # built here, not by ``_cover_masks``: the oracle shares no code with the search
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

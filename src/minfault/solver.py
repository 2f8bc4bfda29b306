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

The search runs over twin classes (below) with three bitmask tables
that ``_twin_classes`` builds once from the classes' cover masks: each
class's cover mask over clause indices, each clause's classes as a mask
(a node branches on its unbanned bits), and each clause's mask of the
clauses sharing no class with it.  A node that may add only one more
class does not branch: its leaves are the unbanned bits of the AND of
the uncovered clauses' masks that leave every chosen class a crit
clause.  Path formulas have long clauses and few such classes, so most
last-level nodes end after a few mask ANDs.

Every search collapses twin variables, those occurring in exactly the
same clauses, a reduction from the same survey.  It is exact: a minimal
set holds at most one variable of each twin class (two twins cover the
same clauses, so neither could keep a crit clause), and swapping a
member for any of its twins gives another minimal set of the same size.
So the minimal sets of at most ``max_size`` variables are exactly the
choices of one member per class from the minimal sets of the formula
over the classes.  A path formula over m distinct paths has at most
2**m - 1 classes however many APIs lie on its paths, so the search
grows with the paths, not with the APIs.  ``iter_minimal`` expands each
class set by product as it is pulled.  ``iter_sorted_blocks`` expands
them in order as blocks, a prefix and its completions.  Below a prefix
whose class sets have at most two classes left, the completions depend
only on those sets and on where the prefix ends in each class, so they
are built once per distinct subtree and shared by every prefix that
repeats it.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
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


def _twin_classes(clauses: Sequence[Iterable[int]]) -> tuple[list[list[int]], list[int], list[int], list[int]]:
    """The twin classes of ``clauses``' variables, and :func:`_search`'s tables over them.

    Classes are ascending lists of variables with one cover mask, ordered
    by smallest member.  The tables are each class's cover mask (the key
    its members are grouped by), each clause's classes as a mask, and each
    clause's mask of the clauses sharing no class with it; one walk over
    the cover masks' bits fills the last two.
    """
    cover = _cover_masks(clauses)
    twins: dict[int, list[int]] = {}
    for v in sorted(cover):
        twins.setdefault(cover[v], []).append(v)
    members = [0] * len(clauses)
    apart = [-1] * len(clauses)
    for i, mask in enumerate(twins):
        bit, keep = 1 << i, ~mask
        while mask:
            low = mask & -mask
            mask ^= low
            j = low.bit_length() - 1
            members[j] |= bit
            apart[j] &= keep
    return list(twins.values()), list(twins), members, apart


def iter_minimal(
    cnf: MonotoneCnf, config: SolverConfig, counters: SolverCounters | None = None
) -> Iterator[FaultSet]:
    """Yield each subset-minimal satisfying assignment of at most ``max_size`` variables once.

    Explicit-stack DFS over uncovered-clause bitmasks (plain ints, so any
    clause count works) with the module docstring's crit sets and
    last-level leaves, run over twin classes (class ``i`` being the one
    with the ``i``-th smallest first member).  Each expansion branches on
    the lowest-index uncovered clause, lowest class first, and a child
    never picks the clause's classes below its own, so each minimal class
    set is reached once.  A node with more than one class left is
    skipped when a greedy packing of pairwise-disjoint uncovered clauses
    (lowest index first) needs more classes than remain.  A last-level
    node yields its leaves lowest first, with the order and counters of
    pushing and popping them.

    Each class set stands for the product of its classes' members, taken
    in class order and yielded one ascending tuple at a time.  Sets come
    in that search order, not sorted, and only as fast as they are
    pulled.  The empty formula yields ``()``.  ``counters``, when given,
    is updated in place: ``expansions`` and ``pushes`` count class-level
    nodes, ``leaf_hits`` the assignments yielded.
    """
    if counters is None:
        counters = SolverCounters()
    classes, *tables = _twin_classes(cnf.clauses)
    for rs in _search(*tables, config.max_size, counters):
        for choice in itertools.product(*[classes[c] for c in rs]):
            counters.leaf_hits += 1
            yield tuple(sorted(choice))


def _search(
    cover: Sequence[int], members: Sequence[int], apart: Sequence[int], maxd: int, counters: SolverCounters
) -> Iterator[FaultSet]:
    """:func:`iter_minimal`'s search over :func:`_twin_classes`' tables, with no setup of its own.

    ``cover[v]`` is variable ``v``'s mask over clause indices, ``members[j]``
    clause ``j``'s variables as a mask over ids (a node branches on its
    unbanned bits, lowest first), and ``apart[j]`` the mask of the clauses
    sharing no variable with clause ``j``.  With no clauses the root is the
    one leaf, ``()``.  Yields ascending tuples of variables and leaves
    ``counters.leaf_hits`` to the caller.
    """
    # (uncovered clauses, banned variables' mask, chosen variables, their crit masks)
    stack: list[tuple[int, int, tuple[int, ...], tuple[int, ...]]] = [((1 << len(members)) - 1, 0, (), ())]
    while stack:
        u, banned, chosen, crit = stack.pop()
        if u == 0:
            yield tuple(sorted(chosen))
            continue
        left = maxd - len(chosen)
        if left == 1:
            counters.expansions += 1
            # the leaves are the unbanned variables in every uncovered
            # clause that leave each chosen variable a crit clause; lowest
            # first, the order in which pushed children would pop
            common = ~banned
            rest = u
            while rest and common:
                low = rest & -rest
                common &= members[low.bit_length() - 1]
                rest ^= low
            while common:
                low = common & -common
                common ^= low
                v = low.bit_length() - 1
                keep = ~cover[v]
                if all([c & keep for c in crit]):
                    counters.pushes += 1
                    yield tuple(sorted(chosen + (v,)))
            continue
        need = 0
        rest = u
        while rest and need <= left:
            need += 1
            rest &= apart[(rest & -rest).bit_length() - 1]
        if need > left:
            continue
        counters.expansions += 1
        i = (u & -u).bit_length() - 1
        children = []
        free = members[i] & ~banned
        while free:
            vbit = free & -free
            free ^= vbit
            v = vbit.bit_length() - 1
            cmask = cover[v]
            rest = ~cmask
            nu = u & rest
            child_crit = [c & rest for c in crit]
            if not all(child_crit):
                continue  # v covers every crit clause of some chosen variable
            child_crit.append(u & cmask)
            child_banned = banned | (members[i] & (vbit - 1))
            children.append((nu, child_banned, chosen + (v,), tuple(child_crit)))
        # pushed in reverse so the lowest variable is popped first
        stack.extend(reversed(children))
        counters.pushes += len(children)


Block = tuple  # (prefix, tails): the assignments prefix + t for t in tails

# a block holds at most this many tails, or the formula's variable count if larger
_BLOCK_TAILS = 1 << 16


def iter_sorted_blocks(cnf: MonotoneCnf, config: SolverConfig) -> Iterator[Block]:
    """Every subset-minimal satisfying assignment of at most ``max_size`` variables, as blocks.

    A block ``(prefix, tails)`` stands for the assignments ``prefix + t``
    for each ``t`` in ``tails``, a non-empty sorted tuple of tuples of one
    or two variables.  Blocks come in lexicographic order: flattened, they
    equal ``sorted(iter_minimal(cnf, config))``.  The empty formula's one
    assignment ``()`` comes as ``((), ((),))``.  Prefixes whose completions
    are the same share one ``tails`` object, so a reader that formats or
    copies ``tails`` can do it once per distinct object.  No block holds
    more than ``max(2**16, n_vars)`` tails.

    Twin variables are searched once, as in :func:`iter_minimal`, so the
    search's bitmasks grow with the number of classes, not with the
    largest variable id.  Each set of classes it finds stands for every
    choice of one member per class (exact, see the module docstring);
    :func:`_expand_in_order` produces those choices in order.  Memory
    grows with the class-level sets and the formula, not with the
    expanded output.
    """
    classes, *tables = _twin_classes(cnf.clauses)
    sets = list(_search(*tables, config.max_size, SolverCounters()))
    yield from _expand_in_order(classes, sets, max(_BLOCK_TAILS, cnf.n_vars))


def _expand_in_order(classes: list[list[int]], sets: list[tuple[int, ...]], limit: int) -> Iterator[Block]:
    """The member choices of ``sets`` (tuples of indices into ``classes``) as sorted blocks.

    A depth-first walk with an explicit stack, so no global sort and no
    recursion.  A node is a prefix and the class sets still to place
    after it.  Its next variable ``x`` is a member, above the prefix's
    last variable, of a pending class whose set keeps a member above
    ``x`` in each of its other classes; so every node has a completion.
    Candidates are taken in ascending order across classes, which keeps
    classes whose ids interleave in order, and a run of candidates that
    complete their set becomes one block of 1-tuples.

    A node whose pending sets have at most two classes each is one
    block, unless it has more than ``limit`` completions: its tails are
    the members above the prefix of each one-class set, and the
    ``(min, max)`` pairs of members above it of each two-class set,
    sorted.  They depend only on the pending sets and on where the
    prefix's last variable falls in their classes, so the next such node
    with the same sets and positions gets the same tuple object.
    """
    first = [members[0] for members in classes]
    top = [members[-1] for members in classes]
    # the last two-level node's sets with their positions, and its tails
    memo_key: list | None = None
    memo_tails: tuple = ()
    # a walk node is (prefix, class sets still to place, None); a block
    # waiting its turn is (prefix, None, tails)
    stack: list[tuple[FaultSet, list | None, tuple | None]] = [((), sets, None)] if sets else []
    while stack:
        prefix, pending, tails = stack.pop()
        if pending is None:
            yield prefix, tails
            continue
        lo = prefix[-1] if prefix else -1
        if max(map(len, pending)) <= 2:
            key = [(rs, [bisect.bisect_right(classes[c], lo) for c in rs]) for rs in pending]
            if key == memo_key:
                yield prefix, memo_tails
                continue
            if sum([math.prod([len(classes[c]) - a for c, a in zip(rs, at)]) for rs, at in key]) <= limit:
                found: list[tuple[int, ...]] = []
                for rs, at in key:
                    parts = [classes[c][a:] for c, a in zip(rs, at)]
                    if len(parts) == 2:
                        xs, ys = parts
                        found.extend([(x, y) if x < y else (y, x) for x in xs for y in ys])
                    else:
                        found.extend(itertools.product(*parts))
                found.sort()
                memo_key, memo_tails = key, tuple(found)
                yield prefix, memo_tails
                continue
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
        steps = []
        for c, entries in groups.items():
            members = classes[c]
            a = bisect.bisect_right(members, lo)
            b = bisect.bisect_left(members, max([hi for _, hi in entries]))
            steps.extend([(x, c) for x in members[a:b]])
        steps.sort()
        items = []
        run: list[tuple[int]] = []
        for x, c in steps:
            entries = groups[c]
            if not entries[0][0]:
                run.append((x,))  # the set's last class: prefix + (x,) is complete
                continue
            if run:
                items.append((prefix, None, tuple(run)))
                run = []
            items.append((prefix + (x,), [rest for rest, hi in entries if x < hi], None))
        if run:
            items.append((prefix, None, tuple(run)))
        stack.extend(reversed(items))


def enumerate_minimal(cnf: MonotoneCnf, config: SolverConfig) -> list[FaultSet]:
    """All subset-minimal satisfying assignments with at most ``max_size`` variables.

    The same list as ``sorted(iter_minimal(cnf, config))``: each
    assignment ascending, the list lexicographic.  The empty formula
    yields ``[()]``.  This is :func:`iter_sorted_blocks` flattened, so
    twin variables are searched once and expanded in order.
    """
    out: list[FaultSet] = []
    for prefix, tails in iter_sorted_blocks(cnf, config):
        out.extend([prefix + t for t in tails])
    return out


def enumerate_minimal_with_counters(
    cnf: MonotoneCnf, config: SolverConfig
) -> tuple[list[FaultSet], SolverCounters]:
    """:func:`enumerate_minimal`'s list, and the counters of :func:`iter_minimal`'s search.

    This sorts :func:`iter_minimal`'s output, so the counters describe
    the search a campaign makes: class-level nodes, and one leaf hit per
    assignment.
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

"""Monotone CNF formulas over API-call variables.

A request's alternative execution paths become one positive clause each;
a fault set satisfies the formula exactly when it breaks every path.
Formulas are immutable values: construction normalizes away duplicate
clauses, and every operation returns a fresh formula.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence, Set as AbstractSet
from dataclasses import dataclass
from itertools import chain

from .errors import CnfParseError, InvalidClauseError, VariableRangeError

VarId = int

Clause = frozenset  # frozenset[VarId]; non-empty, positive literals only

_PATH_TYPES = {set, frozenset, tuple, list}


@dataclass(frozen=True)
class MonotoneCnf:
    """Normalized conjunction of positive clauses over variables [0, n_vars)."""

    clauses: tuple[frozenset[int], ...]
    n_vars: int

    @property
    def m(self) -> int:
        return len(self.clauses)

    def variables(self) -> frozenset[int]:
        """All variables that occur in at least one clause."""
        out: set[int] = set()
        for c in self.clauses:
            out |= c
        return frozenset(out)


@dataclass(frozen=True)
class CnfStats:
    """Shape statistics of a clause list.

    ``aco`` is the average fraction of variables shared by two distinct
    clauses, normalized by mean clause length; it is 0 when fewer than
    two clauses exist and never exceeds 1.
    """

    m: int
    mean_clause_len: float
    mean_var_coverage: float
    aco: float


def _check_path(path: AbstractSet[int], n_vars: int) -> frozenset[int]:
    # checked before the set is built, in which True would merge into 1
    for v in path:
        if not isinstance(v, int) or isinstance(v, bool):
            raise VariableRangeError(f"variable id {v!r} is not an integer")
        if v < 0:
            raise VariableRangeError(f"negative variable id {v}")
        if v >= n_vars:
            raise VariableRangeError(f"variable id {v} out of range for universe of {n_vars}")
    fs = frozenset(path)
    if not fs:
        raise InvalidClauseError("empty path is not allowed")
    return fs


def _plain(paths: Sequence, n_vars: int) -> bool:
    """True only when ``paths`` are non-empty sets, frozensets, tuples or lists
    of plain ints in ``[0, n_vars)``, all of which :func:`_check_path` passes."""
    # the ids' own types: in a set True would merge into 1
    if not (set(map(type, paths)) <= _PATH_TYPES and all(paths)
            and set(map(type, chain.from_iterable(paths))) <= {int}):
        return False
    ids = set(chain.from_iterable(paths))
    return not ids or (min(ids) >= 0 and max(ids) < n_vars)


def make_cnf(paths: Iterable[AbstractSet[int]], n_vars: int) -> MonotoneCnf:
    """Build a formula with one clause per path, dropping duplicate clauses.

    Clause order follows the first occurrence of each distinct var-set.
    A list or tuple of paths that :func:`_plain` accepts is checked and
    deduplicated in C; any other input goes through :func:`_check_path`
    one path at a time, which raises on the first malformed path.
    """
    if n_vars < 0:
        raise VariableRangeError(f"n_vars must be non-negative, got {n_vars}")
    if type(paths) in (list, tuple) and _plain(paths, n_vars):
        clauses = dict.fromkeys(map(frozenset, paths))
    else:
        clauses = {}
        for path in paths:
            clauses[_check_path(path, n_vars)] = None
    return MonotoneCnf(clauses=tuple(clauses), n_vars=n_vars)


def is_satisfied(cnf: MonotoneCnf, assignment: AbstractSet[int]) -> bool:
    """True iff every clause contains at least one assigned variable."""
    for v in assignment:
        if v < 0 or v >= cnf.n_vars:
            raise VariableRangeError(f"assignment variable {v} out of range for universe of {cnf.n_vars}")
    vs = assignment if isinstance(assignment, (set, frozenset)) else set(assignment)
    return all(c & vs for c in cnf.clauses)


def conjoin(cnf: MonotoneCnf, new_path: AbstractSet[int]) -> MonotoneCnf:
    """Append one path as a clause; a clause already present is a no-op."""
    c = _check_path(new_path, cnf.n_vars)
    if c in cnf.clauses:
        return cnf
    return MonotoneCnf(clauses=cnf.clauses + (c,), n_vars=cnf.n_vars)


def compute_stats(clauses: MonotoneCnf | Sequence[AbstractSet[int]]) -> CnfStats:
    """Compute clause-shape statistics on a formula or a raw clause list.

    Accepting a raw list matters because the overlap statistic is defined
    over the clauses as observed, before duplicate elimination.
    """
    if isinstance(clauses, MonotoneCnf):
        cs: Sequence[AbstractSet[int]] = clauses.clauses
    else:
        cs = clauses
    m = len(cs)
    if m == 0:
        return CnfStats(m=0, mean_clause_len=0.0, mean_var_coverage=0.0, aco=0.0)
    total_len = sum(len(c) for c in cs)
    mean_len = total_len / m
    deg: dict[int, int] = {}
    for c in cs:
        for v in c:
            deg[v] = deg.get(v, 0) + 1
    # mean coverage is taken over variables that actually occur
    mean_cov = sum(deg.values()) / len(deg) if deg else 0.0
    if m < 2 or mean_len == 0:
        aco = 0.0
    else:
        pair_sum = sum(d * (d - 1) // 2 for d in deg.values())
        aco = 2.0 * pair_sum / (m * (m - 1) * mean_len)
    return CnfStats(m=m, mean_clause_len=mean_len, mean_var_coverage=mean_cov, aco=aco)


# --- file format -----------------------------------------------------------
#
# Header:  p mcnf <n_vars> <n_clauses>
# Clauses: 1-based positive integers terminated by 0, one clause per line.
# Every count and literal is written in ASCII decimal digits, and the
# header's and clauses' tokens are separated by ASCII spaces only.
# Comment lines starting with "c " may precede the header.  LF endings.

# whitespace other than the ASCII space: tab, CR, NBSP, U+001C, U+2003, ...
_OTHER_SPACE = re.compile(r"[^\S ]")


def serialize_cnf(cnf: MonotoneCnf) -> str:
    lines = [f"p mcnf {cnf.n_vars} {cnf.m}"]
    for c in cnf.clauses:
        lines.append(" ".join(str(v + 1) for v in sorted(c)) + " 0")
    return "\n".join(lines) + "\n"


def _decimal(token: str) -> int:
    """``token`` as an int: ASCII decimal digits, after an optional ``-``.

    ``int`` alone would also take ``+2``, ``1_0`` and non-ASCII digits.
    Raises ``ValueError`` for anything else.
    """
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(token)
    return int(token)


def parse_cnf(text: str) -> MonotoneCnf:
    lines = text.split("\n")
    # a trailing LF yields one empty trailing element; anything else is junk
    if lines and lines[-1] == "":
        lines.pop()
    n_vars = -1
    declared_m = -1
    clauses: list[frozenset[int]] = []
    header_seen = False
    for idx, line in enumerate(lines, start=1):
        if not header_seen and (line.startswith("c ") or line == "c"):
            continue
        found = _OTHER_SPACE.search(line)
        if found:
            raise CnfParseError(idx, f"whitespace {found.group()!r} other than an ASCII space")
        # only ASCII spaces are left, so ``split`` splits on them alone
        if not header_seen:
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "mcnf":
                raise CnfParseError(idx, f"malformed header {line!r}, expected 'p mcnf <n_vars> <n_clauses>'")
            try:
                n_vars = _decimal(parts[2])
                declared_m = _decimal(parts[3])
            except ValueError:
                raise CnfParseError(idx, f"non-integer counts in header {line!r}") from None
            # by sign, not by value: ``_decimal`` reads ``-0`` as 0
            if parts[2].startswith("-") or parts[3].startswith("-"):
                raise CnfParseError(idx, "header counts must be non-negative")
            header_seen = True
            continue
        tokens = line.split()
        if not tokens:
            raise CnfParseError(idx, "blank line inside clause section")
        lits: list[int] = []
        for tok in tokens:
            try:
                lit = _decimal(tok)
            except ValueError:
                raise CnfParseError(idx, f"non-integer literal {tok!r}") from None
            if tok.startswith("-"):  # ``-0`` too, which would read as the terminator
                raise CnfParseError(idx, f"negative literal {tok}")
            lits.append(lit)
        if lits[-1] != 0:
            raise CnfParseError(idx, "missing clause terminator 0")
        body = lits[:-1]
        if any(l == 0 for l in body):
            raise CnfParseError(idx, "literal 0 inside clause body")
        if not body:
            raise CnfParseError(idx, "empty clause")
        if any(l > n_vars for l in body):
            raise CnfParseError(idx, f"literal {max(body)} exceeds declared universe of {n_vars}")
        clauses.append(frozenset(l - 1 for l in body))
    if not header_seen:
        raise CnfParseError(len(lines) + 1, "missing header")
    if len(clauses) != declared_m:
        raise CnfParseError(len(lines), f"header declares {declared_m} clauses, found {len(clauses)}")
    return make_cnf(clauses, n_vars)

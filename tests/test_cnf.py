"""Formula construction, satisfaction, overlap statistics, and file I/O."""

import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cnfs_with_assignment, monotone_cnfs
import minfault.cnf
from minfault.cnf import (
    CnfStats,
    compute_stats,
    conjoin,
    is_satisfied,
    make_cnf,
    parse_cnf,
    serialize_cnf,
)
from minfault.errors import CnfParseError, InvalidClauseError, MinfaultError, VariableRangeError

A, B, C, D = 0, 1, 2, 3


# tokens that ``int`` and ``str.split`` treat in surprising ways included
_CNF_LINES = st.lists(
    st.sampled_from(["p", "mcnf", "c", "0", "1", "2", "3", "-2", "+1", "1_0", "\u0663",
                     "9" * 5000, "x", "\r", "\x0b", "\u00a0"]),
    max_size=5,
).map(" ".join)
CNF_TEXTS = st.one_of(
    st.text(),
    st.lists(_CNF_LINES, max_size=6).map("\n".join),
    st.builds(lambda head, body: head + "\n" + "\n".join(body),
              st.sampled_from(["p mcnf 3 2", "p mcnf 0 0", "c x\np mcnf 2 1", "p  mcnf\t3 1 "]),
              st.lists(_CNF_LINES, max_size=4)),
)


def worked_example():
    # (A|B) & (B|C) & (A|D)
    return make_cnf([{A, B}, {B, C}, {A, D}], 4)


def pairwise_overlap(clauses):
    """Oracle: mean pairwise intersection size, normalized by mean length."""
    m = len(clauses)
    if m < 2:
        return 0.0
    mean_len = sum(len(c) for c in clauses) / m
    total = sum(
        len(set(clauses[i]) & set(clauses[j]))
        for i in range(m)
        for j in range(i + 1, m)
    )
    return total / (m * (m - 1) / 2) / mean_len


class TestMakeCnf:
    def test_three_paths(self):
        cnf = worked_example()
        assert cnf.m == 3
        assert cnf.n_vars == 4
        assert cnf.clauses == (frozenset({A, B}), frozenset({B, C}), frozenset({A, D}))

    def test_single_path(self):
        cnf = make_cnf([{A}], 1)
        assert cnf.m == 1
        assert cnf.clauses[0] == frozenset({A})

    def test_duplicate_paths_collapse(self):
        cnf = make_cnf([{A, B}, {A, B}], 2)
        assert cnf.m == 1

    def test_empty_path_rejected(self):
        with pytest.raises(InvalidClauseError):
            make_cnf([{A}, set()], 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(VariableRangeError):
            make_cnf([{0, 4}], 4)

    def test_negative_id_rejected(self):
        with pytest.raises(VariableRangeError):
            make_cnf([{-1}], 4)

    def test_negative_universe_rejected(self):
        with pytest.raises(VariableRangeError, match="n_vars must be non-negative, got -1"):
            make_cnf([], -1)

    def test_bool_beside_its_integer_rejected(self):
        # a set would merge True into 1
        with pytest.raises(VariableRangeError, match="True is not an integer"):
            make_cnf([(1, True)], 5)


def reference_make_cnf(paths, n_vars):
    """``make_cnf`` checking one id at a time, as it did before its check ran in C."""
    if n_vars < 0:
        raise VariableRangeError(f"n_vars must be non-negative, got {n_vars}")
    seen = set()
    clauses = []
    for path in paths:
        for v in path:
            if not isinstance(v, int) or isinstance(v, bool):
                raise VariableRangeError(f"variable id {v!r} is not an integer")
            if v < 0:
                raise VariableRangeError(f"negative variable id {v}")
            if v >= n_vars:
                raise VariableRangeError(f"variable id {v} out of range for universe of {n_vars}")
        c = frozenset(path)
        if not c:
            raise InvalidClauseError("empty path is not allowed")
        if c not in seen:
            seen.add(c)
            clauses.append(c)
    return tuple(clauses)


class Sub(int):
    """An ``int`` subclass: the per-id check accepts it, and the check in C leaves it to that one."""


def build_path(kind, ids):
    if kind == "iter":
        return iter(ids)
    if kind == "str":
        return "".join(map(str, ids))
    if kind == "none":  # not iterable
        return None
    return {"set": set, "frozenset": frozenset, "tuple": tuple, "list": list}[kind](ids)


def build_paths(outer, recipes):
    """Fresh paths from ``recipes``: iterators are spent by one call."""
    paths = (build_path(kind, ids) for kind, ids in recipes)
    return paths if outer == "generator" else {"list": list, "tuple": tuple}[outer](paths)


def outcome(fn, outer, recipes, n_vars):
    try:
        return fn(build_paths(outer, recipes), n_vars)
    except Exception as exc:
        return type(exc), str(exc)


ODD_IDS = st.sampled_from([-1, -2, True, False, Sub(0), Sub(2), 1.0, "1", 10 ** 30])
PLAIN_KINDS = ["set", "frozenset", "tuple", "list"]


@st.composite
def path_recipes(draw):
    """(outer iterable, (kind, ids) per path, n_vars); one path in three may
    be of an odd kind or hold odd ids, so both routes of the check run."""
    n_vars = draw(st.integers(0, 6))
    recipes = []
    for _ in range(draw(st.integers(0, 6))):
        odd = draw(st.integers(0, 2)) == 0
        kinds = PLAIN_KINDS + ["iter", "str", "none"] if odd else PLAIN_KINDS
        ids = st.integers(-1, n_vars) | ODD_IDS if odd else st.integers(0, max(n_vars - 1, 0))
        recipes.append((draw(st.sampled_from(kinds)), draw(st.lists(ids, min_size=int(not odd), max_size=4))))
    if recipes:  # repeat some paths, their ids reordered
        for kind, ids in draw(st.lists(st.sampled_from(recipes), max_size=3)):
            recipes.append((kind, draw(st.permutations(ids))))
    return draw(st.sampled_from(["list", "tuple", "generator"])), recipes, n_vars


class TestMakeCnfOracle:
    """``make_cnf`` against the per-id loop: the same clauses in the same
    order, or the same exception type and message."""

    @settings(max_examples=400, deadline=None)
    @given(path_recipes())
    @example(("list", [("set", [1, True])], 3))
    @example(("list", [("set", [True, 1])], 3))
    @example(("list", [("tuple", [1, True])], 3))
    @example(("list", [("tuple", [2, Sub(1)])], 3))
    @example(("list", [("tuple", [0]), ("tuple", [-1])], 3))
    @example(("tuple", [("tuple", [0]), ("list", [3])], 3))
    @example(("list", [("tuple", [0]), ("set", [])], 3))
    @example(("list", [("tuple", [1, 1, 0]), ("set", [0, 1]), ("list", [1, 0])], 2))
    @example(("list", [("iter", [1, 2])], 3))
    @example(("list", [("iter", [1, 2]), ("tuple", [2])], 3))
    @example(("list", [("none", [])], 3))
    @example(("generator", [("tuple", [2, 0]), ("tuple", [0, 2])], 3))
    @example(("list", [], 0))
    @example(("list", [("tuple", [0])], -1))
    def test_matches_per_id_loop(self, case):
        outer, recipes, n_vars = case
        want = outcome(reference_make_cnf, outer, recipes, n_vars)
        got = outcome(make_cnf, outer, recipes, n_vars)
        if isinstance(got, minfault.cnf.MonotoneCnf):
            assert got.n_vars == n_vars
            got = got.clauses
        assert got == want

    def test_plain_lists_skip_the_per_id_loop(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("per-id check ran")

        monkeypatch.setattr(minfault.cnf, "_check_path", refuse)
        paths = [(2, 0), [1], {3, 0}, frozenset({0, 2}), (0, 2, 2)]
        assert make_cnf(paths, 4).clauses == reference_make_cnf(paths, 4)
        assert make_cnf(tuple(paths), 4).clauses == reference_make_cnf(paths, 4)
        assert make_cnf([], 0).clauses == ()


class TestIsSatisfied:
    def test_worked_example_solution(self):
        assert is_satisfied(worked_example(), {A, B})

    def test_empty_assignment_fails_nonempty_formula(self):
        assert not is_satisfied(worked_example(), set())

    def test_uncovered_clause(self):
        # {C, D} leaves (A|B) uncovered
        assert not is_satisfied(worked_example(), {C, D})

    def test_empty_formula_vacuous(self):
        assert is_satisfied(make_cnf([], 3), set())

    def test_out_of_range_assignment(self):
        with pytest.raises(VariableRangeError):
            is_satisfied(worked_example(), {7})

    @given(cnfs_with_assignment())
    def test_monotonicity(self, cnf_assignment):
        cnf, s = cnf_assignment
        if is_satisfied(cnf, s):
            bigger = s | {cnf.n_vars - 1}
            assert is_satisfied(cnf, bigger)


class TestConjoin:
    def test_appends_distinct_clause(self):
        cnf = make_cnf([{A, B}, {B, C}], 4)
        out = conjoin(cnf, {A, D})
        assert out.m == 3
        assert cnf.m == 2  # input untouched

    def test_idempotent_on_present_clause(self):
        cnf = make_cnf([{A, B}, {B, C}], 4)
        assert conjoin(cnf, {B, A}).clauses == cnf.clauses

    def test_two_path_buildup(self):
        one = make_cnf([{0, 1}], 3)
        two = conjoin(one, {0, 2})
        assert two.clauses == (frozenset({0, 1}), frozenset({0, 2}))

    def test_empty_path_rejected(self):
        with pytest.raises(InvalidClauseError):
            conjoin(worked_example(), set())

    @given(cnfs_with_assignment())
    def test_never_gains_solutions(self, cnf_assignment):
        cnf, s = cnf_assignment
        if cnf.n_vars < 2:
            return
        grown = conjoin(cnf, {0, 1})
        if is_satisfied(grown, s):
            assert is_satisfied(cnf, s)


class TestComputeStats:
    def test_identical_pair_overlaps_fully(self):
        # raw duplicate clauses, computed before normalization
        stats = compute_stats([{A, B}, {A, B}])
        assert stats.aco == pytest.approx(1.0)

    def test_half_overlap(self):
        stats = compute_stats([{A, B}, {B, C}])
        assert stats.aco == pytest.approx(0.5)

    def test_single_clause_has_no_overlap(self):
        assert compute_stats([{A, B}]).aco == 0.0
        assert compute_stats([]).aco == 0.0

    def test_mean_clause_len(self):
        stats = compute_stats(worked_example())
        assert stats.m == 3
        assert stats.mean_clause_len == pytest.approx(2.0)

    def test_mean_var_coverage_counts_occurring_vars_only(self):
        # A:2 B:2 C:1 D:1 over universe of 10 -> mean over the 4 occurring
        cnf = make_cnf([{A, B}, {B, C}, {A, D}], 10)
        assert compute_stats(cnf).mean_var_coverage == pytest.approx(6 / 4)

    @given(monotone_cnfs())
    def test_matches_pairwise_oracle(self, cnf):
        stats = compute_stats(cnf)
        assert stats.aco == pytest.approx(pairwise_overlap(cnf.clauses), abs=1e-12)

    @given(monotone_cnfs(max_clauses=5))
    def test_bounds_and_saturation(self, cnf):
        stats = compute_stats(cnf)
        assert 0.0 <= stats.aco <= 1.0 + 1e-12
        # saturation happens exactly when every clause pair is identical;
        # normalized formulas with m >= 2 are therefore always below 1
        if cnf.m >= 2:
            assert stats.aco < 1.0
        if cnf.m:
            raw = [set(cnf.clauses[0])] * 3
            assert compute_stats(raw).aco == pytest.approx(1.0)


class TestFileFormat:
    def test_parse_basic(self):
        cnf = parse_cnf("p mcnf 4 2\n1 2 0\n2 3 0\n")
        assert cnf.n_vars == 4
        assert cnf.clauses == (frozenset({0, 1}), frozenset({1, 2}))

    def test_round_trip_canonical(self):
        text = serialize_cnf(worked_example())
        assert serialize_cnf(parse_cnf(text)) == text

    def test_comments_before_header(self):
        cnf = parse_cnf("c a note\np mcnf 2 1\n1 2 0\n")
        assert cnf.m == 1

    def test_negative_literal_rejected(self):
        # ``-0`` too: read as 0, it would end the clause or sit inside it
        for clause in ("1 -3 0", "1 2 -0", "-0", "1 -0 2 0"):
            with pytest.raises(CnfParseError, match="line 2: negative literal -[03]$"):
                parse_cnf(f"p mcnf 4 1\n{clause}\n")

    @pytest.mark.parametrize("token", ["1_0", "+2", "\u0663", "2\u0663", "\u00b3", "--3", "-"])
    def test_literal_not_ascii_decimal_rejected(self, token):
        # ``int`` reads the first four as 10, 2, 3 and 23
        with pytest.raises(CnfParseError, match="line 2.*non-integer literal " + re.escape(repr(token))):
            parse_cnf(f"p mcnf 40 1\n1 {token} 0\n")

    @pytest.mark.parametrize("token", ["1_0", "+2", "\u0663", "\u00b3"])
    def test_count_not_ascii_decimal_rejected(self, token):
        for header in (f"p mcnf {token} 1", f"p mcnf 40 {token}"):
            with pytest.raises(CnfParseError, match="line 1.*non-integer counts"):
                parse_cnf(header + "\n1 0\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("p mcnf 4 1\n1\u00a02 0\n", 2),
            ("p mcnf 4 1\n1\x1c2 0\n", 2),
            ("p\u2003mcnf 4 1\n1 2 0\n", 1),
            ("p mcnf 4 1\r\n1 2 0\r\n", 1),
        ],
        ids=["nbsp", "file-separator", "em-space", "crlf"],
    )
    def test_whitespace_other_than_space_rejected(self, text, line):
        # ``str.split`` would read each as if written with ASCII spaces
        with pytest.raises(CnfParseError, match=f"line {line}: whitespace .* other than an ASCII space"):
            parse_cnf(text)

    def test_negative_count_rejected(self):
        # ``-0`` too, which would read as an empty formula
        for header in ("p mcnf -1 0", "p mcnf -0 -0", "p mcnf 3 -0", "p mcnf -0 0"):
            with pytest.raises(CnfParseError, match="line 1: header counts must be non-negative"):
                parse_cnf(header + "\n")

    def test_zero_inside_clause_rejected(self):
        with pytest.raises(CnfParseError, match="line 2: literal 0 inside clause body"):
            parse_cnf("p mcnf 2 1\n1 0 2 0\n")

    def test_missing_terminator(self):
        with pytest.raises(CnfParseError, match="line 2.*terminator"):
            parse_cnf("p mcnf 4 1\n1 2\n")

    def test_malformed_header(self):
        with pytest.raises(CnfParseError, match="line 1"):
            parse_cnf("p cnf 4 1\n1 2 0\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(CnfParseError, match="declares 2"):
            parse_cnf("p mcnf 4 2\n1 2 0\n")

    def test_out_of_range_literal(self):
        with pytest.raises(CnfParseError, match="exceeds"):
            parse_cnf("p mcnf 2 1\n1 3 0\n")

    def test_missing_header(self):
        with pytest.raises(CnfParseError, match="header"):
            parse_cnf("1 2 0\n")

    def test_comment_after_header_rejected(self):
        with pytest.raises(CnfParseError):
            parse_cnf("p mcnf 2 1\nc late comment\n1 0\n")

    def test_empty_formula_round_trip(self):
        text = serialize_cnf(make_cnf([], 5))
        assert text == "p mcnf 5 0\n"
        assert parse_cnf(text).m == 0

    @given(monotone_cnfs())
    def test_round_trip_identity(self, cnf):
        assert parse_cnf(serialize_cnf(cnf)) == cnf

    @settings(max_examples=400)
    @given(CNF_TEXTS)
    def test_fuzzed_text_parses_or_raises_package_error(self, text):
        try:
            cnf = parse_cnf(text)
        except MinfaultError:
            return
        assert parse_cnf(serialize_cnf(cnf)) == cnf

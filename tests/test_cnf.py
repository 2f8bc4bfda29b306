"""Formula construction, satisfaction, overlap statistics, and file I/O."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cnfs_with_assignment, monotone_cnfs
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
        with pytest.raises(CnfParseError, match="line 2.*negative literal"):
            parse_cnf("p mcnf 4 1\n1 -3 0\n")

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
        with pytest.raises(CnfParseError, match="line 1: header counts must be non-negative"):
            parse_cnf("p mcnf -1 0\n")

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

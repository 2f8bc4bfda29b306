"""DFS enumerator vs the exhaustive oracle, plus its contract edge cases."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import monotone_cnfs
from minfault.campaign import CampaignConfig, run_campaign
from minfault.cnf import is_satisfied, make_cnf
from minfault.errors import FormulaTooLargeError, ParameterError
from minfault.simulation import GenParams, generate_system
from minfault.solver import (
    SolverConfig,
    SolverCounters,
    brute_force_minimal,
    enumerate_minimal,
    enumerate_minimal_with_counters,
    is_minimal,
    iter_minimal,
)

A, B, C, D = 0, 1, 2, 3


def worked_example():
    return make_cnf([{A, B}, {B, C}, {A, D}], 4)


def random_cnf(rng, max_vars=14, max_clauses=8, max_len=5):
    n = rng.randint(1, max_vars)
    m = rng.randint(0, max_clauses)
    clauses = []
    for _ in range(m):
        size = rng.randint(1, min(max_len, n))
        clauses.append(set(rng.sample(range(n), size)))
    return make_cnf(clauses, n)


class TestEnumerateMinimal:
    def test_worked_example(self):
        out = enumerate_minimal(worked_example(), SolverConfig(max_size=2))
        assert out == [(A, B), (A, C), (B, D)]
        assert (C, D) not in out

    def test_empty_formula(self):
        assert enumerate_minimal(make_cnf([], 3), SolverConfig(max_size=2)) == [()]
        assert enumerate_minimal(make_cnf([], 3), SolverConfig(max_size=0)) == [()]

    def test_bound_too_small(self):
        # no single variable covers all three clauses
        assert enumerate_minimal(worked_example(), SolverConfig(max_size=1)) == []

    def test_bound_zero_nonempty_formula(self):
        assert enumerate_minimal(worked_example(), SolverConfig(max_size=0)) == []

    def test_unit_formula(self):
        assert enumerate_minimal(make_cnf([{A}], 1), SolverConfig(max_size=1)) == [(A,)]

    def test_negative_bound_rejected(self):
        with pytest.raises(ParameterError):
            SolverConfig(max_size=-1)

    def test_same_mask_different_depths_keeps_all_solutions(self):
        # (0|2)(1|2)(3): picking {0,1} reaches the same uncovered mask as
        # {2} one level deeper, yet (0,1,3) is still subset-minimal
        cnf = make_cnf([{0, 2}, {1, 2}, {3}], 4)
        out = enumerate_minimal(cnf, SolverConfig(max_size=3))
        assert out == [(0, 1, 3), (2, 3)]

    def test_counters_populated(self):
        sols, counters = enumerate_minimal_with_counters(
            worked_example(), SolverConfig(max_size=2)
        )
        assert len(sols) == 3
        assert counters.expansions > 0
        assert counters.leaf_hits >= 3

    def test_many_clauses_beyond_word_width(self):
        # 70 unit clauses force a 70-bit uncovered mask
        n = 70
        cnf = make_cnf([{i} for i in range(n)], n)
        out = enumerate_minimal(cnf, SolverConfig(max_size=n))
        assert out == [tuple(range(n))]

    def test_deep_search_needs_no_recursion(self):
        # one solution 1,500 variables deep: far past Python's recursion limit
        n = 1500
        cnf = make_cnf([{i} for i in range(n)], n)
        assert enumerate_minimal(cnf, SolverConfig(max_size=n)) == [tuple(range(n))]

    def test_campaign_fault_union_cover(self):
        # the hardening cover formula of two shared-API requests: 2,718
        # clauses with few minimal covers but many non-minimal branches,
        # which a leaf-filtering search explores without finishing
        system = generate_system(
            GenParams(group_num=2, edge_num=40, bone_num=3, n_requests=8,
                      shared_api_fraction=0.3, seed=1)
        )
        faults = [
            set(f)
            for r in (0, 3)
            for f in run_campaign(system, CampaignConfig(request_id=r, k_max=3)).valid_faults
        ]
        cnf = make_cnf(faults, system.n_vars)
        assert cnf.m == 2718
        out = enumerate_minimal(cnf, SolverConfig(max_size=32))
        assert len(out) == 9
        assert all(is_minimal(s, cnf) for s in out)


class TestIsMinimal:
    def test_solution_is_minimal(self):
        assert is_minimal({A, B}, worked_example())

    def test_redundant_variable_detected(self):
        assert not is_minimal({A, B, C}, worked_example())

    def test_empty_on_empty_formula(self):
        assert is_minimal(set(), make_cnf([], 2))

    def test_non_solution_is_contract_error(self):
        with pytest.raises(ValueError):
            is_minimal({C}, worked_example())


class TestBruteForce:
    def test_worked_example(self):
        assert brute_force_minimal(worked_example(), 2) == [(A, B), (A, C), (B, D)]

    def test_unit_formula(self):
        assert brute_force_minimal(make_cnf([{A}], 1), 1) == [(A,)]

    def test_minimality_filter(self):
        # (A|B): the pair {A,B} is satisfying but not minimal
        assert brute_force_minimal(make_cnf([{A, B}], 2), 2) == [(A,), (B,)]

    def test_refuses_large_universe(self):
        with pytest.raises(FormulaTooLargeError):
            brute_force_minimal(make_cnf([{0}], 21), 1)

    def test_empty_formula(self):
        assert brute_force_minimal(make_cnf([], 4), 2) == [()]


class TestOracleEquivalence:
    def test_seeded_instances_match(self):
        rng = random.Random(0xFA57)
        for _ in range(150):
            cnf = random_cnf(rng, max_vars=10, max_clauses=6)
            k = rng.randint(0, cnf.n_vars)
            got = enumerate_minimal(cnf, SolverConfig(max_size=k))
            want = brute_force_minimal(cnf, k)
            assert got == want, f"mismatch on {cnf} k={k}"

    @given(monotone_cnfs(max_vars=8, max_clauses=5), st.integers(min_value=0, max_value=8))
    @settings(max_examples=150)
    def test_property_match(self, cnf, k):
        assert enumerate_minimal(cnf, SolverConfig(max_size=k)) == brute_force_minimal(cnf, k)


class TestSolverProperties:
    @given(monotone_cnfs(max_vars=9, max_clauses=6), st.integers(min_value=0, max_value=9))
    @settings(max_examples=120)
    def test_sound_minimal_antichain(self, cnf, k):
        out, counters = enumerate_minimal_with_counters(cnf, SolverConfig(max_size=k))
        # minimal and unique by construction: every leaf is a solution
        assert counters.leaf_hits == len(out)
        assert counters.duplicate_leaves == counters.nonminimal_leaves == 0
        sets = [frozenset(s) for s in out]
        for s in sets:
            assert len(s) <= k
            assert is_satisfied(cnf, s)
            assert is_minimal(s, cnf)
        for i, s in enumerate(sets):
            for j, t in enumerate(sets):
                if i != j:
                    assert not s < t

    @given(monotone_cnfs(max_vars=9, max_clauses=6), st.integers(min_value=0, max_value=8))
    @settings(max_examples=100)
    def test_bound_monotonicity(self, cnf, k):
        small = set(enumerate_minimal(cnf, SolverConfig(max_size=k)))
        large = set(enumerate_minimal(cnf, SolverConfig(max_size=k + 1)))
        assert small <= large

    def test_deterministic_repeat_runs(self):
        rng = random.Random(7)
        for _ in range(20):
            cnf = random_cnf(rng, max_vars=10, max_clauses=6)
            cfg = SolverConfig(max_size=cnf.n_vars)
            first = enumerate_minimal(cnf, cfg)
            second = enumerate_minimal(cnf, cfg)
            assert repr(first) == repr(second)

    def test_denser_coverage_shrinks_search(self):
        # at equal clause count, variables covering more clauses mean fewer
        # reachable states; the counters expose that scaling direction
        m = 6
        disjoint = make_cnf([{2 * i, 2 * i + 1} for i in range(m)], 2 * m)
        ring = make_cnf([{i, (i + 1) % m} for i in range(m)], m)
        _, sparse = enumerate_minimal_with_counters(disjoint, SolverConfig(max_size=m))
        _, dense = enumerate_minimal_with_counters(ring, SolverConfig(max_size=m))
        assert dense.expansions < sparse.expansions


def request_cnf(group_num, edge_num, bone_num):
    system = generate_system(GenParams(group_num=group_num, edge_num=edge_num,
                                       bone_num=bone_num, n_requests=1, seed=1))
    return make_cnf(system.request(0).paths, system.n_vars)


class TestIterMinimal:
    @given(monotone_cnfs(max_vars=9, max_clauses=6), st.integers(min_value=0, max_value=9))
    @settings(max_examples=150)
    def test_yields_each_oracle_solution_once(self, cnf, k):
        counters = SolverCounters()
        out = list(iter_minimal(cnf, SolverConfig(max_size=k), counters))
        assert all(list(s) == sorted(s) for s in out)
        assert len(set(out)) == len(out)
        assert sorted(out) == brute_force_minimal(cnf, k)
        assert counters.leaf_hits == len(out)

    def test_lazy_on_a_huge_solution_set(self):
        # (2,300,4) at k=4 has about 3.1e8 minimal sets; pulling the first
        # thousand must not search for the rest
        counters = SolverCounters()
        pool = iter_minimal(request_cnf(2, 300, 4), SolverConfig(max_size=4), counters)
        first = list(itertools.islice(pool, 1000))
        assert len(first) == len(set(first)) == 1000
        assert counters.leaf_hits == 1000
        assert counters.expansions < 100

    def test_disjoint_clause_packing_prunes(self):
        # four disjoint group pairs: without the packing bound the search
        # expands 64,651 nodes to find these 81 sets
        sols, counters = enumerate_minimal_with_counters(
            request_cnf(4, 100, 3), SolverConfig(max_size=4)
        )
        assert len(sols) == 81
        assert counters.expansions < 1000

    def test_packing_bound_at_exact_size(self):
        # three disjoint clauses need three variables: nothing below k=3
        cnf = make_cnf([{0, 1}, {2, 3}, {4, 5}, {0, 2, 4}], 6)
        counters = SolverCounters()
        assert list(iter_minimal(cnf, SolverConfig(max_size=2), counters)) == []
        assert counters.expansions == 0
        assert enumerate_minimal(cnf, SolverConfig(max_size=3)) == brute_force_minimal(cnf, 3)

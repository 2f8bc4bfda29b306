"""DFS enumerator vs the exhaustive oracle, plus its contract edge cases."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import monotone_cnfs, request_cnf, request_system
from minfault.campaign import CampaignConfig, run_campaign
from minfault.cnf import is_satisfied, make_cnf
from minfault.errors import FormulaTooLargeError, ParameterError
from minfault.simulation import GenParams, generate_system
from minfault.solver import (
    SolverConfig,
    SolverCounters,
    _twin_classes,
    brute_force_minimal,
    enumerate_minimal,
    enumerate_minimal_with_counters,
    is_minimal,
    iter_minimal,
    iter_sorted_blocks,
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

    def test_bound_zero_counters(self):
        # the empty formula's root is its one leaf; a non-empty formula
        # fails the packing test at the root and touches no counter
        counters = SolverCounters()
        assert list(iter_minimal(make_cnf([], 3), SolverConfig(max_size=0), counters)) == [()]
        assert counters == SolverCounters(leaf_hits=1)
        counters = SolverCounters()
        assert list(iter_minimal(worked_example(), SolverConfig(max_size=0), counters)) == []
        assert counters == SolverCounters()

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

    def test_negative_bound_rejected(self):
        with pytest.raises(ParameterError, match="max_size must be >= 0, got -1"):
            brute_force_minimal(worked_example(), -1)

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

    @given(
        monotone_cnfs(max_vars=7, max_clauses=5),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=100)
    def test_twin_inflation_keeps_the_search(self, cnf, k, r):
        # every variable v becomes r twins r*v .. r*v + r - 1: the search
        # over twin classes is the same, and each set S comes back as the
        # r**|S| choices of one twin per member
        copy = make_cnf([{r * v + j for v in c for j in range(r)} for c in cnf.clauses], r * cnf.n_vars)
        cfg = SolverConfig(max_size=k)
        base, plain = SolverCounters(), SolverCounters()
        out = list(iter_minimal(cnf, cfg, base))
        inflated = list(iter_minimal(copy, cfg, plain))
        assert (plain.expansions, plain.pushes) == (base.expansions, base.pushes)
        assert len(set(inflated)) == len(inflated) == plain.leaf_hits
        assert Counter(tuple(sorted({v // r for v in s})) for s in inflated) == {
            s: r ** len(s) for s in out
        }


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


def mmcs_order(cnf, k):
    """The sets of at most ``k`` variables a plain recursive MMCS finds, in its order.

    Sets stand in for masks and no packing bound prunes.  It branches on
    the first uncovered clause, its variables ascending; a sibling never
    takes a variable tried before it, and every chosen variable must keep
    a clause no other chosen variable covers.
    """
    clauses = [frozenset(c) for c in cnf.clauses]
    out = []

    def visit(chosen, banned):
        uncovered = [c for c in clauses if c.isdisjoint(chosen)]
        if not uncovered:
            out.append(tuple(sorted(chosen)))
            return
        if len(chosen) == k:
            return
        tried = set(banned)
        for v in sorted(uncovered[0] - banned):
            sibling_banned = set(tried)
            tried.add(v)
            now = chosen | {v}
            if all(any(c & now == {w} for c in clauses) for w in now):
                visit(now, sibling_banned)

    visit(frozenset(), set())
    return out


def _bounded_model(clauses, blocks, k, true, false):
    """DPLL: a set of at most ``k`` variables that holds ``true``, misses
    ``false``, meets every clause and holds no block whole; None if none does.

    Unit propagation runs both ways: a clause left with one free variable
    sets it, and a block left with one variable not yet true clears it.
    A branch is cut when the clauses it leaves open hold more pairwise
    disjoint ones, over their free variables, than it has picks left.
    It branches on the free variables of the shortest open clause,
    ascending: each is set in turn, after the ones before it are cleared.
    """
    true, false = set(true), set(false)
    changed = True
    while changed:
        changed = False
        for c in clauses:
            if not c & true:
                free = c - false
                if not free:
                    return None
                if len(free) == 1:
                    true |= free
                    changed = True
        for b in blocks:
            if not b & false:
                left = b - true
                if not left:
                    return None
                if len(left) == 1:
                    false |= left
                    changed = True
    open_free = sorted((c - false for c in clauses if not c & true), key=len)
    disjoint, seen = 0, set()
    for c in open_free:
        if seen.isdisjoint(c):
            disjoint += 1
            seen |= c
    if len(true) + disjoint > k:
        return None
    if not open_free:
        return true
    for v in sorted(open_free[0]):
        model = _bounded_model(clauses, blocks, k, true | {v}, false)
        if model is not None:
            return model
        false = false | {v}
    return None


def blocking_minimal(cnf, k):
    """The minimal sets of at most ``k`` variables that meet every clause of
    ``cnf``, sorted, found with blocking clauses.

    Each round finds a model by :func:`_bounded_model`, shrinks it to a
    minimal set by dropping, in ascending order, each variable the rest
    can do without, and blocks every superset of that set.  A model holds
    no earlier set, so its minimal set is new; the rounds end when no
    model is left, and then every minimal set within ``k`` has been found.
    Shares no code with the package's search.
    """
    clauses = [frozenset(c) for c in cnf.clauses]
    found = []
    while (model := _bounded_model(clauses, found, k, (), ())) is not None:
        for v in sorted(model):
            if all(c & (model - {v}) for c in clauses):
                model.discard(v)
        found.append(frozenset(model))
    return sorted(tuple(sorted(s)) for s in found)


@st.composite
def cnfs_with_twins(draw):
    """A random formula plus fresh variables that copy others' occurrences.

    The copies get the highest ids, so their twin classes interleave with
    the others by id; then all ids may be permuted, so classes interleave
    in any pattern.
    """
    cnf = draw(monotone_cnfs(max_vars=7, max_clauses=5))
    originals = draw(st.lists(st.integers(min_value=0, max_value=cnf.n_vars - 1), max_size=6))
    n = cnf.n_vars + len(originals)
    ids = draw(st.one_of(st.just(list(range(n))), st.permutations(range(n))))
    clauses = [
        {ids[v] for v in c} | {ids[cnf.n_vars + j] for j, v in enumerate(originals) if v in c}
        for c in cnf.clauses
    ]
    return make_cnf(clauses, n)


def twin_formula(cnf):
    """``cnf`` over its twin classes, and the classes, ordered by smallest member."""
    by_clauses = {}
    for v in sorted(cnf.variables()):
        key = frozenset(i for i, c in enumerate(cnf.clauses) if v in c)
        by_clauses.setdefault(key, []).append(v)
    classes = list(by_clauses.values())
    clauses = [{i for i, members in enumerate(classes) if members[0] in c} for c in cnf.clauses]
    return make_cnf(clauses, len(classes)), classes


class TestSearchOrder:
    """``iter_minimal``'s order, on which a campaign's discovery order rests."""

    @given(
        st.one_of(monotone_cnfs(max_vars=12, max_clauses=8), cnfs_with_twins()),
        st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=200)
    def test_order_matches_plain_mmcs(self, cnf, k):
        # plain MMCS over the twin classes, each class set expanded by
        # product in class order; forced twins make sets of several
        # many-member classes, where the expansion order shows
        twins, classes = twin_formula(cnf)
        want = [
            tuple(sorted(choice))
            for rs in mmcs_order(twins, k)
            for choice in itertools.product(*[classes[c] for c in rs])
        ]
        assert list(iter_minimal(cnf, SolverConfig(max_size=k))) == want

    @pytest.mark.parametrize(
        "shape, k, count", [((3, 200, 4), 3, 64), ((4, 100, 3), 4, 81)], ids=["3-200-4", "4-100-3"]
    )
    def test_wide_clauses_match_closed_form(self, shape, k, count):
        # 30- to 140-variable clauses over 388 or 588 variables, beyond
        # brute force; per group, a minimal fault takes one variable both
        # its paths share, or a fast-only and a full-only one
        system = request_system(*shape)
        req = system.request(0)
        groups = {}
        for path, g in zip(req.paths, req.group_of_path):
            groups.setdefault(g, []).append(path)
        groups = list(groups.values())
        # two paths per group, and no variable in two groups
        assert all(len(paths) == 2 for paths in groups)
        assert sum(len(a | b) for a, b in groups) == len(frozenset().union(*req.paths))
        want = set()

        def extend(i, acc):
            if i == len(groups):
                want.add(tuple(sorted(acc)))
                return
            a, b = groups[i]
            for v in a & b:
                extend(i + 1, acc | {v})
            if len(acc) + 2 + len(groups) - i - 1 <= k:
                for x in a - b:
                    for y in b - a:
                        extend(i + 1, acc | {x, y})

        extend(0, frozenset())
        counters = SolverCounters()
        out = list(iter_minimal(make_cnf(req.paths, system.n_vars), SolverConfig(max_size=k),
                                counters))
        assert len(out) == len(set(out)) == count
        assert set(out) == want
        assert counters.leaf_hits == len(out)


class TestBlockingOracle:
    """``enumerate_minimal`` against :func:`blocking_minimal`, past brute force's 20 variables."""

    def test_small_formulas_match_brute_force(self):
        rng = random.Random(0xB1)
        for _ in range(150):
            cnf = random_cnf(rng)
            k = rng.randint(0, 5)
            assert blocking_minimal(cnf, k) == brute_force_minimal(cnf, k), f"{cnf} k={k}"

    def test_random_formulas_over_21_to_40_variables(self):
        # most clauses hold one of three hot variables, so small sets exist
        rng = random.Random(0xB10C)
        found = wide = 0
        for _ in range(200):
            n = rng.randint(21, 40)
            hot = rng.sample(range(n), 3)
            clauses = []
            for _ in range(rng.randint(1, 10)):
                c = set(rng.sample(range(n), rng.randint(2, 8)))
                if rng.random() < 0.7:
                    c.add(rng.choice(hot))
                clauses.append(c)
            cnf = make_cnf(clauses, n)
            k = rng.randint(1, 3)
            want = enumerate_minimal(cnf, SolverConfig(max_size=k))
            assert blocking_minimal(cnf, k) == want, f"{cnf} k={k}"
            found += len(want)
            wide += len(cnf.variables()) > 20
        assert found > 1000 and wide > 50

    def test_wide_request_formula(self):
        # 6 clauses of 60 or 140 variables over 588
        cnf = request_cnf(3, 200, 4)
        want = enumerate_minimal(cnf, SolverConfig(max_size=3))
        assert len(want) == 64
        assert blocking_minimal(cnf, 3) == want


class TestTwinClasses:
    """``enumerate_minimal`` searches one variable per twin class and expands by product."""

    @pytest.mark.parametrize(
        "shape, count", [((2, 50, 2), 185_761), ((4, 100, 3), 81)], ids=["2-50-2", "4-100-3"]
    )
    def test_generated_request_formulas(self, shape, count):
        cnf = request_cnf(*shape)
        cfg = SolverConfig(max_size=4)
        out = enumerate_minimal(cnf, cfg)
        assert len(out) == count
        assert out == sorted(iter_minimal(cnf, cfg))

    def test_interleaved_classes(self):
        # classes {0, 2} and {1, 3}: the product of representatives (0, 1)
        # yields (2, 1), which must come out as (1, 2)
        cnf = make_cnf([{0, 2}, {1, 3}], 4)
        out = enumerate_minimal(cnf, SolverConfig(max_size=2))
        assert out == [(0, 1), (0, 3), (1, 2), (2, 3)]
        assert out == brute_force_minimal(cnf, 2)

    def test_max_size_between_class_sizes(self):
        # classes {0, 1}, {2, 3}, {4}, {5, 6}: (4, 5) and (0, 2, 5) at class level
        cnf = make_cnf([{0, 1, 4}, {2, 3, 4}, {5, 6}], 7)
        assert enumerate_minimal(cnf, SolverConfig(max_size=2)) == [(4, 5), (4, 6)]
        assert len(enumerate_minimal(cnf, SolverConfig(max_size=3))) == 10
        for k in range(5):
            assert enumerate_minimal(cnf, SolverConfig(max_size=k)) == brute_force_minimal(cnf, k)

    def test_empty_formula_and_zero_bound(self):
        assert enumerate_minimal(make_cnf([], 5), SolverConfig(max_size=0)) == [()]
        assert enumerate_minimal(make_cnf([{0, 1}, {0, 1, 2}], 3), SolverConfig(max_size=0)) == []

    @given(st.one_of(cnfs_with_twins(), monotone_cnfs(max_vars=12, max_clauses=8)))
    @settings(max_examples=300)
    def test_tables_match_naive_rebuild(self, cnf):
        classes, cover, members, apart = _twin_classes(cnf.clauses)
        assert classes == twin_formula(cnf)[1]
        clauses = [set(c) for c in cnf.clauses]
        # each class lies wholly inside or wholly outside each clause
        assert all(set(cls) <= c or not set(cls) & c for cls in classes for c in clauses)
        assert cover == [sum(1 << j for j, c in enumerate(clauses) if cls[0] in c) for cls in classes]
        assert members == [sum(1 << i for i, cls in enumerate(classes) if cls[0] in c) for c in clauses]
        clash = [sum(1 << j for j, d in enumerate(clauses) if c & d) for c in clauses]
        assert apart == [~mask for mask in clash]

    @given(cnfs_with_twins(), st.integers(min_value=0, max_value=8))
    @settings(max_examples=200)
    def test_forced_twins_match_oracle(self, cnf, k):
        assert enumerate_minimal(cnf, SolverConfig(max_size=k)) == brute_force_minimal(cnf, k)

    @given(cnfs_with_twins(), st.integers(min_value=0, max_value=8), st.sampled_from([1, 1000]))
    @settings(max_examples=300)
    def test_blocks_flatten_to_sorted_search(self, cnf, k, spread):
        # spread 1000 leaves gaps between ids, which the dense class
        # indices must close without changing the order
        cnf = make_cnf([{v * spread for v in c} for c in cnf.clauses], cnf.n_vars * spread)
        cfg = SolverConfig(max_size=k)
        blocks = list(iter_sorted_blocks(cnf, cfg))
        assert all(len(tails) > 0 for _, tails in blocks)
        flat = [prefix + t for prefix, tails in blocks for t in tails]
        assert flat == sorted(iter_minimal(cnf, cfg))

    def test_blocks_share_prefixes(self):
        # (2,50,2) at k=4: 185,761 sets from 4 class-level sets; every
        # prefix ends in the same two-level subtree, so its blocks share
        # one tails object
        cnf = request_cnf(2, 50, 2)
        blocks = list(iter_sorted_blocks(cnf, SolverConfig(max_size=4)))
        assert sum(len(tails) for _, tails in blocks) == 185_761
        assert len(blocks) < 1_000
        assert len({id(tails) for _, tails in blocks}) == 1

    def test_interleaved_blocks_split(self):
        # classes {0, 2} and {1, 3}: one two-class set, so one block of
        # (min, max) pairs
        cnf = make_cnf([{0, 2}, {1, 3}], 4)
        assert list(iter_sorted_blocks(cnf, SolverConfig(max_size=2))) == [
            ((), ((0, 1), (0, 3), (1, 2), (2, 3))),
        ]
        # with class {4} too: prefix (0,) continues with 1 or 3, prefix (1,)
        # with 2 only, since class {0, 2} needs a member above 1
        cnf = make_cnf([{0, 2}, {1, 3}, {4}], 5)
        assert list(iter_sorted_blocks(cnf, SolverConfig(max_size=3))) == [
            ((0,), ((1, 4), (3, 4))), ((1,), ((2, 4),)), ((2,), ((3, 4),)),
        ]

    @pytest.mark.parametrize("interleaved", [False, True])
    def test_block_size_bound(self, interleaved):
        # clauses {A} and {B}, 300 twins each: 90,000 pairs at k=2, above
        # the 2**16 a block may hold, so the root is walked and each first
        # member gets a block of the other class's members above it
        a, b = (range(0, 600, 2), range(1, 600, 2)) if interleaved else (range(300), range(300, 600))
        cnf = make_cnf([set(a), set(b)], 600)
        cfg = SolverConfig(max_size=2)
        blocks = list(iter_sorted_blocks(cnf, cfg))
        assert max(len(tails) for _, tails in blocks) <= 300
        assert [prefix + t for prefix, tails in blocks for t in tails] == sorted(iter_minimal(cnf, cfg))
        if not interleaved:
            # every prefix of A has the same subtree: all of B
            assert len(blocks) == 300
            assert all(tails is blocks[0][1] for _, tails in blocks)

    def test_empty_formula_block(self):
        assert list(iter_sorted_blocks(make_cnf([], 3), SolverConfig(max_size=0))) == [((), ((),))]

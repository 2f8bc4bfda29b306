"""Budgeted selection: contract examples, exhaustive oracle, sweep metrics."""

import itertools
import random
import time

import pytest

import minfault.hardening as hardening
from minfault.campaign import CampaignConfig, run_campaign
from minfault.errors import (
    InfeasibleBudgetError,
    InvalidClauseError,
    ParameterError,
    UnknownRequestError,
    VariableRangeError,
)
from minfault.hardening import (
    BudgetSweep,
    HardeningInstance,
    HardeningPlan,
    budget_sweep,
    build_request_cnf,
    greedy_baseline,
    optimize,
)
from minfault.simulation import GenParams, execute, generate_system
from test_simulation import tiny_system

A, B, C, D = 0, 1, 2, 3


def instance(hard, soft, budget, n_vars):
    return HardeningInstance(
        hard=tuple((i, build_request_cnf(cl, n_vars)) for i, cl in enumerate(hard)),
        soft=tuple((100 + i, build_request_cnf(cl, n_vars)) for i, cl in enumerate(soft)),
        budget=budget,
        n_vars=n_vars,
    )


def exhaustive_best(hard_clauses, soft_clauses, n_vars, budget):
    """Oracle: scan every subset of size <= budget."""
    universe = sorted(set().union(frozenset(), *hard_clauses, *soft_clauses))
    best_cov = None
    for size in range(budget + 1):
        for combo in itertools.combinations(universe, size):
            s = set(combo)
            if all(c & s for c in hard_clauses):
                cov = sum(1 for c in soft_clauses if c & s)
                if best_cov is None or cov > best_cov:
                    best_cov = cov
    return best_cov  # None when no hard cover fits the budget


def clause_lists(inst):
    """Hard and soft clause lists; a clause in two requests appears twice."""
    return (
        [c for _, cnf in inst.hard for c in cnf.clauses],
        [c for _, cnf in inst.soft for c in cnf.clauses],
    )


def shared_instance(rng, n_vars, hard_vars, n_hard, n_soft, budget):
    """Random instance whose soft requests each take two clauses of a shared pool."""
    mk = lambda hi: frozenset(rng.sample(range(hi), rng.randint(1, min(3, hi))))
    pool = [mk(n_vars) for _ in range(4)]
    hard = [[mk(hard_vars) for _ in range(rng.randint(1, 3))] for _ in range(n_hard)]
    soft = [
        rng.sample(pool, 2) + [mk(n_vars) for _ in range(rng.randint(3, 12))]
        for _ in range(n_soft)
    ]
    return instance(hard, soft, budget, n_vars)


def reference_greedy(clauses, selected, budget):
    """Plain max-gain greedy over set clauses, ties to the smallest id."""
    sel = set(selected)
    picks = []
    while len(picks) < budget:
        gains = {}
        for c in clauses:
            if not c & sel:
                for v in c:
                    gains[v] = gains.get(v, 0) + 1
        if not gains:
            break
        v = min(gains, key=lambda x: (-gains[x], x))
        sel.add(v)
        picks.append(v)
    return picks


def reference_covers(hard_clauses, budget):
    """Minimal hard covers within budget, in lexicographic order."""
    covers = lambda s: all(c & s for c in hard_clauses)
    universe = sorted(set().union(*hard_clauses))
    return sorted(
        combo
        for size in range(min(budget, len(universe)) + 1)
        for combo in itertools.combinations(universe, size)
        if covers(set(combo)) and not any(covers(set(combo) - {v}) for v in combo)
    )


def soft_count(soft_clauses, selected):
    return sum(1 for c in soft_clauses if c & set(selected))


def reference_extension(soft_clauses, covers, budget):
    """Each cover extended by ``reference_greedy``; the most soft coverage
    wins, then the fewest APIs, then the lexicographically smallest selection."""
    ext = [
        tuple(sorted(c + tuple(reference_greedy(soft_clauses, c, budget - len(c)))))
        for c in covers
    ]
    return min(ext, key=lambda s: (-soft_count(soft_clauses, s), len(s), s))


class TestBuildRequestCnf:
    def test_one_clause_per_fault(self):
        cnf = build_request_cnf([{A, B}, {C}], 4)
        assert cnf.clauses == (frozenset({A, B}), frozenset({C}))

    def test_empty_faults_empty_formula(self):
        assert build_request_cnf([], 4).m == 0

    def test_duplicate_faults_collapse(self):
        assert build_request_cnf([{A, B}, {B, A}], 4).m == 1

    def test_empty_fault_rejected(self):
        from minfault.errors import InvalidClauseError

        with pytest.raises(InvalidClauseError):
            build_request_cnf([set()], 4)


class TestOptimize:
    def test_picks_best_minimal_hard_cover(self):
        inst = instance(hard=[[{A, B}]], soft=[[{A, C}, {A, D}, {B}]], budget=1, n_vars=4)
        plan = optimize(inst)
        assert plan.selected == (A,)
        assert plan.cr == pytest.approx(2 / 3)
        assert plan.hard_satisfied and plan.feasible and plan.exact

    def test_full_budget_covers_everything(self):
        inst = instance(hard=[[{A, B}]], soft=[[{C}, {D}, {B, C}]], budget=4, n_vars=4)
        plan = optimize(inst)
        assert plan.cr == 1.0

    def test_infeasible_budget_raises(self):
        # four disjoint unit hard clauses need four picks
        inst = instance(hard=[[{0}, {1}, {2}, {3}]], soft=[], budget=3, n_vars=4)
        with pytest.raises(InfeasibleBudgetError, match="within budget"):
            optimize(inst)

    def test_budget_zero_nonempty_hard(self):
        inst = instance(hard=[[{A}]], soft=[], budget=0, n_vars=2)
        with pytest.raises(InfeasibleBudgetError):
            optimize(inst)

    def test_empty_hard_is_feasible(self):
        inst = instance(hard=[], soft=[[{A}, {B}]], budget=1, n_vars=2)
        plan = optimize(inst)
        assert plan.hard_satisfied and plan.soft_covered == 1

    def test_no_soft_clauses_cr_is_one(self):
        inst = instance(hard=[[{A}]], soft=[], budget=1, n_vars=2)
        plan = optimize(inst)
        assert plan.cr == 1.0 and plan.soft_total == 0

    def test_budget_respected(self):
        inst = instance(hard=[[{A, B}]], soft=[[{C}, {D}]], budget=2, n_vars=4)
        plan = optimize(inst)
        assert len(plan.selected) <= 2

    def test_approximate_path_matches_set_reference(self):
        # every minimal hard cover extended by max-gain greedy, the best plan
        # kept, ties to the smallest selection; duplicated soft clauses count
        # once per request
        rng = random.Random(0xA99)
        for trial in range(20):
            inst = shared_instance(rng, n_vars=40, hard_vars=8, n_hard=2, n_soft=4,
                                   budget=rng.randint(3, 10))
            hard_clauses, soft_clauses = clause_lists(inst)
            assert len(set().union(*soft_clauses)) > 24
            assert len(set(soft_clauses)) < len(soft_clauses)
            covers = reference_covers(hard_clauses, inst.budget)
            if not covers:
                continue
            want = reference_extension(soft_clauses, covers, inst.budget)
            plan = optimize(inst)
            assert plan.exact is False, f"trial {trial}"
            assert plan.selected == want, f"trial {trial}"
            assert plan.soft_covered == soft_count(soft_clauses, want), f"trial {trial}"

    def test_negative_budget_rejected(self):
        with pytest.raises(ParameterError):
            instance(hard=[], soft=[], budget=-1, n_vars=2)


class TestGreedyBaseline:
    def test_hard_gain_tie_breaks_by_id(self):
        inst = instance(hard=[[{A, B}]], soft=[[{B, C}]], budget=1, n_vars=3)
        plan = greedy_baseline(inst)
        assert plan.selected == (A,)
        assert plan.cr == 0.0

    def test_exact_beats_greedy_here(self):
        inst = instance(hard=[[{A, B}]], soft=[[{B, C}]], budget=1, n_vars=3)
        assert optimize(inst).cr == 1.0
        assert greedy_baseline(inst).cr == 0.0

    def test_budget_zero_flags_infeasible(self):
        inst = instance(hard=[[{A}]], soft=[], budget=0, n_vars=2)
        plan = greedy_baseline(inst)
        assert not plan.feasible and not plan.hard_satisfied

    def test_spends_residual_on_soft(self):
        inst = instance(hard=[[{A}]], soft=[[{B}, {C}, {B, C}]], budget=2, n_vars=4)
        plan = greedy_baseline(inst)
        assert A in plan.selected
        assert plan.soft_covered == 2


    @pytest.mark.parametrize("seed", range(4))
    def test_matches_set_reference(self, seed):
        rng = random.Random(seed)
        infeasible = 0
        for trial in range(40):
            n = rng.randint(4, 30)
            inst = shared_instance(rng, n_vars=n, hard_vars=min(n, 10), n_hard=rng.randint(0, 3),
                                   n_soft=rng.randint(2, 4), budget=rng.randint(0, 8))
            hard_clauses, soft_clauses = clause_lists(inst)
            picks = reference_greedy(hard_clauses, (), inst.budget)
            feasible = all(c & set(picks) for c in hard_clauses)
            if feasible:
                picks += reference_greedy(soft_clauses, picks, inst.budget - len(picks))
            infeasible += not feasible
            plan = greedy_baseline(inst)
            assert plan.selected == tuple(sorted(picks)), f"trial {trial}"
            assert plan.feasible == plan.hard_satisfied == feasible, f"trial {trial}"
            assert plan.soft_covered == soft_count(soft_clauses, picks), f"trial {trial}"
            assert plan.soft_total == len(soft_clauses)
        assert infeasible > 0  # the sample must exercise the infeasible branch


class TestOracleEquivalence:
    def test_random_small_instances(self):
        rng = random.Random(0xBEEF)
        for trial in range(60):
            n = rng.randint(2, 10)
            n_hard = rng.randint(0, 3)
            n_soft = rng.randint(0, 5)
            mk = lambda: {rng.randrange(n) for _ in range(rng.randint(1, 3))}
            hard = [[mk() for _ in range(rng.randint(1, 2))] for _ in range(n_hard)]
            soft = [[mk() for _ in range(rng.randint(1, 3))] for _ in range(n_soft)]
            budget = rng.randint(0, 6)
            inst = instance(hard=hard, soft=soft, budget=budget, n_vars=n)
            hard_clauses = [c for _, cnf in inst.hard for c in cnf.clauses]
            soft_clauses = [c for _, cnf in inst.soft for c in cnf.clauses]
            want = exhaustive_best(hard_clauses, soft_clauses, n, budget)
            if want is None:
                with pytest.raises(InfeasibleBudgetError):
                    optimize(inst)
                continue
            plan = optimize(inst)
            assert plan.hard_satisfied
            assert plan.exact  # instances are tiny, exact path must engage
            assert plan.soft_covered == want, f"trial {trial}"
            greedy = greedy_baseline(inst)
            if greedy.feasible:
                assert greedy.soft_covered <= plan.soft_covered


def exhaustive_argmin(hard_clauses, soft_clauses, budget):
    """Oracle: the smallest ``(-soft covered, size, selection)`` over every
    hard-feasible selection of at most ``budget`` variables; None if none."""
    universe = sorted(set().union(frozenset(), *hard_clauses, *soft_clauses))
    return min(
        (
            (-soft_count(soft_clauses, combo), size, combo)
            for size in range(min(budget, len(universe)) + 1)
            for combo in itertools.combinations(universe, size)
            if all(c & set(combo) for c in hard_clauses)
        ),
        default=None,
    )


class TestOnePlanOrder:
    """Exact plans are the argmin of one key: most soft clauses, fewest APIs, smallest ids."""

    def test_padding_api_dropped(self):
        # ties broken by ids alone would pad {3} with API 1, which adds nothing
        inst = instance(hard=[], soft=[[{1, 3}, {3, 4}]], budget=2, n_vars=5)
        assert optimize(inst).selected == (3,)

    def test_exhaustive_argmin(self):
        rng = random.Random(0x0DE7)
        exact = shorter = 0
        for trial in range(400):
            n = rng.randint(2, 10)
            mk = lambda: {rng.randrange(n) for _ in range(rng.randint(1, 3))}
            hard = [[mk() for _ in range(rng.randint(1, 2))] for _ in range(rng.randint(0, 2))]
            soft = [[mk() for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(0, 4))]
            inst = instance(hard=hard, soft=soft, budget=rng.randint(0, 7), n_vars=n)
            hard_clauses, soft_clauses = clause_lists(inst)
            want = exhaustive_argmin(hard_clauses, soft_clauses, inst.budget)
            if want is None:
                with pytest.raises(InfeasibleBudgetError):
                    optimize(inst)
                continue
            plan = optimize(inst)
            assert plan.exact, f"trial {trial}"
            assert (-plan.soft_covered, len(plan.selected), plan.selected) == want, f"trial {trial}"
            exact += 1
            shorter += len(plan.selected) < inst.budget
        assert exact >= 300 and shorter > 0

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_no_redundant_api(self, seed):
        # campaign faults; every API of an exact plan covers a hard clause
        # or a soft clause that no other selected API covers
        system = generate_system(GenParams(
            group_num=2, edge_num=7 + seed, bone_num=2, n_requests=4, shared_api_fraction=0.4, seed=seed,
        ))
        faults = _campaign_faults(system, k_max=2)
        hard, soft = sweep_sides(system, faults, _most_frequent(system))
        hard_clauses = [c for _, cnf in hard for c in cnf.clauses]
        soft_clauses = [c for _, cnf in soft for c in cnf.clauses]
        sweep = budget_sweep(system, faults, _most_frequent(system), budgets=range(1, 13))
        exact = [lv.plan for lv in sweep.levels if lv.feasible and lv.plan.exact]
        assert exact
        for plan in exact:
            for v in plan.selected:
                rest = set(plan.selected) - {v}
                assert (
                    not all(c & rest for c in hard_clauses)
                    or soft_count(soft_clauses, rest) < plan.soft_covered
                ), (plan, v)

    def test_deep_residual_budget_is_fast(self):
        # a large residual budget over up to 24 candidates: a search that
        # breaks coverage ties by ids alone walks every tied superset
        system = generate_system(GenParams(
            group_num=3, edge_num=12, bone_num=2, n_requests=5, shared_api_fraction=0.4, seed=1,
        ))
        faults = _campaign_faults(system, k_max=3)
        t0 = time.perf_counter()
        (level,) = budget_sweep(system, faults, _most_frequent(system), budgets=[16]).levels
        assert time.perf_counter() - t0 < 10
        assert level.plan.exact
        assert level.plan.soft_covered == level.plan.soft_total == 32
        assert len(level.plan.selected) == 10


def _campaign_faults(system, k_max):
    return {
        r.request_id: run_campaign(system, CampaignConfig(request_id=r.request_id, k_max=k_max)).valid_faults
        for r in system.requests
    }


def _most_frequent(system):
    return [max(dict(system.request_frequency), key=lambda rid: dict(system.request_frequency)[rid])]


def _sweep_inputs(seed=29, share=0.5):
    params = GenParams(
        group_num=2, edge_num=9, bone_num=2, n_requests=4,
        shared_api_fraction=share, seed=seed,
    )
    system = generate_system(params)
    return system, _campaign_faults(system, k_max=2), _most_frequent(system)


@pytest.fixture(scope="module")
def fleet():
    """The benchmark's fleet system (seed 1) and its ``k_max`` 3 campaign faults."""
    system = generate_system(GenParams(
        group_num=2, edge_num=40, bone_num=3, n_requests=8, shared_api_fraction=0.3, seed=1,
    ))
    return system, _campaign_faults(system, k_max=3)


def assert_greedy_never_beats_exact(system, faults, high, budgets):
    exact = budget_sweep(system, faults, high, budgets=budgets, method="exact")
    greedy = budget_sweep(system, faults, high, budgets=budgets, method="greedy")
    for e, g in zip(exact.levels, greedy.levels):
        if e.feasible and g.feasible:
            assert g.plan.soft_covered <= e.plan.soft_covered, e.budget
    return exact


class TestBudgetSweep:
    def test_saturating_budget_full_coverage(self):
        system, faults, high = _sweep_inputs()
        sweep = budget_sweep(system, faults, high, budgets=[2, 4, 8, system.n_vars])
        last = sweep.levels[-1]
        assert last.feasible
        assert last.cr == 1.0
        assert last.afvr == 0.0

    def test_mcg_matches_definition(self):
        system, faults, high = _sweep_inputs()
        budgets = [2, 3, 5, 8]
        sweep = budget_sweep(system, faults, high, budgets=budgets)
        feas = [lv for lv in sweep.levels if lv.feasible]
        assert sweep.levels[0].mcg is None
        for a, b in zip(feas, feas[1:]):
            expected = (b.plan.soft_covered - a.plan.soft_covered) / (b.budget - a.budget)
            assert b.mcg == pytest.approx(expected)

    def test_mcg_unit_arithmetic(self):
        # covered count 11 -> 13 over budgets 4 -> 5 gives gain 2 per unit
        assert (13 - 11) / (5 - 4) == 2

    def test_mcg_telescopes(self):
        system, faults, high = _sweep_inputs()
        budgets = [2, 4, 6, 9]
        sweep = budget_sweep(system, faults, high, budgets=budgets)
        levels = [lv for lv in sweep.levels if lv.feasible]
        total = sum(lv.mcg * (lv.budget - prev.budget) for prev, lv in zip(levels, levels[1:]))
        assert total == pytest.approx(levels[-1].plan.soft_covered - levels[0].plan.soft_covered)

    def test_afvr_non_increasing(self):
        system, faults, high = _sweep_inputs()
        sweep = budget_sweep(system, faults, high, budgets=[2, 3, 4, 6, 8, 12])
        vals = [lv.afvr for lv in sweep.levels if lv.feasible]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_afvr_complements_cr_for_single_request(self):
        # one request, no hard side: mitigated faults are exactly covered clauses
        system = tiny_system([{0, 1}, {2, 3}], 4)
        faults = {0: run_campaign(system, CampaignConfig(request_id=0, k_max=2)).valid_faults}
        sweep = budget_sweep(system, faults, high_priority=[], budgets=[1, 2, 3, 4])
        for lv in sweep.levels:
            if lv.feasible:
                assert lv.afvr == pytest.approx(1.0 - lv.cr)

    def test_infeasible_level_continues(self):
        system = tiny_system([{0}, {1}, {2}], 3)
        faults = {0: run_campaign(system, CampaignConfig(request_id=0, k_max=3)).valid_faults}
        # the only fault is {0,1,2}; as a hard clause it needs one pick,
        # so force infeasibility with a multi-clause hard side instead
        sweep = budget_sweep(system, faults, high_priority=[0], budgets=[0, 1])
        assert not sweep.levels[0].feasible  # budget 0 cannot cover the clause
        assert sweep.levels[1].feasible

    def test_greedy_method_never_beats_exact(self):
        system, faults, high = _sweep_inputs()
        assert_greedy_never_beats_exact(system, faults, high, [2, 4, 6, 8])

    def test_greedy_method_never_beats_exact_fleet(self, fleet):
        system, faults = fleet
        exact = assert_greedy_never_beats_exact(system, faults, _most_frequent(system), [8, 16, 32, 64])
        assert not any(lv.plan.exact for lv in exact.levels)

    def test_budget_validation(self):
        system, faults, high = _sweep_inputs()
        with pytest.raises(ParameterError):
            budget_sweep(system, faults, high, budgets=[3, 2])
        with pytest.raises(ParameterError):
            budget_sweep(system, faults, high, budgets=[])
        with pytest.raises(ParameterError, match="budgets must be non-negative"):
            budget_sweep(system, faults, high, budgets=[-1])
        with pytest.raises(ParameterError):
            budget_sweep(system, faults, high, budgets=[1, 2], method="magic")

    @pytest.mark.parametrize("bad, error", [
        ((True,), VariableRangeError), ((1, True), VariableRangeError), ((1.0,), VariableRangeError),
        ((0, -1), VariableRangeError), ("n_vars", VariableRangeError), ((), InvalidClauseError),
    ], ids=["bool", "bool-beside-int", "float", "negative", "n_vars", "empty"])
    @pytest.mark.parametrize("high", [[0], [1]], ids=["high", "soft"])
    def test_malformed_fault_raises(self, bad, error, high):
        # each bad fault follows a (1,) in request 0, so a value equal to 1 finds it indexed
        system, faults, _ = _sweep_inputs()
        bad = (system.n_vars,) if bad == "n_vars" else bad
        faults = {**faults, 0: [(1,), *faults[0], bad]}
        for method in ("exact", "greedy"):
            with pytest.raises(error):
                budget_sweep(system, faults, high, [1, 4], method=method)

    @pytest.mark.parametrize("method", ["exact", "greedy"])
    @pytest.mark.parametrize("high", [[0], []], ids=["high", "soft"])
    def test_iterator_fault_raises_as_make_cnf_does(self, method, high):
        # a one-shot iterator is spent by the check, so it would reach the
        # masks empty: as the only fault, or as an uncoverable soft clause
        system, _, _ = _sweep_inputs()
        for make in (lambda: [iter((1, 2))], lambda: [iter((1, 2)), (3,)]):
            with pytest.raises(InvalidClauseError) as want:
                build_request_cnf(make(), system.n_vars)
            with pytest.raises(InvalidClauseError) as got:
                budget_sweep(system, {0: make()}, high, [1, 4], method=method)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("method", ["exact", "greedy"])
    @pytest.mark.parametrize("high", [[0], [1]], ids=["high", "soft"])
    @pytest.mark.parametrize("one_shot", [
        lambda faults: (f for f in faults), lambda faults: iter(list(faults)), lambda faults: iter(()),
    ], ids=["generator", "list-iterator", "empty-iterator"])
    def test_one_shot_fault_list_read_once(self, one_shot, high, method):
        # request 0's faults as a one-shot iterable give the sweep of their list
        system, faults, _ = _sweep_inputs()
        budgets = [1, 4, system.n_vars]
        want = budget_sweep(system, {**faults, 0: list(one_shot(faults[0]))}, high, budgets, method=method)
        assert any(lv.feasible for lv in want.levels)
        assert budget_sweep(system, {**faults, 0: one_shot(faults[0])}, high, budgets, method=method) == want

    @pytest.mark.parametrize("method", ["exact", "greedy"])
    @pytest.mark.parametrize("one_shot", [lambda ids: (i for i in ids), lambda ids: iter(list(ids))],
                             ids=["generator", "list-iterator"])
    def test_one_shot_high_priority_read_once(self, one_shot, method):
        # the high ids as a one-shot iterable give the sweep of their list
        system, faults, high = _sweep_inputs()
        budgets = [1, 4, system.n_vars]
        want = budget_sweep(system, faults, list(high), budgets, method=method)
        assert want != budget_sweep(system, faults, [], budgets, method=method)
        assert budget_sweep(system, faults, one_shot(high), budgets, method=method) == want

    def test_unknown_high_priority_id(self):
        system, faults, _ = _sweep_inputs()
        with pytest.raises(UnknownRequestError):
            budget_sweep(system, faults, [999], budgets=[1])

    def test_empty_fault_lists_excluded(self):
        system, faults, high = _sweep_inputs()
        faults = dict(faults)
        victim = next(rid for rid in faults if rid not in high)
        faults[victim] = ()
        sweep = budget_sweep(system, faults, high, budgets=[system.n_vars])
        # full coverage still reached; the empty request neither blocks nor counts
        assert sweep.levels[-1].cr == 1.0
        assert sweep.levels[-1].afvr == 0.0


def reinjected_afvr(system, faults_by_request, selected):
    """Oracle: re-inject every distinct known fault without its variables in ``selected``."""
    immune = frozenset(selected)
    fractions = [
        sum(1 for f in faults if execute(system, rid, f - immune).failed) / len(faults)
        for rid, listed in sorted(faults_by_request.items())
        if (faults := set(map(frozenset, listed)))  # a fault listed twice is one fault
    ]
    total = 0.0  # left to right, as ``budget_sweep`` sums: ``sum`` rounds differently on 3.12+
    for fraction in fractions:
        total += fraction
    return total / len(fractions) if fractions else 0.0


def assert_afvr_matches_reinjection(system, faults, high, budgets):
    for method in ("exact", "greedy"):
        levels = [lv for lv in budget_sweep(system, faults, high, budgets, method=method).levels
                  if lv.feasible]
        assert levels
        for lv in levels:
            assert lv.afvr == reinjected_afvr(system, faults, lv.plan.selected)


class TestAfvrOracle:
    """``budget_sweep``'s AFVR equals re-injection through ``execute``, exactly."""

    @pytest.mark.parametrize("seed", [29, 30, 31])
    def test_campaign_faults(self, seed):
        system, faults, high = _sweep_inputs(seed=seed)
        assert_afvr_matches_reinjection(system, faults, high, [1, 2, 3, 5, 8, system.n_vars])

    def test_campaign_faults_fleet(self, fleet):
        system, faults = fleet
        assert_afvr_matches_reinjection(system, faults, [0], [8, 16, 32, 64])

    def test_fleet_golden_on_every_python(self, fleet):
        # ``harden --high auto-topfreq:1`` (request 2) on the fleet system; a
        # compensated sum (Python 3.12+ ``sum``, or ``math.fsum``) gives ...014 at b=16
        system, faults = fleet
        levels = budget_sweep(system, faults, [2], [8, 16, 32, 64]).levels
        assert [lv.afvr for lv in levels] == [
            0.8162251655629139, 0.6432119205298013, 0.33342531272994846, 0.0,
        ]

    @pytest.mark.parametrize("seed", range(4))
    def test_hand_made_faults(self, seed):
        # non-minimal, non-failing and repeated faults, within and across requests
        rng = random.Random(seed)
        system = generate_system(GenParams(
            group_num=2, edge_num=12, bone_num=2, n_requests=4, shared_api_fraction=0.4, seed=seed,
        ))
        everything = range(system.n_vars)
        shared = [tuple(rng.sample(everything, rng.randint(1, 5))) for _ in range(6)]
        faults = {}
        for req in system.requests:
            mine = sorted(set().union(*req.paths))
            own = [tuple(rng.sample(mine, rng.randint(1, 7))) for _ in range(25)]
            own += [tuple(rng.sample(everything, rng.randint(1, 4))) for _ in range(5)]
            own += own[:3] + shared
            rng.shuffle(own)
            faults[req.request_id] = own
        fails = [(rid, f) for rid, fs in faults.items() for f in fs if execute(system, rid, set(f)).failed]
        assert 0 < len(fails) < sum(map(len, faults.values()))
        assert any(execute(system, rid, set(f[1:])).failed for rid, f in fails)  # non-minimal
        assert_afvr_matches_reinjection(system, faults, [1], [2, 4, 6, 9, 14, 20])

    @pytest.mark.parametrize("method", ["exact", "greedy"])
    def test_repeated_fault_counts_once(self, method):
        # faults that still fail at a level, listed a second time and one of
        # them reversed, leave every level as the deduplicated lists give it
        system, faults, high = _sweep_inputs()
        budgets = [1, 2, 3, 5, 8, system.n_vars]
        want = budget_sweep(system, faults, high, budgets, method=method)
        level = next(lv for lv in want.levels if lv.feasible and lv.afvr > 0)
        immune = set(level.plan.selected)
        repeated = {}
        for rid, fs in faults.items():
            still = [f for f in fs if len(f) > 1 and execute(system, rid, set(f) - immune).failed]
            repeated[rid] = [*fs, *still[:1], *(f[::-1] for f in still[1:2])]
        assert sum(map(len, repeated.values())) > sum(map(len, faults.values())) + 2
        assert budget_sweep(system, repeated, high, budgets, method=method) == want


def min_scan_greedy(masks, uncovered, budget):
    """The plain greedy: rescan every variable's gain at every pick."""
    picks = []
    while budget > 0 and uncovered:
        _, v = min((-(m & uncovered).bit_count(), v) for v, m in masks.items())
        picks.append(v)
        uncovered &= ~masks[v]
        budget -= 1
    return picks


def twin_instance(rng, budget):
    """Random instance built from groups of variables that always occur
    together, so many variables have equal masks and gains tie."""
    ids = rng.sample(range(60), 40)
    groups = [ids[i:i + rng.randint(1, 4)] for i in range(0, 40, 4)]
    mk = lambda gs: frozenset().union(*rng.sample(gs, rng.randint(1, 2)))
    pool = [mk(groups) for _ in range(4)]
    hard = [[mk(groups[:3]) for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(0, 2))]
    # past 64 soft clause instances, so optimize takes its approximate path
    soft = [rng.sample(pool, 2) + [mk(groups) for _ in range(rng.randint(16, 24))]
            for _ in range(5)]
    return instance(hard, soft, budget, 60)


class TestLazyGreedy:
    """The lazy greedy picks what the plain greedy picks, ties included."""

    def test_matches_min_scan(self):
        rng = random.Random(0x1A2)
        for trial in range(3000):
            n_bits = rng.randint(1, 40)
            pool = [rng.getrandbits(n_bits) for _ in range(rng.randint(1, 4))]
            masks = {
                v: rng.choice(pool) if rng.random() < 0.7 else rng.getrandbits(n_bits)
                for v in rng.sample(range(200), rng.randint(1, 60))
            }
            union = 0
            for m in masks.values():
                union |= m
            uncovered = union & rng.choice([-1, rng.getrandbits(n_bits)])
            budget = rng.randint(0, len(masks) + 3)  # often past full coverage
            want = min_scan_greedy(masks, uncovered, budget)
            assert hardening._greedy_cover(masks, uncovered, budget) == want, f"trial {trial}"

    def test_tied_instances_match_set_reference(self):
        rng = random.Random(0x7135)
        infeasible = 0
        for trial in range(150):
            inst = twin_instance(rng, budget=rng.randint(0, 45))
            hard_clauses, soft_clauses = clause_lists(inst)
            # greedy_baseline: the hard phase, then the soft phase
            picks = reference_greedy(hard_clauses, (), inst.budget)
            feasible = all(c & set(picks) for c in hard_clauses)
            if feasible:
                picks += reference_greedy(soft_clauses, picks, inst.budget - len(picks))
            infeasible += not feasible
            assert greedy_baseline(inst).selected == tuple(sorted(picks)), f"trial {trial}"
            # optimize's approximate path: every hard cover extended greedily, the best kept
            covers = reference_covers(hard_clauses, inst.budget)
            if not covers:
                continue
            plan = optimize(inst)
            assert not plan.exact
            assert plan.selected == reference_extension(soft_clauses, covers, inst.budget), f"trial {trial}"
        assert infeasible > 0


def sweep_sides(system, faults, high):
    """The hard and soft formulas ``budget_sweep`` builds."""
    active = {rid: f for rid, f in sorted(faults.items()) if f}
    side = lambda is_high: tuple(
        (rid, build_request_cnf(f, system.n_vars)) for rid, f in active.items() if (rid in high) == is_high
    )
    return side(True), side(False)


def fresh_plan(inst, method):
    """One level's plan from a fresh call; None when infeasible."""
    if method == "greedy":
        plan = greedy_baseline(inst)
        return plan if plan.feasible else None
    try:
        return optimize(inst)
    except InfeasibleBudgetError:
        return None


def fresh_sweep(system, faults, high, budgets, method):
    hard, soft = sweep_sides(system, faults, high)
    return [
        fresh_plan(HardeningInstance(hard, soft, b, system.n_vars), method)
        for b in budgets
    ]


def repeated_faults(system):
    """Hand-made faults: each request lists one fault twice and one reversed,
    its tuples are unsorted, and request 1 also lists one of request 0's."""
    rng = random.Random(0xF1)
    faults = {}
    for req in system.requests:
        mine = sorted(set().union(*req.paths))
        own = [tuple(rng.sample(mine, rng.randint(1, 4))) for _ in range(8)]
        faults[req.request_id] = own + [own[0], own[1][::-1]]
    faults[1].append(faults[0][2])
    return faults


def sweep_plans(system, faults, high, budgets, method):
    return [lv.plan for lv in budget_sweep(system, faults, high, budgets, method=method).levels]


class TestSweepReuse:
    """A sweep's one cover search gives what fresh per-level calls give."""

    def test_sweep_equals_fresh_levels(self):
        seen = set()
        budgets = [0, 1, 2, 3, 5, 8]
        inputs = []
        for g, e, b, n, share in [(2, 9, 2, 4, 0.5), (2, 20, 3, 6, 0.3)]:
            for seed in (1, 2):
                system = generate_system(GenParams(
                    group_num=g, edge_num=e, bone_num=b, n_requests=n, shared_api_fraction=share, seed=seed,
                ))
                inputs.append((system, _campaign_faults(system, k_max=2)))
        # with high [0], the fault request 1 shares is hard and soft at once
        inputs.append((inputs[0][0], repeated_faults(inputs[0][0])))
        for system, faults in inputs:
            for high in ([], [0], [0, 2]):
                for method in ("exact", "greedy"):
                    got = sweep_plans(system, faults, high, budgets, method)
                    assert got == fresh_sweep(system, faults, high, budgets, method)
                    seen |= {"empty hard" if not high else "hard"}
                    seen |= {"infeasible" if p is None else "exact" if p.exact else "approx" for p in got}
                    seen |= {"repeated" for fs in faults.values() if len(set(map(frozenset, fs))) < len(fs)}
        assert seen == {"empty hard", "hard", "infeasible", "exact", "approx", "repeated"}

    @pytest.mark.parametrize("high", [[2], [0, 3]], ids=["topfreq", "two-high"])
    def test_fleet_equals_fresh_levels(self, fleet, high):
        system, faults = fleet
        budgets = [8, 16, 32, 64]
        got = sweep_plans(system, faults, high, budgets, "exact")
        assert got == fresh_sweep(system, faults, high, budgets, "exact")
        # the soft side is past the exact-mode limits; two high requests need more than 8 APIs
        assert [plan is not None and plan.exact for plan in got] == [False] * 4
        assert (got[0] is None) == (high == [0, 3])

    def test_exactness_changes_inside_one_sweep(self):
        # hard clauses {a, x_i, y_i}: {a} is the one cover of size 1 and
        # picking x_i or y_i for every i gives 1,024 more, of size 10
        system = generate_system(GenParams(
            group_num=2, edge_num=20, bone_num=3, n_requests=6, shared_api_fraction=0.3, seed=1,
        ))
        a, b, c, d, e = range(21, 26)
        hard = [(a, i, 10 + i) for i in range(1, 11)]
        soft = [(1, b), (c, d), (12, e), (b, c), (a, d), (e,)]
        faults = {0: hard, 1: soft}
        budgets = [1, 5, 10, 12]
        got = sweep_plans(system, faults, [0], budgets, "exact")
        assert [plan.exact for plan in got] == [True, True, False, False]
        assert got == fresh_sweep(system, faults, [0], budgets, "exact")

    def test_one_cover_search_per_exact_sweep(self, monkeypatch):
        searches = 0
        search = hardening.enumerate_minimal

        def counting(*args, **kwargs):
            nonlocal searches
            searches += 1
            return search(*args, **kwargs)

        monkeypatch.setattr(hardening, "enumerate_minimal", counting)
        system, faults, high = _sweep_inputs()
        for budgets in ([2, 4, 6, 8], [0, 1, 3], [0], [5, system.n_vars]):
            searches = 0
            budget_sweep(system, faults, high, budgets)
            assert searches == 1, budgets
        searches = 0
        budget_sweep(system, faults, high, [2, 4, 6, 8], method="greedy")
        assert searches == 0

    def test_interleaved_calls_never_reuse_stale_covers(self):
        rng = random.Random(0x5EED)
        systems = [_sweep_inputs(seed) for seed in (29, 30)]
        shared = [shared_instance(rng, n_vars=12, hard_vars=8, n_hard=2, n_soft=2, budget=0)
                  for _ in range(3)]
        # the first instance's hard side over a smaller universe than its variables need
        narrow = max(v for _, cnf in shared[0].hard for v in cnf.variables())
        calls = []
        for _ in range(60):
            kind = rng.randrange(3)
            if kind == 0:
                system, faults, high = rng.choice(systems)
                budgets = sorted(rng.sample(range(10), rng.randint(1, 4)))
                calls.append(("sweep", system, faults, high, budgets, rng.choice(["exact", "greedy"])))
            else:
                inst = rng.choice(shared)
                n_vars = narrow if kind == 2 and inst is shared[0] else inst.n_vars
                calls.append(("optimize", HardeningInstance(inst.hard, inst.soft, rng.randint(0, 8), n_vars)))

        def outcome(call, fresh):
            if call[0] == "sweep":
                if fresh:
                    return fresh_sweep(*call[1:])
                return sweep_plans(*call[1:])
            try:
                return optimize(call[1])
            except (InfeasibleBudgetError, VariableRangeError) as exc:
                return type(exc)

        want = [outcome(call, fresh=True) for call in calls]
        assert VariableRangeError in want and InfeasibleBudgetError in want
        for i, call in enumerate(calls):
            assert outcome(call, fresh=False) == want[i], f"call {i}"

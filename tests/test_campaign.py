"""Feedback campaign: completeness, soundness, pruning discipline, baselines."""

import itertools

import pytest

import minfault.campaign
from conftest import compact_cnf, globalize
from minfault.campaign import (
    CampaignConfig,
    InjectionHistory,
    is_subsumed,
    run_campaign,
    run_campaign_static,
)
from minfault.cnf import is_satisfied, make_cnf
from minfault.errors import MinfaultError, ParameterError, UnknownRequestError
from minfault.simulation import GenParams, execute, generate_system, ground_truth_paths
from minfault.solver import brute_force_minimal
from test_simulation import tiny_system


def oracle_minimal_faults(system, request_id, bound):
    cnf, to_global = compact_cnf(ground_truth_paths(system, request_id))
    return globalize(brute_force_minimal(cnf, bound), to_global)


class TestIsSubsumed:
    def test_subset_subsumes(self):
        assert is_subsumed({0, 1, 2}, [(0, 1)])

    def test_non_subset_does_not(self):
        assert not is_subsumed({0, 2}, [(0, 1)])

    def test_reflexive(self):
        assert is_subsumed({0, 1}, [(0, 1)])

    def test_empty_valid_list(self):
        assert not is_subsumed({0}, [])


class TestInjectionHistory:
    def test_record_and_lookup(self):
        h = InjectionHistory()
        h.record({1, 0}, True)
        assert (0, 1) in h
        assert h.outcome([0, 1]) is True
        assert len(h) == 1

    def test_append_only(self):
        h = InjectionHistory()
        h.record({0}, False)
        with pytest.raises(MinfaultError):
            h.record({0}, True)


class TestRunCampaign:
    def test_single_path_request(self):
        system = tiny_system([{0}], 1)
        res = run_campaign(system, CampaignConfig(request_id=0, k_max=1))
        assert res.valid_faults == ((0,),)
        assert res.injections == 1
        assert res.final_k == 1

    def test_two_disjoint_paths(self):
        system = tiny_system([{0, 1}, {2, 3}], 4)
        res = run_campaign(system, CampaignConfig(request_id=0, k_max=2))
        assert sorted(res.valid_faults) == [(0, 2), (0, 3), (1, 2), (1, 3)]

    def test_bound_below_minimum_fault_size(self):
        system = tiny_system([{0, 1}, {2, 3}], 4)
        res = run_campaign(system, CampaignConfig(request_id=0, k_max=1))
        assert res.valid_faults == ()

    def test_generated_request_matches_oracle(self):
        system = generate_system(GenParams(group_num=2, edge_num=9, bone_num=2, n_requests=1, seed=3))
        res = run_campaign(system, CampaignConfig(request_id=0, k_max=4))
        want = oracle_minimal_faults(system, 0, 4)
        assert sorted(res.valid_faults) == want
        assert sum(1 for f in res.valid_faults if len(f) == 2) == 4  # bone pairs

    def test_unknown_request_propagates(self):
        system = tiny_system([{0}], 1)
        with pytest.raises(UnknownRequestError):
            run_campaign(system, CampaignConfig(request_id=5, k_max=1))

    def test_k_max_validated(self):
        with pytest.raises(ParameterError):
            CampaignConfig(request_id=0, k_max=0)

    def test_deterministic(self):
        system = generate_system(GenParams(group_num=2, edge_num=9, bone_num=2, n_requests=1, seed=5))
        a = run_campaign(system, CampaignConfig(request_id=0, k_max=4))
        b = run_campaign(system, CampaignConfig(request_id=0, k_max=4))
        assert a.valid_faults == b.valid_faults
        assert a.injection_log == b.injection_log
        assert a.injections == b.injections


@pytest.fixture(scope="module")
def campaign():
    system = generate_system(GenParams(group_num=2, edge_num=9, bone_num=2, n_requests=1, seed=11))
    res = run_campaign(system, CampaignConfig(request_id=0, k_max=4))
    return system, res


class TestCampaignProperties:
    def test_revalidation(self, campaign):
        system, res = campaign
        for fault in res.valid_faults:
            assert execute(system, 0, set(fault)).failed

    def test_oracle_level_minimality(self, campaign):
        system, res = campaign
        for fault in res.valid_faults:
            for v in fault:
                assert not execute(system, 0, set(fault) - {v}).failed

    def test_antichain(self, campaign):
        _, res = campaign
        sets = [frozenset(f) for f in res.valid_faults]
        for a, b in itertools.combinations(sets, 2):
            assert not a <= b and not b <= a

    def test_no_duplicate_injections(self, campaign):
        _, res = campaign
        faults = [rec.fault for rec in res.injection_log]
        assert len(faults) == len(set(faults))
        assert res.injections == len(faults)

    def test_no_superset_of_known_valid_injected(self, campaign):
        _, res = campaign
        valid_so_far = []
        for rec in res.injection_log:
            assert not is_subsumed(rec.fault, valid_so_far)
            if rec.failed:
                valid_so_far.append(rec.fault)

    def test_stale_candidates_never_injected(self, campaign):
        # every injected candidate satisfies the formula as it stood then;
        # conjoin only appends, so that formula is a prefix of the final one
        _, res = campaign
        for rec in res.injection_log:
            prefix = make_cnf(res.final_cnf.clauses[: rec.formula_m], res.final_cnf.n_vars)
            assert is_satisfied(prefix, set(rec.fault))

    def test_history_covers_all_injections(self, campaign):
        _, res = campaign
        assert len(res.history) == res.injections
        for rec in res.injection_log:
            assert rec.fault in res.history
            assert res.history.outcome(rec.fault) == rec.failed


class TestStaticBaseline:
    def test_disjoint_pair_same_result_more_injections(self):
        system = tiny_system([{0, 1}, {2, 3}], 4)
        dyn = run_campaign(system, CampaignConfig(request_id=0, k_max=2))
        stat = run_campaign_static(system, 0, 2)
        assert sorted(stat.valid_faults) == sorted(dyn.valid_faults)
        assert stat.injections >= dyn.injections

    def test_bound_below_minimum_finds_nothing(self):
        system = tiny_system([{0, 1}, {2, 3}], 4)
        res = run_campaign_static(system, 0, 1)
        assert res.valid_faults == ()

    def test_group_bound_finds_skeleton_faults(self):
        g, e, b = 2, 9, 2
        system = generate_system(GenParams(group_num=g, edge_num=e, bone_num=b, n_requests=1, seed=9))
        res = run_campaign_static(system, 0, g)
        assert len(res.valid_faults) == b**g
        assert all(len(f) == g for f in res.valid_faults)
        assert sorted(res.valid_faults) == oracle_minimal_faults(system, 0, g)

    @pytest.mark.parametrize("g,e,b,seed", [(2, 9, 2, 1), (2, 12, 3, 2), (3, 7, 2, 3), (2, 10, 3, 4)])
    def test_dynamic_never_worse(self, g, e, b, seed):
        system = generate_system(GenParams(group_num=g, edge_num=e, bone_num=b, n_requests=1, seed=seed))
        k = 2 * g
        dyn = run_campaign(system, CampaignConfig(request_id=0, k_max=k))
        stat = run_campaign_static(system, 0, k)
        assert sorted(dyn.valid_faults) == sorted(stat.valid_faults)
        assert dyn.injections <= stat.injections

    def test_static_completes_at_fixed_bound(self):
        system = generate_system(GenParams(group_num=2, edge_num=9, bone_num=2, n_requests=1, seed=21))
        res = run_campaign_static(system, 0, 4)
        assert sorted(res.valid_faults) == oracle_minimal_faults(system, 0, 4)


class TestArbitraryPathStructures:
    """Campaign vs oracle on random hand-built systems, not just generated ones."""

    def random_system(self, rng):
        n = rng.randint(1, 9)
        n_paths = rng.randint(1, 5)
        paths = []
        for _ in range(n_paths):
            size = rng.randint(1, n)
            paths.append(set(rng.sample(range(n), size)))
        return tiny_system(paths, n), n

    def test_dynamic_fuzz_matches_oracle(self):
        rng = __import__("random").Random(0xD15C)
        for trial in range(120):
            system, n = self.random_system(rng)
            k_max = rng.randint(1, n)
            res = run_campaign(system, CampaignConfig(request_id=0, k_max=k_max))
            want = oracle_minimal_faults(system, 0, k_max)
            assert sorted(res.valid_faults) == want, f"trial {trial}"

    def test_static_fuzz_matches_oracle(self):
        rng = __import__("random").Random(0x57A7)
        for trial in range(120):
            system, n = self.random_system(rng)
            k = rng.randint(1, n)
            res = run_campaign_static(system, 0, k)
            want = oracle_minimal_faults(system, 0, k)
            assert sorted(res.valid_faults) == want, f"trial {trial}"

    def test_fuzz_dynamic_never_more_injections(self):
        rng = __import__("random").Random(0xFA11)
        for trial in range(80):
            system, n = self.random_system(rng)
            k = rng.randint(1, n)
            dyn = run_campaign(system, CampaignConfig(request_id=0, k_max=k))
            stat = run_campaign_static(system, 0, k)
            assert sorted(dyn.valid_faults) == sorted(stat.valid_faults)
            assert dyn.injections <= stat.injections, f"trial {trial}"

    def test_subsuming_paths(self):
        # second path contained in the first: only the inner path's
        # variable can take both down
        system = tiny_system([{0, 1}, {0}], 2)
        res = run_campaign(system, CampaignConfig(request_id=0, k_max=2))
        assert sorted(res.valid_faults) == [(0,)]

    def test_campaign_on_shared_pool_system(self):
        params = GenParams(group_num=2, edge_num=9, bone_num=2, n_requests=3,
                           shared_api_fraction=0.6, seed=23)
        system = generate_system(params)
        for req in system.requests:
            res = run_campaign(system, CampaignConfig(request_id=req.request_id, k_max=4))
            want = oracle_minimal_faults(system, req.request_id, 4)
            assert sorted(res.valid_faults) == want


class TestTimings:
    def test_phases_accumulate(self):
        system = generate_system(GenParams(group_num=2, edge_num=9, bone_num=2, n_requests=1, seed=2))
        res = run_campaign(system, CampaignConfig(request_id=0, k_max=4))
        t = res.wall_times
        assert t.total_ms > 0
        assert t.solve_ms >= 0 and t.inject_ms >= 0 and t.bookkeeping_ms >= 0
        assert t.solve_ms + t.inject_ms <= t.total_ms + 1e-6


class TestLazyPool:
    def test_pulls_few_candidates(self, monkeypatch):
        # the eight searches of this campaign hold 235,084 candidates;
        # a survival drops the rest of its search unpulled
        pulled = 0
        search = minfault.campaign.iter_minimal

        def counting(*args, **kwargs):
            nonlocal pulled
            for cand in search(*args, **kwargs):
                pulled += 1
                yield cand

        monkeypatch.setattr(minfault.campaign, "iter_minimal", counting)
        system = generate_system(GenParams(group_num=3, edge_num=200, bone_num=4, n_requests=1, seed=1))
        res = run_campaign(system, CampaignConfig(request_id=0, k_max=3))
        assert res.injections == 69
        assert res.solver_calls == 8
        assert len(res.valid_faults) == 64
        assert list(res.valid_faults) == sorted(res.valid_faults)
        assert pulled <= 500

    @pytest.mark.parametrize("g,e,b", [(2, 50, 2), (3, 7, 2), (3, 20, 4), (4, 10, 3)])
    def test_unshared_faults_ascend(self, g, e, b):
        # with k_max at the group count, faults come out in ascending order
        system = generate_system(GenParams(group_num=g, edge_num=e, bone_num=b, n_requests=1, seed=1))
        dyn = run_campaign(system, CampaignConfig(request_id=0, k_max=g))
        stat = run_campaign_static(system, 0, g)
        assert list(dyn.valid_faults) == sorted(dyn.valid_faults)
        assert stat.valid_faults == dyn.valid_faults

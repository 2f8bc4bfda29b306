"""Feedback campaign: completeness, soundness, pruning discipline, baselines."""

import itertools

import pytest

import minfault.campaign
from conftest import compact_cnf, globalize
from minfault.campaign import (
    CampaignConfig,
    is_subsumed,
    run_campaign,
    run_campaign_static,
)
from minfault.cnf import conjoin, is_satisfied, make_cnf
from minfault.errors import ParameterError, UnknownRequestError
from minfault.simulation import GenParams, execute, generate_system, ground_truth_paths
from minfault.solver import brute_force_minimal
from test_simulation import tiny_system


def oracle_minimal_faults(system, request_id, bound):
    cnf, to_global = compact_cnf(ground_truth_paths(system, request_id))
    return globalize(brute_force_minimal(cnf, bound), to_global)


def observe(run, *args):
    """``run(*args)``, and ``(fault, failed, observed_path)`` for each injection it makes.

    Wraps ``minfault.campaign.execute``, as the benchmark's tracer does;
    the bootstrap run on the empty set is not an injection.
    """
    log = []

    def recording(system, rid, injected):
        outcome = execute(system, rid, injected)
        if injected:
            log.append((tuple(injected), outcome.failed, outcome.observed_path))
        return outcome

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minfault.campaign, "execute", recording)
        return run(*args), log


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
    """The injections a campaign makes, observed through ``execute``."""

    def test_survivor_paths_rebuild_final_cnf(self, campaign, static_campaign):
        # the formula is the bootstrap path plus each survivor's path, in
        # injection order.  A dynamic survivor's path is always new; a
        # stale static candidate can survive on a path already known
        system, *dynamic = campaign
        bootstrap = execute(system, 0, ()).observed_path
        for (res, log), fresh in ((dynamic, True), (static_campaign, False)):
            survivors = [path for _, failed, path in log if not failed]
            assert res.final_cnf == make_cnf([bootstrap, *survivors], system.n_vars)
            assert (res.final_cnf.m == 1 + len(survivors)) == fresh

    def test_append_only(self, campaign, static_campaign):
        # later searches yield known valid faults again; none is re-injected
        _, *dynamic = campaign
        for res, log in (dynamic, static_campaign):
            faults = [fault for fault, _, _ in log]
            assert len(set(faults)) == len(faults) == res.injections


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
        a, log_a = observe(run_campaign, system, CampaignConfig(request_id=0, k_max=4))
        b, log_b = observe(run_campaign, system, CampaignConfig(request_id=0, k_max=4))
        assert a.valid_faults == b.valid_faults
        assert log_a == log_b
        assert a.injections == b.injections == len(log_a)


@pytest.fixture(scope="module")
def campaign():
    """``(system, result, injections)`` of a dynamic campaign."""
    system = generate_system(GenParams(group_num=2, edge_num=9, bone_num=2, n_requests=1, seed=11))
    return system, *observe(run_campaign, system, CampaignConfig(request_id=0, k_max=4))


@pytest.fixture(scope="module")
def static_campaign(campaign):
    """``(result, injections)`` of a static campaign on the same system."""
    return observe(run_campaign_static, campaign[0], 0, 3)


class TestCampaignProperties:
    def test_revalidation(self, campaign):
        system, res, _ = campaign
        for fault in res.valid_faults:
            assert execute(system, 0, set(fault)).failed

    def test_oracle_level_minimality(self, campaign):
        system, res, _ = campaign
        for fault in res.valid_faults:
            for v in fault:
                assert not execute(system, 0, set(fault) - {v}).failed

    def test_antichain(self, campaign):
        _, res, _ = campaign
        sets = [frozenset(f) for f in res.valid_faults]
        for a, b in itertools.combinations(sets, 2):
            assert not a <= b and not b <= a

    def test_no_duplicate_injections(self, campaign):
        _, res, log = campaign
        faults = [fault for fault, _, _ in log]
        assert len(faults) == len(set(faults))
        assert res.injections == len(faults)

    def test_no_superset_of_known_valid_injected(self, campaign):
        _, _, log = campaign
        valid_so_far = []
        for fault, failed, _ in log:
            assert not is_subsumed(fault, valid_so_far)
            if failed:
                valid_so_far.append(fault)

    def test_stale_candidates_never_injected(self, campaign):
        # every injected candidate satisfies the formula as it stood then:
        # the bootstrap path plus the paths of the survivors before it
        system, res, log = campaign
        phi = make_cnf([execute(system, 0, ()).observed_path], system.n_vars)
        for fault, failed, path in log:
            assert is_satisfied(phi, set(fault))
            if not failed:
                phi = conjoin(phi, path)
        assert phi == res.final_cnf

    def test_history_covers_all_injections(self, campaign):
        _, res, log = campaign
        assert len(log) == res.injections
        assert [fault for fault, failed, _ in log if failed] == list(res.valid_faults)


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

    def test_only_valid_faults_come_back(self, monkeypatch):
        # ``_drive`` dedupes against the valid faults alone: a survivor is
        # never pulled again, in either mode
        pulls = []
        survivors = []
        search, run = minfault.campaign.iter_minimal, minfault.campaign.execute

        def recording_search(*args, **kwargs):
            for cand in search(*args, **kwargs):
                pulls.append(cand)
                yield cand

        def recording_execute(system, rid, injected, **kwargs):
            outcome = run(system, rid, injected, **kwargs)
            if injected and not outcome.failed:
                survivors.append(tuple(injected))
            return outcome

        monkeypatch.setattr(minfault.campaign, "iter_minimal", recording_search)
        monkeypatch.setattr(minfault.campaign, "execute", recording_execute)
        repeats = 0
        for seed in range(12):
            system = generate_system(GenParams(
                group_num=2 + seed % 2, edge_num=7 + seed, bone_num=2, n_requests=3,
                shared_api_fraction=0.4, seed=seed,
            ))
            for req in system.requests:
                for static in (False, True):
                    pulls.clear()
                    survivors.clear()
                    if static:
                        res = run_campaign_static(system, req.request_id, 3)
                    else:
                        res = run_campaign(system, CampaignConfig(request_id=req.request_id, k_max=3))
                    assert all(pulls.count(s) == 1 for s in survivors)
                    assert res.injections == len(set(pulls)) == len(res.valid_faults) + len(survivors)
                    repeats += len(pulls) - len(set(pulls))
        assert repeats > 0  # valid faults do come back

    @pytest.mark.parametrize("g,e,b", [(2, 50, 2), (3, 7, 2), (3, 20, 4), (4, 10, 3)])
    def test_unshared_faults_ascend(self, g, e, b):
        # with k_max at the group count, faults come out in ascending order
        system = generate_system(GenParams(group_num=g, edge_num=e, bone_num=b, n_requests=1, seed=1))
        dyn = run_campaign(system, CampaignConfig(request_id=0, k_max=g))
        stat = run_campaign_static(system, 0, g)
        assert list(dyn.valid_faults) == sorted(dyn.valid_faults)
        assert stat.valid_faults == dyn.valid_faults

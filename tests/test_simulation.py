"""Grouped-skeleton generator, execution oracle, and system file format."""

import functools
import hashlib
import itertools
import json
import operator
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compact_cnf, globalize
from minfault.cnf import compute_stats
from minfault.errors import (
    MinfaultError,
    ParameterError,
    SchemaError,
    UnknownRequestError,
    VariableRangeError,
)
from minfault.simulation import (
    ExecutionOutcome,
    GenParams,
    RequestSpec,
    SimulatedSystem,
    execute,
    expected_clause_overlap,
    generate_system,
    ground_truth_paths,
    load_system,
    save_system,
    system_from_json,
    system_to_json,
)
from minfault.solver import brute_force_minimal

# each puts a JSON boolean where a one-variable system file holds the equal integer
BOOLEAN_FIELDS = {
    "n_vars": lambda doc: doc.update(n_vars=True),
    "requests[0].id": lambda doc: doc["requests"][0].update(id=False),
    "requests[0].frequency": lambda doc: doc["requests"][0].update(frequency=True),
    "requests[0].paths[0]": lambda doc: doc["requests"][0]["paths"][0].__setitem__(0, False),
    "requests[0].group_of_path": lambda doc: doc["requests"][0]["group_of_path"].__setitem__(0, False),
    "symbol_table[0].replica": lambda doc: doc["symbol_table"][0].__setitem__(2, False),
}


def boolean_system_file(field):
    """The text of ``tiny_system([{0}], 1)`` with a boolean in ``field``."""
    doc = json.loads(system_to_json(tiny_system([{0}], 1)))
    BOOLEAN_FIELDS[field](doc)
    return json.dumps(doc)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)


def field_paths(node, path=()):
    """The key / index path of every value inside a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


def tiny_system(paths, n_vars, request_id=0):
    """Hand-rolled single-request system for oracle tests."""
    spec = RequestSpec(
        request_id=request_id,
        paths=tuple(frozenset(p) for p in paths),
        group_of_path=tuple(range(len(paths))),
    )
    return SimulatedSystem(
        requests=(spec,),
        n_vars=n_vars,
        symbol_table=tuple(("svc", f"/api{i}", 0) for i in range(n_vars)),
        request_frequency=((request_id, 1),),
    )


class TestGenParams:
    def test_bone_must_fit_short_path(self):
        with pytest.raises(ParameterError, match="skeleton"):
            GenParams(group_num=2, edge_num=50, bone_num=20, n_requests=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(group_num=0, edge_num=50, bone_num=2, n_requests=1),
            dict(group_num=2, edge_num=3, bone_num=0, n_requests=1),
            dict(group_num=2, edge_num=50, bone_num=-1, n_requests=1),
            dict(group_num=2, edge_num=50, bone_num=2, n_requests=0),
            dict(group_num=2, edge_num=50, bone_num=2, n_requests=1, shared_api_fraction=1.5),
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ParameterError):
            GenParams(**kwargs)

    def test_split_is_three_to_seven(self):
        p = GenParams(group_num=2, edge_num=50, bone_num=2, n_requests=1)
        assert (p.fast_len, p.full_len) == (15, 35)
        p = GenParams(group_num=2, edge_num=9, bone_num=2, n_requests=1)
        assert (p.fast_len, p.full_len) == (3, 6)


class TestGenerateSystem:
    def test_request_structure(self):
        params = GenParams(group_num=2, edge_num=50, bone_num=2, n_requests=4, seed=11)
        system = generate_system(params)
        assert len(system.requests) == 4
        for req in system.requests:
            assert len(req.paths) == 4
            assert req.group_of_path == (0, 0, 1, 1)
            assert [len(p) for p in req.paths] == [15, 35, 15, 35]
            assert len(req.paths[0] & req.paths[1]) == 2
            assert len(req.paths[2] & req.paths[3]) == 2
            for i, j in [(0, 2), (0, 3), (1, 2), (1, 3)]:
                assert not req.paths[i] & req.paths[j]

    def test_requests_disjoint_without_sharing(self):
        system = generate_system(GenParams(group_num=2, edge_num=10, bone_num=2, n_requests=3, seed=3))
        universes = [frozenset().union(*r.paths) for r in system.requests]
        for a, b in itertools.combinations(universes, 2):
            assert not a & b

    def test_deterministic_for_seed(self):
        params = GenParams(group_num=3, edge_num=20, bone_num=3, n_requests=5, seed=99, shared_api_fraction=0.4)
        assert generate_system(params) == generate_system(params)
        assert system_to_json(generate_system(params)) == system_to_json(generate_system(params))

    def test_different_seeds_differ(self):
        base = dict(group_num=2, edge_num=50, bone_num=2, n_requests=3, shared_api_fraction=0.5)
        a = generate_system(GenParams(seed=1, **base))
        b = generate_system(GenParams(seed=2, **base))
        assert a != b

    @pytest.mark.parametrize(
        "g,e,b,table_value",
        [(2, 50, 2, 0.0267), (3, 100, 3, 0.0120), (3, 50, 4, 0.0320)],
    )
    def test_reference_overlap_values(self, g, e, b, table_value):
        system = generate_system(GenParams(group_num=g, edge_num=e, bone_num=b, n_requests=2, seed=5))
        for req in system.requests:
            stats = compute_stats(list(req.paths))
            assert stats.aco == pytest.approx(table_value, abs=5e-4)

    @pytest.mark.parametrize("g,e,b", [(2, 50, 2), (3, 100, 3), (2, 9, 2), (3, 7, 2), (2, 9, 0)])
    def test_overlap_closed_form(self, g, e, b):
        system = generate_system(GenParams(group_num=g, edge_num=e, bone_num=b, n_requests=2, seed=21))
        for req in system.requests:
            got = compute_stats(list(req.paths)).aco
            assert got == pytest.approx(expected_clause_overlap(g, e, b), abs=1e-9)

    def test_sharing_creates_cross_request_overlap(self):
        params = GenParams(group_num=2, edge_num=50, bone_num=2, n_requests=6, shared_api_fraction=0.5, seed=13)
        system = generate_system(params)
        universes = [frozenset().union(*r.paths) for r in system.requests]
        shared = set()
        for a, b in itertools.combinations(universes, 2):
            shared |= a & b
        assert shared
        # per-request structure is untouched by the remap
        for req in system.requests:
            assert [len(p) for p in req.paths] == [15, 35, 15, 35]
            assert compute_stats(list(req.paths)).aco == pytest.approx(
                expected_clause_overlap(2, 50, 2), abs=1e-9
            )

    def test_frequencies_are_weights(self):
        system = generate_system(GenParams(group_num=2, edge_num=10, bone_num=1, n_requests=4, seed=2))
        weights = dict(system.request_frequency)
        assert set(weights) == {0, 1, 2, 3}
        assert all(w >= 0 for w in weights.values())

    def test_share_rule(self):
        # 0.05 * (3 * 30) rounds to 4 shared APIs per request; the pool
        # holds max(1, 4, min(64, 4 * 5)) = 20 slots
        params = GenParams(3, 58, 14, 5, 0.05, 609)
        system = generate_system(params)
        slots = set()
        for req in system.requests:
            names = [system.symbol_table[v] for v in frozenset().union(*req.paths)]
            shared = [api for svc, api, _ in names if svc == "svc-shared"]
            assert len(shared) == len(set(shared)) == 4
            slots.update(int(api.removeprefix("/shared")) for api in shared)
        assert slots <= set(range(20))
        assert len(slots) > 4

    # SHA-256 of system_to_json: the three benchmark workloads' systems at
    # seeds 1 and 7, every non-skeleton API remapped, and a share whose
    # count rounds at exactly one half
    @pytest.mark.parametrize("params,digest", [
        ((3, 200, 4, 1, 0.0, 1), "544b204e309d274da791449252dc41cc12a672155cb13df0fc1d6a8d559e7c7b"),
        ((3, 200, 4, 1, 0.0, 7), "544b204e309d274da791449252dc41cc12a672155cb13df0fc1d6a8d559e7c7b"),
        ((2, 40, 3, 8, 0.3, 1), "aca50dd614b6eba01076d69f4ed6cc9582a9048a1af125502f52646f60bdc63d"),
        ((2, 40, 3, 8, 0.3, 7), "9d67d24ae75051d04f96cd2e4cc32fc82d66fd3d9b568fc274c85ecf6949e31b"),
        ((2, 50, 2, 1, 0.0, 1), "3de40c23f5cc349341bd687254f48bb5af5b8745938e38b8896535723143ae6c"),
        ((2, 50, 2, 1, 0.0, 7), "3de40c23f5cc349341bd687254f48bb5af5b8745938e38b8896535723143ae6c"),
        ((2, 40, 3, 8, 1.0, 1), "39a9ae1086c16015fb6d9bd1eac3fc644001208068dd2781dc63689ca2dde630"),
        ((3, 58, 14, 5, 0.05, 609), "9ede132a7a4727d4b6de91cf8d04e0735a794875eaf37c48966f1d06b2aeaeb6"),
    ])
    def test_golden_bytes(self, params, digest):
        text = system_to_json(generate_system(GenParams(*params)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestMinimalFaultStructure:
    def test_rich_group_structure(self):
        # fast path keeps an exclusive variable: minimal faults span G..2G
        g, e, b = 2, 9, 2
        system = generate_system(GenParams(group_num=g, edge_num=e, bone_num=b, n_requests=1, seed=17))
        paths = ground_truth_paths(system, 0)
        cnf, to_global = compact_cnf(paths)
        assert cnf.n_vars == g * (e - b)
        sols = brute_force_minimal(cnf, 2 * g)
        sizes = sorted(len(s) for s in sols)
        assert min(sizes) == g
        assert max(sizes) == 2 * g
        assert sizes.count(g) == b**g

    def test_skeleton_only_fast_path(self):
        # when the fast path is all skeleton, groups fail only via bones
        g, e, b = 3, 7, 2
        system = generate_system(GenParams(group_num=g, edge_num=e, bone_num=b, n_requests=1, seed=17))
        cnf, _ = compact_cnf(ground_truth_paths(system, 0))
        sols = brute_force_minimal(cnf, 2 * g)
        assert {len(s) for s in sols} == {g}
        assert len(sols) == b**g

    def test_no_skeleton_means_pairs(self):
        g, e, b = 2, 9, 0
        system = generate_system(GenParams(group_num=g, edge_num=e, bone_num=b, n_requests=1, seed=17))
        cnf, _ = compact_cnf(ground_truth_paths(system, 0))
        sols = brute_force_minimal(cnf, 2 * g)
        assert {len(s) for s in sols} == {2 * g}
        assert sum(1 for s in sols if len(s) == g) == 0


class TestExecute:
    def test_no_fault_takes_primary_path(self):
        system = generate_system(GenParams(group_num=2, edge_num=50, bone_num=2, n_requests=1, seed=1))
        out = execute(system, 0, set())
        assert not out.failed
        assert out.observed_path == system.requests[0].paths[0]

    def test_all_injected_fails(self):
        system = generate_system(GenParams(group_num=2, edge_num=50, bone_num=2, n_requests=1, seed=1))
        everything = frozenset().union(*system.requests[0].paths)
        out = execute(system, 0, everything)
        assert out.failed and out.observed_path is None

    def test_cache_database_pair(self):
        # two-path request: breaking only the first path fails over,
        # breaking one variable on each path takes the request down
        cache, db, shared = 0, 1, 2
        system = tiny_system([{cache, shared}, {db, shared}], 3)
        assert not execute(system, 0, {cache}).failed
        assert execute(system, 0, {cache}).observed_path == frozenset({db, shared})
        assert execute(system, 0, {cache, db}).failed
        assert execute(system, 0, {shared}).failed

    def test_failures_share_one_outcome(self):
        system = tiny_system([{0}, {1}], 2)
        first = execute(system, 0, {0, 1})
        assert first.failed and first.observed_path is None
        assert execute(system, 0, [1, 0]) is first

    def test_priority_order(self):
        system = tiny_system([{0}, {1}, {2}], 3)
        assert execute(system, 0, {0}).observed_path == frozenset({1})
        assert execute(system, 0, {0, 1}).observed_path == frozenset({2})

    def test_failure_monotone_under_superset(self):
        rng = random.Random(5)
        system = generate_system(GenParams(group_num=2, edge_num=9, bone_num=2, n_requests=1, seed=8))
        all_vars = sorted(frozenset().union(*system.requests[0].paths))
        for _ in range(200):
            s = set(rng.sample(all_vars, rng.randint(0, len(all_vars))))
            extra = set(rng.sample(all_vars, rng.randint(0, 3)))
            if execute(system, 0, s).failed:
                assert execute(system, 0, s | extra).failed

    def test_unknown_request(self):
        system = tiny_system([{0}], 1)
        with pytest.raises(UnknownRequestError):
            execute(system, 404, set())

    def test_out_of_range_injection(self):
        system = tiny_system([{0}], 1)
        with pytest.raises(VariableRangeError):
            execute(system, 0, {5})

    def test_ground_truth_matches_paths(self):
        system = generate_system(GenParams(group_num=2, edge_num=50, bone_num=2, n_requests=1, seed=4))
        paths = ground_truth_paths(system, 0)
        assert sorted(len(p) for p in paths) == [15, 15, 35, 35]
        with pytest.raises(UnknownRequestError):
            ground_truth_paths(system, 9)


class TestSystemFile:
    def test_round_trip_bytes(self, tmp_path):
        system = generate_system(GenParams(group_num=2, edge_num=20, bone_num=2, n_requests=3, seed=42))
        f = tmp_path / "sys.json"
        save_system(system, f)
        loaded = load_system(f)
        assert loaded == system
        f2 = tmp_path / "sys2.json"
        save_system(loaded, f2)
        assert f.read_bytes() == f2.read_bytes()

    def test_unknown_field_named(self):
        doc = system_to_json(tiny_system([{0}], 1)).rstrip()
        bad = doc[:-1] + ', "failed": true}'
        with pytest.raises(SchemaError, match="failed"):
            system_from_json(bad)

    def test_missing_field_named(self):
        doc = json.loads(system_to_json(tiny_system([{0}], 1)))
        del doc["requests"][0]["frequency"]
        with pytest.raises(SchemaError, match=r"requests\[0\].frequency"):
            system_from_json(json.dumps(doc))

    def test_path_out_of_range_named(self):
        doc = json.loads(system_to_json(tiny_system([{0}], 1)))
        doc["requests"][0]["paths"] = [[3]]
        with pytest.raises(SchemaError, match=r"paths\[0\]"):
            system_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda doc: doc["requests"][0]["paths"][0].append(-1),
             "requests[0].paths[0]: variable id -1 out of range"),
            (lambda doc: doc["requests"][0]["paths"][0].append("1"),
             "requests[0].paths[0]: variable id '1' out of range"),
            (lambda doc: doc["symbol_table"][1].pop(),
             "symbol_table[1]: expected [service, api, replica]"),
            # the first bad field of an entry is the one named
            (lambda doc: doc["symbol_table"][1].__setitem__(slice(0, 2), [0, 0]),
             "symbol_table[1].service: expected a string"),
            (lambda doc: doc["symbol_table"][1].__setitem__(1, None),
             "symbol_table[1].api: expected a string"),
            (lambda doc: doc["symbol_table"][1].__setitem__(2, 0.0),
             "symbol_table[1].replica: expected an integer"),
        ],
        ids=["path-negative", "path-string", "symbol-entry", "symbol-service", "symbol-api",
             "symbol-replica"],
    )
    def test_exact_messages(self, mutate, message):
        doc = json.loads(system_to_json(tiny_system([{0, 1}], 2)))
        mutate(doc)
        with pytest.raises(SchemaError) as info:
            system_from_json(json.dumps(doc))
        assert str(info.value) == message

    @pytest.mark.parametrize("field", BOOLEAN_FIELDS)
    def test_boolean_for_integer_named(self, field):
        with pytest.raises(SchemaError, match=re.escape(field)):
            system_from_json(boolean_system_file(field))

    def test_not_json(self):
        with pytest.raises(SchemaError, match="JSON"):
            system_from_json("not json at all")

    @settings(max_examples=400)
    @given(data=st.data())
    def test_single_field_mutation_loads_or_raises_package_error(self, data):
        system = generate_system(GenParams(group_num=2, edge_num=9, bone_num=2, n_requests=2, seed=3))
        doc = json.loads(system_to_json(system))
        *parents, last = data.draw(st.sampled_from(list(field_paths(doc))))
        parent = functools.reduce(operator.getitem, parents, doc)
        if data.draw(st.booleans()):
            del parent[last]
        else:
            parent[last] = data.draw(JSON_VALUES)
        try:
            loaded = system_from_json(json.dumps(doc))
        except MinfaultError:
            return
        assert system_from_json(system_to_json(loaded)) == loaded

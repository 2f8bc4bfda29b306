"""``jsontext.dumps`` against its oracle, ``json.dumps(doc, indent=2, sort_keys=True)``."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minfault.cli import EXIT_INFEASIBLE, EXIT_OK, main
from minfault.jsontext import dumps
from minfault.simulation import GenParams, generate_system, system_to_json


def oracle(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


class Text(str):
    pass


class Integer(int):
    pass


class Real(float):
    pass


texts = st.text() | st.sampled_from(['', 'é', '名前', '"quoted"', 'back\\slash', '\x00\t\n\r\x1f\x7f',
                                     ' ', '\U0001f600', '%s', '%%', '%(x)s'])
integers = st.integers() | st.sampled_from([2**63, -2**64 - 1, 10**40])
reals = st.floats() | st.sampled_from([-0.0, 0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf])
scalars = st.one_of(
    st.none(), st.booleans(), integers, reals, texts,
    st.builds(Text, texts), st.builds(Integer, integers), st.builds(Real, reals),
)
# one strategy per column: a type the writer encodes column-wise, or a mix
columns = st.sampled_from([texts, integers, reals, st.booleans(), scalars])


@st.composite
def rows(draw):
    """Lists and tuples of one length with one strategy per column,
    sometimes followed by a row of another shape."""
    kinds = draw(st.lists(columns, max_size=4))
    row = st.tuples(*kinds)
    made = draw(st.lists(row | row.map(list), max_size=6))
    return made + draw(st.lists(st.lists(scalars, max_size=5) | st.tuples(scalars), max_size=1))


leaves = scalars | st.lists(texts) | st.lists(integers) | st.lists(reals) | rows()
documents = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(texts, inner, max_size=5)),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(documents)
def test_matches_json_dumps(doc):
    assert dumps(doc) == oracle(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {}, [], (), [[]], [{}], {"a": []}, [[], []],
        [1, True], [True, 1], [1, 1.0], [None, 0], [0.0, -0.0, 1e300, math.nan, math.inf, -math.inf],
        [2**64, -2**70], [Text("t"), "s"], [Integer(3), 3], [Real(0.5), 0.5],
        [["a", 1], ["b", 2]], [("a", 1), ["b", 2]], [["a", 1], ["b"]], [["a", 1], [2, "b"]],
        [["a", True], ["b", False]], [[1], [2.5]], [["%s", "%"], ["%%", "x"]],
        {"b": 1, "a": {"d": [1, 2], "c": ()}}, {Text("k"): Integer(1)},
    ],
    ids=repr,
)
def test_fixed_documents(doc):
    assert dumps(doc) == oracle(doc)


@pytest.mark.parametrize("doc", [{1: "a"}, {"a": {None: 1}}, [{("a",): 1}], {"a": 1, 2: "b"}])
def test_non_str_key_raises(doc):
    # ``json.dumps`` would write these keys as strings
    with pytest.raises(TypeError):
        dumps(doc)


@pytest.mark.parametrize("doc", [{1, 2}, [b"bytes"], {"a": object()}, [[1, 2], [3, {4}]]])
def test_unencodable_value_raises(doc):
    with pytest.raises(TypeError):
        oracle(doc)
    with pytest.raises(TypeError):
        dumps(doc)


@pytest.mark.parametrize("level", [0, 1, 4])
@pytest.mark.parametrize("doc", [7, "s", ["svc", "/api", 0], {"a": [1, {"b": ()}]}])
def test_level_is_the_depth_inside_enclosing_containers(doc, level):
    # the text ``doc`` takes nested ``level`` deep: one-key dicts around it
    wrapped = doc
    for _ in range(level):
        wrapped = {"k": wrapped}
    head = "".join('{\n' + "  " * (i + 1) + '"k": ' for i in range(level))
    tail = "".join("\n" + "  " * i + "}" for i in reversed(range(level)))
    assert head + dumps(doc, level) + tail == oracle(wrapped)


def system_doc(system):
    """Reference: the system file's document, built apart from ``system_to_json``."""
    weights = dict(system.request_frequency)
    return {
        "format": "minfault-system-v1",
        "n_vars": system.n_vars,
        "requests": [{"id": r.request_id, "frequency": weights[r.request_id],
                      "paths": [sorted(p) for p in r.paths], "group_of_path": list(r.group_of_path)}
                     for r in system.requests],
        "symbol_table": [list(sym) for sym in system.symbol_table],
    }


# the benchmark's three workloads, at seeds 1 and 7
WORKLOAD_SYSTEMS = [
    GenParams(group_num=g, edge_num=e, bone_num=b, n_requests=n, shared_api_fraction=share, seed=seed)
    for g, e, b, n, share in [(3, 200, 4, 1, 0.0), (2, 40, 3, 8, 0.3), (2, 50, 2, 1, 0.0)]
    for seed in (1, 7)
]


@pytest.mark.parametrize("params", WORKLOAD_SYSTEMS, ids=lambda p: f"{p.edge_num}-{p.n_requests}-seed{p.seed}")
def test_system_documents(params):
    system = generate_system(params)
    doc = system_doc(system)
    assert dumps(doc) == oracle(doc)
    assert system_to_json(system) == oracle(doc) + "\n"


def test_plan_and_manifest_documents(tmp_path):
    # every indented file of a fleet run (seed 1) is its document through the oracle
    system, camp, plan = tmp_path / "sys.json", tmp_path / "camp", tmp_path / "plan.json"
    argvs = [
        ["gen", "--groups", "2", "--edges", "40", "--bones", "3", "--requests", "8",
         "--share", "0.3", "--seed", "1", "--out", str(system)],
        ["inject", "--system", str(system), "--all", "--kmax", "3", "--out-dir", str(camp)],
        ["harden", "--system", str(system), "--campaign-dir", str(camp), "--high", "0,3",
         "--budgets", "8,16,32,64", "--out", str(plan)],
    ]
    for argv in argvs:
        assert main(argv) in (EXIT_OK, EXIT_INFEASIBLE)
    files = [plan, *tmp_path.glob("*.manifest.json"), *camp.glob("*.json")]
    assert {f.name for f in files} >= {"plan.json", "plan.json.manifest.json", "sys.json.manifest.json",
                                      "summary.csv.manifest.json", "request_7.json"}
    for f in files:
        text = f.read_text()
        doc = json.loads(text)
        assert text == oracle(doc) + "\n" == dumps(doc) + "\n", f.name

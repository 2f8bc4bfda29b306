"""Tests of the benchmark's output checks and tracing.

    python3 -m pytest perfbench

Each expected-answer function must match an itertools brute force on
small systems, and each check must accept minfault's real output and
reject a corrupted copy of it.
"""

from __future__ import annotations

import csv
import itertools
import json
import re

import pytest

import minfault.cli as cli
from minfault import GenParams, generate_system, make_cnf, serialize_cnf
from checks import (
    CheckError,
    Request,
    System,
    check_plan,
    check_request_faults,
    check_solutions,
    closed_form_count,
    closed_form_faults,
    read_cnf,
    read_summary,
    read_system,
    signature_class_faults,
    top_frequency,
)
from tracing import Tracer


def brute_force(paths, k):
    """Minimal hitting sets of ``paths`` with at most ``k`` variables."""
    universe = sorted(set().union(*paths))
    out = set()
    for size in range(1, k + 1):
        for combo in itertools.combinations(universe, size):
            s = set(combo)
            if all(p & s for p in paths) and not any(
                all(p & (s - {v}) for p in paths) for v in combo
            ):
                out.add(frozenset(combo))
    return out


def requests_of(params):
    system = generate_system(params)
    return [Request(r.paths, r.group_of_path, 1) for r in system.requests]


@pytest.mark.parametrize("g,e,b", [(1, 10, 1), (2, 10, 0), (2, 10, 1), (3, 10, 2), (2, 14, 3)])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_closed_form_matches_brute_force(g, e, b, k):
    (req,) = requests_of(GenParams(g, e, b, n_requests=1))
    expected = brute_force(req.paths, k)
    assert closed_form_faults(req, k) == expected
    assert closed_form_count(req, k) == len(expected)


@pytest.mark.parametrize("share", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_signature_classes_match_brute_force(share, seed):
    params = GenParams(2, 10, 1, n_requests=4, shared_api_fraction=share, seed=seed)
    for req in requests_of(params):
        for k in (1, 2, 3):
            assert signature_class_faults(req, k) == brute_force(req.paths, k)


def test_closed_form_refuses_groups_that_share_variables():
    req = Request((frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 3}), frozenset({4})),
                  (0, 0, 1, 1), 1)
    with pytest.raises(CheckError, match="disjoint"):
        closed_form_faults(req, 3)


def _gen(tmp_path, *flags):
    path = tmp_path / "system.json"
    assert cli.main(["gen", *flags, "--seed", "3", "--out", str(path)]) == 0
    return path


@pytest.fixture
def fleet(tmp_path):
    """A small shared system with its campaigns and hardening plan."""
    sys_path = _gen(tmp_path, "--groups", "2", "--edges", "10", "--bones", "1",
                    "--requests", "4", "--share", "0.3")
    camp = tmp_path / "campaign"
    assert cli.main(["inject", "--system", str(sys_path), "--all", "--kmax", "3",
                     "--out-dir", str(camp)]) == 0
    plan = tmp_path / "plan.json"
    assert cli.main(["harden", "--system", str(sys_path), "--campaign-dir", str(camp),
                     "--high", "auto-topfreq:1", "--budgets", "4,6,8", "--out", str(plan)]) == 0
    system = read_system(sys_path)
    rows = read_summary(camp)
    faults = {
        rid: check_request_faults(system, camp, rows[rid], rid,
                                  signature_class_faults(system.requests[rid], 3))
        for rid in system.requests
    }
    return system, camp, rows, faults, plan


def test_campaign_check_rejects_a_dropped_fault(fleet):
    system, camp, rows, _, _ = fleet
    path = camp / "request_1.json"
    doc = json.loads(path.read_text())
    dropped = doc["valid_faults"].pop()["vars"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckError, match=re.escape(f"1 expected faults missing, 0 unexpected (e.g. missing {dropped})")):
        check_request_faults(system, camp, rows[1], 1, signature_class_faults(system.requests[1], 3))


def test_plan_check_accepts_real_plan(fleet):
    system, _, _, faults, plan = fleet
    levels = check_plan(system, faults, plan, top_frequency(system, 1), (4, 6, 8))
    assert levels == [(4, None), (6, None), (8, None)]


def _rewrite_level(plan, index, edit):
    doc = json.loads(plan.read_text())
    edit(doc["levels"][index])
    plan.write_text(json.dumps(doc))


def test_plan_check_rejects_an_over_budget_plan(fleet):
    system, _, _, faults, plan = fleet

    def widen(level):
        chosen = {e["var"] for e in level["selected"]}
        extra = [v for v in range(system.n_vars) if v not in chosen][:level["budget"]]
        level["selected"] = [
            {"var": v, "service": system.symbols[v][0], "api": system.symbols[v][1],
             "replica": system.symbols[v][2]}
            for v in sorted(chosen | set(extra))
        ]

    _rewrite_level(plan, 1, widen)
    levels = dict(check_plan(system, faults, plan, top_frequency(system, 1), (4, 6, 8)))
    assert levels[4] is None and levels[8] is None
    assert "APIs selected" in str(levels[6])


def test_plan_check_rejects_an_unhit_hard_clause_and_a_wrong_count(fleet):
    system, _, _, faults, plan = fleet
    (top,) = top_frequency(system, 1)

    def unhit(level):
        chosen = {e["var"] for e in level["selected"]}
        only = next(c & chosen for c in faults[top] if len(c & chosen) == 1)
        level["selected"] = [e for e in level["selected"] if e["var"] not in only]

    _rewrite_level(plan, 0, unhit)
    _rewrite_level(plan, 2, lambda level: level.update(covered=level["covered"] - 1))
    levels = dict(check_plan(system, faults, plan, top_frequency(system, 1), (4, 6, 8)))
    assert "hard clause" in str(levels[4])
    assert "recount" in str(levels[8])


def _write_plan(tmp_path, selected, covered, cr, afvr):
    symbols = tuple(("svc", f"/api{v}", 0) for v in range(6))
    plan = tmp_path / "plan.json"
    level = {"budget": 3, "feasible": True, "exact": True, "covered": covered,
             "soft_total": 2, "cr": cr, "mcg": None, "afvr": afvr,
             "selected": [{"var": v, "service": "svc", "api": f"/api{v}", "replica": 0}
                          for v in selected]}
    plan.write_text(json.dumps({"high_priority": [0], "levels": [level]}))
    with open(tmp_path / "plan.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["budget", "feasible", "exact", "selected", "covered", "cr", "mcg", "afvr", "run_id"])
        w.writerow([3, 1, 1, " ".join(map(str, selected)), covered, cr, "", afvr, "x"])
    return symbols, plan


def test_plan_check_rejects_an_exact_level_worse_than_greedy(tmp_path):
    # request 0 (protected) has faults {0} and {1,2}; request 1 has {3} and {4,5}
    paths = {0: (frozenset({0, 1}), frozenset({0, 2})), 1: (frozenset({3, 4}), frozenset({3, 5}))}
    faults = {0: [frozenset({0}), frozenset({1, 2})], 1: [frozenset({3}), frozenset({4, 5})]}

    def system(symbols):
        reqs = {rid: Request(p, (0, 0), 1000 - rid) for rid, p in paths.items()}
        return System(6, reqs, symbols)

    # greedy covers {0} and {1,2} with 0 and 1, then {3} with 3
    symbols, plan = _write_plan(tmp_path, [0, 1, 3], covered=1, cr=0.5, afvr=0.25)
    assert check_plan(system(symbols), faults, plan, [0], (3,)) == [(3, None)]
    symbols, plan = _write_plan(tmp_path, [0, 1, 2], covered=0, cr=0.0, afvr=0.5)
    ((_, error),) = check_plan(system(symbols), faults, plan, [0], (3,))
    assert "greedy covers 1" in str(error)


def test_solution_check_accepts_real_solve_output(tmp_path):
    sys_path = _gen(tmp_path, "--groups", "2", "--edges", "10", "--bones", "1", "--requests", "1")
    req = read_system(sys_path).requests[0]
    cnf = tmp_path / "request.cnf"
    cnf.write_text(serialize_cnf(make_cnf(req.paths, 1 + max(max(p) for p in req.paths))))
    sols = tmp_path / "solutions.txt"
    assert cli.main(["solve", "--cnf", str(cnf), "--k", "4", "--out", str(sols)]) == 0
    assert set(read_cnf(cnf)) == set(req.paths)
    check_solutions(read_cnf(cnf), sols, 4, closed_form_count(req, 4))


@pytest.mark.parametrize("text,k,message", [
    ("1 3\n2\n", 3, None),
    ("1 3\n", 3, "closed form"),  # dropped line
    ("1 2 3\n2\n", 3, "not minimal"),
    ("1 3\n1 3\n2\n", 3, "sorted and unique"),
    ("2\n1 3\n", 3, "sorted and unique"),
    ("3 1\n2\n", 3, "ascending"),
    ("1\n2\n", 3, "misses a clause"),
    ("1 3\n2\n", 1, "bound is 1"),
    ("1 9\n2\n", 3, "formula variables"),
])
def test_solution_check_rejects_corrupted_lines(tmp_path, text, k, message):
    # clauses {1,2} and {2,3}: the minimal hitting sets are {2} and {1,3}
    clauses = [frozenset({0, 1}), frozenset({1, 2})]
    sols = tmp_path / "solutions.txt"
    sols.write_text(text)
    if message is None:
        check_solutions(clauses, sols, k, 2)
    else:
        with pytest.raises(CheckError, match=message):
            check_solutions(clauses, sols, k, 2)


def test_tracing_leaves_outputs_alone_and_counts_injections(tmp_path):
    sys_path = _gen(tmp_path, "--groups", "2", "--edges", "10", "--bones", "1",
                    "--requests", "3", "--share", "0.3")
    argv = ["inject", "--system", str(sys_path), "--all", "--kmax", "3", "--out-dir"]
    assert cli.main(argv + [str(tmp_path / "plain")]) == 0
    tracer = Tracer()
    original = cli.run_campaign
    tracer.install()
    try:
        assert tracer.wrap("cli.inject", cli.main)(argv + [str(tmp_path / "traced")]) == 0
    finally:
        tracer.uninstall()
    assert cli.run_campaign is original
    for name in ("request_0.json", "request_1.json", "request_2.json"):
        plain, traced = (json.loads((tmp_path / d / name).read_text()) for d in ("plain", "traced"))
        assert plain["valid_faults"] == traced["valid_faults"]
    m = tracer.layer_metrics()
    injections = sum(int(r["fault_injection_number"]) for r in read_summary(tmp_path / "traced").values())
    assert m["campaign.injections"] == injections
    # one bootstrap execution per campaign, then one per injection
    assert m["simulation.execute_calls"] == injections + 3
    assert m["campaign.runs"] == 3 and m["solver.campaign.calls"] == m["campaign.solver_calls"] > 0


def test_benchmark_declares_every_traced_metric():
    from run import ROOT

    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    measured = set(Tracer().layer_metrics()) | {"cli.output_bytes", "trace.overhead_s"}
    assert declared == measured

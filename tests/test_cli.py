"""Command-line behavior: outputs, exit codes, determinism."""

import csv
import dataclasses
import json

import pytest

from minfault.campaign import CampaignConfig, run_campaign, run_campaign_static
from minfault.cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_USAGE,
    _dump_campaign,
    _fault_fragments,
    main,
)
from minfault.cnf import compute_stats, parse_cnf
from minfault.simulation import GenParams, generate_system, load_system

FIG_CNF = "p mcnf 4 3\n1 2 0\n2 3 0\n1 4 0\n"  # (A|B)(B|C)(A|D)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_system(tmp_path, capsys, **overrides):
    args = dict(groups=2, edges=50, bones=2, requests=3, seed=7)
    args.update(overrides)
    out = tmp_path / "sys.json"
    code, _, err = run(
        [
            "gen",
            "--groups", str(args["groups"]),
            "--edges", str(args["edges"]),
            "--bones", str(args["bones"]),
            "--requests", str(args["requests"]),
            "--seed", str(args["seed"]),
            "--out", str(out),
        ],
        capsys,
    )
    assert code == EXIT_OK, err
    return out


class TestGen:
    def test_generates_expected_overlap(self, tmp_path, capsys):
        out = gen_system(tmp_path, capsys)
        system = load_system(out)
        for req in system.requests:
            assert compute_stats(list(req.paths)).aco == pytest.approx(0.0267, abs=5e-4)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a = gen_system(tmp_path / "a", capsys)
        b = gen_system(tmp_path / "b", capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_bone_constraint_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            ["gen", "--groups", "2", "--edges", "50", "--bones", "20",
             "--requests", "1", "--out", str(tmp_path / "x.json")],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "skeleton" in err

    def test_manifest_written(self, tmp_path, capsys):
        out = gen_system(tmp_path, capsys)
        manifest = json.loads((tmp_path / "sys.json.manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert str(out) in manifest["outputs"]


class TestSolve:
    def test_worked_example_lines(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(FIG_CNF)
        code, out, _ = run(["solve", "--cnf", str(cnf), "--k", "2"], capsys)
        assert code == EXIT_OK
        assert out == "1 2\n1 3\n2 4\n"

    def test_k_zero_empty_output(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(FIG_CNF)
        code, out, _ = run(["solve", "--cnf", str(cnf), "--k", "0"], capsys)
        assert code == EXIT_OK
        assert out == ""

    def test_empty_formula_marker(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p mcnf 3 0\n")
        code, out, _ = run(["solve", "--cnf", str(cnf), "--k", "1"], capsys)
        assert code == EXIT_OK
        assert out == "0\n"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p mcnf 4 1\n1 -2 0\n")
        code, _, err = run(["solve", "--cnf", str(cnf), "--k", "1"], capsys)
        assert code == EXIT_INPUT
        assert "negative literal" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, _ = run(["solve", "--cnf", str(tmp_path / "nope.cnf"), "--k", "1"], capsys)
        assert code == EXIT_INPUT

    def test_undecodable_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cnf"
        bad.write_bytes(b"p mcnf 1 1\n\xff\xfe 0\n")
        code, _, _ = run(["solve", "--cnf", str(bad), "--k", "1"], capsys)
        assert code == EXIT_INPUT

    def test_out_file(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(FIG_CNF)
        out = tmp_path / "sols.txt"
        code, stdout, _ = run(["solve", "--cnf", str(cnf), "--k", "2", "--out", str(out)], capsys)
        assert code == EXIT_OK
        assert stdout == ""
        assert out.read_text() == "1 2\n1 3\n2 4\n"


class TestInject:
    def test_all_requests_csv(self, tmp_path, capsys):
        system = gen_system(tmp_path, capsys)
        out_dir = tmp_path / "camp"
        code, _, err = run(
            ["inject", "--system", str(system), "--all", "--kmax", "2", "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == EXIT_OK, err
        rows = list(csv.DictReader((out_dir / "summary.csv").open()))
        assert len(rows) == 3
        for row in rows:
            assert int(row["valid_faults"]) == 4
            assert int(row["fault_injection_number"]) >= 4
            doc = json.loads((out_dir / f"request_{row['request_id']}.json").read_text())
            assert doc["k_max"] == 2
            assert len(doc["valid_faults"]) == 4
            assert all(len(f["vars"]) == len(f["symbols"]) for f in doc["valid_faults"])

    def test_static_never_fewer_injections(self, tmp_path, capsys):
        system = gen_system(tmp_path, capsys, edges=9, requests=2)
        for flags, name in [([], "dyn"), (["--static", "4"], "stat")]:
            code, _, err = run(
                ["inject", "--system", str(system), "--all", "--kmax", "4",
                 "--out-dir", str(tmp_path / name), *flags],
                capsys,
            )
            assert code == EXIT_OK, err
        dyn = {r["request_id"]: r for r in csv.DictReader((tmp_path / "dyn" / "summary.csv").open())}
        stat = {r["request_id"]: r for r in csv.DictReader((tmp_path / "stat" / "summary.csv").open())}
        assert set(dyn) == set(stat)
        for rid in dyn:
            assert dyn[rid]["valid_faults"] == stat[rid]["valid_faults"]
            assert int(dyn[rid]["fault_injection_number"]) <= int(stat[rid]["fault_injection_number"])

    def test_unknown_request_id(self, tmp_path, capsys):
        system = gen_system(tmp_path, capsys)
        code, _, _ = run(
            ["inject", "--system", str(system), "--request", "42", "--kmax", "2",
             "--out-dir", str(tmp_path / "camp")],
            capsys,
        )
        assert code == EXIT_INPUT

    def test_single_request(self, tmp_path, capsys):
        system = gen_system(tmp_path, capsys)
        out_dir = tmp_path / "one"
        code, _, _ = run(
            ["inject", "--system", str(system), "--request", "1", "--kmax", "2",
             "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == EXIT_OK
        assert (out_dir / "request_1.json").exists()
        assert not (out_dir / "request_0.json").exists()

    def test_parallel_jobs_same_results(self, tmp_path, capsys):
        system = gen_system(tmp_path, capsys)
        for name, jobs in [("seq", "1"), ("par", "3")]:
            code, _, err = run(
                ["inject", "--system", str(system), "--all", "--kmax", "2",
                 "--jobs", jobs, "--out-dir", str(tmp_path / name)],
                capsys,
            )
            assert code == EXIT_OK, err
        seq = list(csv.DictReader((tmp_path / "seq" / "summary.csv").open()))
        par = list(csv.DictReader((tmp_path / "par" / "summary.csv").open()))
        for ra, rb in zip(seq, par):
            for key in ra:
                if not key.endswith("_time_ms"):
                    assert ra[key] == rb[key]


def run_pipeline(tmp_path, capsys, method="exact", budgets="2,4,6,8"):
    system = gen_system(tmp_path, capsys)
    camp = tmp_path / "camp"
    code, _, err = run(
        ["inject", "--system", str(system), "--all", "--kmax", "2", "--out-dir", str(camp)],
        capsys,
    )
    assert code == EXIT_OK, err
    plan = tmp_path / f"plan_{method}.json"
    code, _, err = run(
        ["harden", "--system", str(system), "--campaign-dir", str(camp),
         "--high", "auto-topfreq:1", "--budgets", budgets, "--method", method,
         "--out", str(plan)],
        capsys,
    )
    return code, plan, err


class TestHarden:
    def test_full_budget_reaches_full_coverage(self, tmp_path, capsys):
        code, plan, err = run_pipeline(tmp_path, capsys, budgets="2,4,8")
        assert code == EXIT_OK, err
        doc = json.loads(plan.read_text())
        last = doc["levels"][-1]
        assert last["feasible"]
        assert last["cr"] == 1.0
        assert last["afvr"] == 0.0
        assert {"service", "api", "replica", "var"} <= set(last["selected"][0])

    def test_exact_dominates_greedy_per_level(self, tmp_path, capsys):
        code_e, plan_e, _ = run_pipeline(tmp_path / "e", capsys, method="exact")
        code_g, plan_g, _ = run_pipeline(tmp_path / "g", capsys, method="greedy")
        assert code_e == EXIT_OK and code_g == EXIT_OK
        exact_levels = json.loads(plan_e.read_text())["levels"]
        greedy_levels = json.loads(plan_g.read_text())["levels"]
        for e, g in zip(exact_levels, greedy_levels):
            if e["feasible"] and g["feasible"]:
                assert e["cr"] >= g["cr"] - 1e-12

    def test_unknown_high_id(self, tmp_path, capsys):
        system = gen_system(tmp_path, capsys)
        camp = tmp_path / "camp"
        run(["inject", "--system", str(system), "--all", "--kmax", "2", "--out-dir", str(camp)], capsys)
        code, _, _ = run(
            ["harden", "--system", str(system), "--campaign-dir", str(camp),
             "--high", "99", "--budgets", "2,4", "--out", str(tmp_path / "p.json")],
            capsys,
        )
        assert code == EXIT_INPUT

    def test_all_levels_infeasible(self, tmp_path, capsys):
        code, plan, err = run_pipeline(tmp_path, capsys, budgets="1")
        # one var cannot cover the high-priority request's bone-pair faults
        assert code == EXIT_INFEASIBLE
        doc = json.loads(plan.read_text())
        assert all(not lv["feasible"] for lv in doc["levels"])

    def test_decreasing_budgets_usage_error(self, tmp_path, capsys):
        system = gen_system(tmp_path, capsys)
        camp = tmp_path / "camp"
        run(["inject", "--system", str(system), "--all", "--kmax", "2", "--out-dir", str(camp)], capsys)
        code, _, _ = run(
            ["harden", "--system", str(system), "--campaign-dir", str(camp),
             "--high", "0", "--budgets", "4,2", "--out", str(tmp_path / "p.json")],
            capsys,
        )
        assert code == EXIT_USAGE


def strip_timings(doc):
    if isinstance(doc, dict):
        return {k: strip_timings(v) for k, v in doc.items() if k != "timings_ms"}
    if isinstance(doc, list):
        return [strip_timings(v) for v in doc]
    return doc


class TestDeterminism:
    def test_identical_flags_identical_outputs(self, tmp_path, capsys):
        results = []
        for name in ("one", "two"):
            base = tmp_path / name
            base.mkdir()
            system = gen_system(base, capsys)
            camp = base / "camp"
            code, _, _ = run(
                ["inject", "--system", str(system), "--all", "--kmax", "2", "--out-dir", str(camp)],
                capsys,
            )
            assert code == EXIT_OK
            plan = base / "plan.json"
            code, _, _ = run(
                ["harden", "--system", str(system), "--campaign-dir", str(camp),
                 "--high", "auto-topfreq:1", "--budgets", "2,4,8", "--out", str(plan)],
                capsys,
            )
            assert code == EXIT_OK
            results.append(base)
        a, b = results
        assert (a / "sys.json").read_bytes() == (b / "sys.json").read_bytes()
        for rid in range(3):
            da = strip_timings(json.loads((a / "camp" / f"request_{rid}.json").read_text()))
            db = strip_timings(json.loads((b / "camp" / f"request_{rid}.json").read_text()))
            assert da == db
        # CSV summaries match once the timing columns are dropped
        for fname in ("camp/summary.csv",):
            rows_a = list(csv.DictReader((a / fname).open()))
            rows_b = list(csv.DictReader((b / fname).open()))
            for ra, rb in zip(rows_a, rows_b):
                for key in ra:
                    if not key.endswith("_time_ms"):
                        assert ra[key] == rb[key]
        assert (a / "plan.json").read_bytes() == (b / "plan.json").read_bytes()
        assert (a / "plan.csv").read_bytes() == (b / "plan.csv").read_bytes()


def campaign_doc(result, symbol_table, mode, run_id):
    """Reference: the campaign-file document, to be encoded by ``json.dumps``."""
    return {
        "run_id": run_id,
        "mode": mode,
        "request_id": result.request_id,
        "k_max": result.k_max,
        "final_k": result.final_k,
        "injections": result.injections,
        "solver_calls": result.solver_calls,
        "valid_faults": [
            {
                "vars": list(fault),
                "symbols": [list(symbol_table[v]) for v in fault],
            }
            for fault in result.valid_faults
        ],
        "timings_ms": {
            "cnf_solving": round(result.wall_times.solve_ms, 3),
            "injection": round(result.wall_times.inject_ms, 3),
            "bookkeeping": round(result.wall_times.bookkeeping_ms, 3),
            "end_to_end": round(result.wall_times.total_ms, 3),
        },
    }


def assert_same_text(result, symbol_table, fragments=None, mode="dynamic", run_id="0123456789ab"):
    fragments = fragments or _fault_fragments(symbol_table)
    got = _dump_campaign(result, mode, run_id, fragments)
    doc = campaign_doc(result, symbol_table, mode, run_id)
    assert got == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return got


class TestCampaignFile:
    """The templated campaign file equals ``json.dumps(indent=2, sort_keys=True)``."""

    @pytest.mark.parametrize("mode", ["dynamic", "static"])
    @pytest.mark.parametrize(
        "params",
        [
            GenParams(group_num=2, edge_num=40, bone_num=3, n_requests=8,
                      shared_api_fraction=0.3, seed=1),
            GenParams(group_num=3, edge_num=20, bone_num=2, n_requests=2, seed=5),
        ],
        ids=["fleet", "unshared"],
    )
    def test_seeded_systems(self, params, mode):
        system = generate_system(params)
        fragments = _fault_fragments(system.symbol_table)  # shared, as in one inject run
        for req in system.requests:
            rid = req.request_id
            if mode == "static":
                result = run_campaign_static(system, rid, 3)
            else:
                result = run_campaign(system, CampaignConfig(request_id=rid, k_max=3))
            assert result.valid_faults
            assert_same_text(result, system.symbol_table, fragments, mode=mode)

    @pytest.fixture
    def result(self):
        system = generate_system(GenParams(group_num=2, edge_num=9, bone_num=2, n_requests=1, seed=3))
        return run_campaign(system, CampaignConfig(request_id=0, k_max=2))

    def test_empty_fault_list(self, result):
        text = assert_same_text(dataclasses.replace(result, valid_faults=()), {})
        assert text.endswith('"valid_faults": []\n}\n')

    @pytest.mark.parametrize(
        "symbol",
        [
            ("dienst-über", "/名前/é", 0),
            ('svc "quoted"', "/back\\slash\\", 7),
            ("ctl\t\n\r\x00\x1f\x7f", "/\u2028\ud83d\ude00", 2**70),
            ("svc", "/api", True),
        ],
        ids=["non-ascii", "quote-backslash", "control-large-replica", "true-replica"],
    )
    def test_symbols_need_escaping(self, result, symbol):
        table = {v: symbol for v in (0, 1, 2**40, 10**12)}
        faults = ((0,), (1, 2**40, 10**12), (0, 10**12))
        text = assert_same_text(dataclasses.replace(result, valid_faults=faults), table)
        assert text.isascii()
        if symbol[2] is True:
            assert "\n          true\n" in text

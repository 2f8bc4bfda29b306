"""Command-line behavior: outputs, exit codes, determinism."""

import csv
import dataclasses
import gc
import hashlib
import importlib.util
import json
import os
import resource
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import request_cnf
import minfault.cli as cli
from minfault.campaign import CampaignConfig, run_campaign, run_campaign_static
from minfault.cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_MEMORY,
    EXIT_OK,
    EXIT_USAGE,
    _dump_campaign,
    _fault_fragments,
    build_parser,
    main,
)
from minfault.cnf import compute_stats, make_cnf, parse_cnf, serialize_cnf
from minfault.simulation import GenParams, generate_system, load_system
from minfault.solver import SolverConfig, iter_minimal
from test_simulation import BOOLEAN_FIELDS, boolean_system_file

FIG_CNF = "p mcnf 4 3\n1 2 0\n2 3 0\n1 4 0\n"  # (A|B)(B|C)(A|D)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def solve_capped(argv, limit, timeout=60):
    """``minfault solve`` in a subprocess whose address space is capped at ``limit`` bytes."""

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "minfault.cli", "solve", *argv],
        capture_output=True, text=True, timeout=timeout, preexec_fn=cap_memory,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )


def csv_rows(path):
    """The rows of a CSV file as dicts; the file is closed again."""
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


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

    def test_reader_closing_the_pipe_is_not_an_error(self, tmp_path):
        # ``solve ... | head -1`` on about 2 MB of output
        f = tmp_path / "r.cnf"
        f.write_text(serialize_cnf(request_cnf(2, 50, 2)))
        with subprocess.Popen(
            [sys.executable, "-m", "minfault.cli", "solve", "--cnf", str(f), "--k", "4"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert first.endswith(b"\n")
        assert code == EXIT_OK
        assert err == b""

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


    def test_huge_declared_universe(self, tmp_path):
        # one clause over variable 1 of 10**9 declared: nothing may be
        # allocated per declared variable (a name table of 10**9 strings
        # does not fit the address-space limit)
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p mcnf 1000000000 1\n1 0\n")
        proc = solve_capped(["--cnf", str(cnf), "--k", "2"], 512 * 2**20)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == "1\n"

    def test_huge_variable_id(self, tmp_path):
        # the search runs over dense class indices: a bitmask as wide as
        # the variable id 10**9 does not fit the address-space limit
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p mcnf 1000000000 1\n1000000000 0\n")
        proc = solve_capped(["--cnf", str(cnf), "--k", "2"], 128 * 2**20)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == "1000000000\n"

    @pytest.mark.parametrize(
        "cnf, k",
        [
            (make_cnf([{0, 2}, {1, 3}], 4), 2),  # interleaved twin classes
            (make_cnf([{0, 1, 4}, {2, 3, 4}, {5, 6}], 7), 3),  # twins and a single
            (parse_cnf(FIG_CNF), 2),  # no twins
            (request_cnf(2, 50, 2), 4),  # 185,761 lines, several chunks
            (make_cnf([], 3), 1),  # the empty formula: "0"
            (make_cnf([{0, 1}, {2, 3}, {4, 5}], 6), 2),  # no solution within k
            (parse_cnf(FIG_CNF), 0),
        ],
        ids=["interleaved", "mixed", "twin-free", "request", "empty", "none-within-k", "k0"],
    )
    def test_output_is_the_sorted_search(self, tmp_path, capsys, cnf, k):
        f = tmp_path / "f.cnf"
        f.write_text(serialize_cnf(cnf))
        want = "".join(
            (" ".join(str(v + 1) for v in sol) if sol else "0") + "\n"
            for sol in sorted(iter_minimal(cnf, SolverConfig(max_size=k)))
        )
        code, out, _ = run(["solve", "--cnf", str(f), "--k", str(k)], capsys)
        assert code == EXIT_OK
        assert out == want
        dest = tmp_path / "sols.txt"
        code, out, _ = run(["solve", "--cnf", str(f), "--k", str(k), "--out", str(dest)], capsys)
        assert code == EXIT_OK
        assert out == ""
        assert dest.read_bytes() == want.encode()
        manifest = json.loads((tmp_path / "sols.txt.manifest.json").read_text())
        assert manifest["outputs"] == {str(dest): hashlib.sha256(want.encode()).hexdigest()}
        assert not (tmp_path / "sols.txt.tmp").exists()

    def test_failure_mid_stream_leaves_no_output(self, tmp_path, monkeypatch):
        f = tmp_path / "f.cnf"
        f.write_text(serialize_cnf(request_cnf(2, 50, 2)))
        dest = tmp_path / "sols.txt"
        tmp = tmp_path / "sols.txt.tmp"
        blocks = cli.iter_sorted_blocks

        def failing(cnf, config):
            for i, block in enumerate(blocks(cnf, config)):
                if i == 4000:
                    assert tmp.stat().st_size > 0  # some chunks were written
                    raise RuntimeError("solver failed")
                yield block

        monkeypatch.setattr(cli, "iter_sorted_blocks", failing)
        with pytest.raises(RuntimeError, match="solver failed"):
            main(["solve", "--cnf", str(f), "--k", "4", "--out", str(dest)])
        assert not dest.exists()
        assert not tmp.exists()
        assert not (tmp_path / "sols.txt.manifest.json").exists()

    def test_output_larger_than_memory_cap(self, tmp_path):
        # an unshared (2,100,2) request at k=4: classes of 2, 28, 68, 2, 28
        # and 68 twins give 3,632,836 lines (~50 MB); as a list of tuples
        # they do not fit the address-space limit
        f = tmp_path / "f.cnf"
        f.write_text(serialize_cnf(request_cnf(2, 100, 2)))
        dest = tmp_path / "sols.txt"
        proc = solve_capped(
            ["--cnf", str(f), "--k", "4", "--out", str(dest)], 128 * 2**20, timeout=120
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        lines = 0
        digest = hashlib.sha256()
        with open(dest, "rb") as fh:
            while chunk := fh.read(1 << 20):
                lines += chunk.count(b"\n")
                digest.update(chunk)
        assert lines == 28 * 68 * 28 * 68 + 2 * (2 * 28 * 68) + 2 * 2 == 3_632_836
        manifest = json.loads((tmp_path / "sols.txt.manifest.json").read_text())
        assert manifest["outputs"] == {str(dest): digest.hexdigest()}


class TestInject:
    def test_all_requests_csv(self, tmp_path, capsys):
        system = gen_system(tmp_path, capsys)
        out_dir = tmp_path / "camp"
        code, _, err = run(
            ["inject", "--system", str(system), "--all", "--kmax", "2", "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == EXIT_OK, err
        rows = csv_rows(out_dir / "summary.csv")
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
        for flags, name in [([], "dyn"), (["--static"], "stat")]:
            code, _, err = run(
                ["inject", "--system", str(system), "--all", "--kmax", "4",
                 "--out-dir", str(tmp_path / name), *flags],
                capsys,
            )
            assert code == EXIT_OK, err
        dyn = {r["request_id"]: r for r in csv_rows(tmp_path / "dyn" / "summary.csv")}
        stat = {r["request_id"]: r for r in csv_rows(tmp_path / "stat" / "summary.csv")}
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

    def test_deeply_nested_system_file(self, tmp_path, capsys):
        system = tmp_path / "sys.json"
        system.write_text("[" * 100_000)  # past the decoder's recursion limit
        code, _, err = run(
            ["inject", "--system", str(system), "--all", "--kmax", "2",
             "--out-dir", str(tmp_path / "camp")],
            capsys,
        )
        assert code == EXIT_INPUT
        assert "not valid JSON" in err

    @pytest.mark.parametrize("field", BOOLEAN_FIELDS)
    def test_boolean_for_integer(self, tmp_path, capsys, field):
        system = tmp_path / "sys.json"
        system.write_text(boolean_system_file(field))
        code, _, err = run(
            ["inject", "--system", str(system), "--all", "--kmax", "2",
             "--out-dir", str(tmp_path / "camp")],
            capsys,
        )
        assert code == EXIT_INPUT
        assert field in err

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

    def test_jobs_accepts_only_one(self, tmp_path, capsys):
        system = gen_system(tmp_path, capsys)
        argv = ["inject", "--system", str(system), "--all", "--kmax", "2"]
        code, _, err = run([*argv, "--jobs", "2", "--out-dir", str(tmp_path / "two")], capsys)
        assert code == EXIT_USAGE
        assert "--jobs" in err
        assert not (tmp_path / "two").exists()
        for name, flags in [("one", ["--jobs", "1"]), ("none", [])]:
            code, _, err = run([*argv, *flags, "--out-dir", str(tmp_path / name)], capsys)
            assert code == EXIT_OK, err
        for f in ["request_0.json", "request_1.json", "request_2.json", "summary.csv"]:
            one, none = (without_timings(tmp_path / d / f) for d in ("one", "none"))
            assert one == none
        manifests = [json.loads((tmp_path / d / "summary.csv.manifest.json").read_text())
                     for d in ("one", "none")]
        assert manifests[0]["run_id"] == manifests[1]["run_id"]
        assert manifests[0]["params"]["jobs"] == manifests[1]["params"]["jobs"] == 1

    def test_static_runs_at_kmax(self, tmp_path, capsys):
        system_file = gen_system(tmp_path, capsys, requests=1)
        out_dir = tmp_path / "stat"
        code, _, err = run(
            ["inject", "--system", str(system_file), "--request", "0", "--kmax", "3", "--static",
             "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == EXIT_OK, err
        system = load_system(system_file)
        manifest = json.loads((out_dir / "summary.csv.manifest.json").read_text())
        assert (manifest["params"]["kmax"], manifest["params"]["static"]) == (3, 3)
        expected = campaign_doc(run_campaign_static(system, 0, 3), system.symbol_table,
                                "static", manifest["run_id"])
        del expected["timings_ms"]
        assert without_timings(out_dir / "request_0.json") == expected

    def test_static_takes_no_value(self, tmp_path, capsys):
        system = gen_system(tmp_path, capsys)
        code, _, err = run(
            ["inject", "--system", str(system), "--all", "--kmax", "3", "--static", "2",
             "--out-dir", str(tmp_path / "camp")],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "unrecognized arguments: 2" in err

    def test_one_campaign_result_at_a_time(self, tmp_path, capsys, monkeypatch):
        system = gen_system(tmp_path, capsys, requests=4)
        refs = []

        def tracked(*args, **kwargs):
            gc.collect()
            assert all(ref() is None for ref in refs), "an earlier campaign result is still held"
            result = run_campaign(*args, **kwargs)
            refs.append(weakref.ref(result))
            return result

        monkeypatch.setattr(cli, "run_campaign", tracked)
        code, _, err = run(
            ["inject", "--system", str(system), "--all", "--kmax", "2", "--out-dir", str(tmp_path / "camp")],
            capsys,
        )
        assert code == EXIT_OK, err
        assert len(refs) == 4

    def test_memory_error_exit_code(self, tmp_path, capsys, monkeypatch):
        system = gen_system(tmp_path, capsys)

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "run_campaign", exhausted)
        out_dir = tmp_path / "camp"
        code, _, err = run(
            ["inject", "--system", str(system), "--all", "--kmax", "2", "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == EXIT_MEMORY
        assert "out of memory" in err
        assert list(out_dir.iterdir()) == []


def without_timings(path):
    """A campaign file's document or ``summary.csv``'s rows, timing fields dropped."""
    if path.suffix == ".csv":
        return [{k: v for k, v in row.items() if not k.endswith("_time_ms")}
                for row in csv_rows(path)]
    doc = json.loads(path.read_text())
    del doc["timings_ms"]
    return doc


def load_workloads(monkeypatch):
    """``perfbench/workloads.py``, loaded by file path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # ``dataclass`` looks the defining module up in ``sys.modules``
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_command_lines_parse(tmp_path, monkeypatch):
    workloads = load_workloads(monkeypatch)
    parser = build_parser()
    assert workloads.WORKLOADS
    for w in workloads.WORKLOADS.values():
        files = workloads.round_files(tmp_path)
        assert parser.parse_args(workloads.gen_argv(w, 1, files)).command == "gen"
        for argv in workloads.pipeline_argvs(w, files):
            assert parser.parse_args(argv).command == argv[0]


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

    def test_duplicate_high_ids_collapse(self, tmp_path, capsys):
        system = gen_system(tmp_path, capsys)
        camp = tmp_path / "camp"
        run(["inject", "--system", str(system), "--all", "--kmax", "2", "--out-dir", str(camp)], capsys)
        docs = {}
        for high in ("0", "0,0"):
            plan = tmp_path / f"plan_{high}.json"
            code, _, err = run(
                ["harden", "--system", str(system), "--campaign-dir", str(camp),
                 "--high", high, "--budgets", "2,4,8", "--out", str(plan)],
                capsys,
            )
            assert code == EXIT_OK, err
            docs[high] = json.loads(plan.read_text())
        assert docs["0,0"]["high_priority"] == [0]
        assert docs["0,0"]["levels"] == docs["0"]["levels"]

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


def harden_argv(system, camp, out):
    return ["harden", "--system", str(system), "--campaign-dir", str(camp),
            "--high", "auto-topfreq:1", "--budgets", "1,64", "--out", str(out)]


@pytest.fixture(scope="module")
def campaign_docs(tmp_path_factory):
    """A small system file and its campaign documents, by file name."""
    base = tmp_path_factory.mktemp("campaign")
    system = base / "sys.json"
    camp = base / "camp"
    assert main(["gen", "--groups", "2", "--edges", "50", "--bones", "2",
                 "--requests", "3", "--seed", "7", "--out", str(system)]) == EXIT_OK
    assert main(["inject", "--system", str(system), "--all", "--kmax", "2",
                 "--out-dir", str(camp)]) == EXIT_OK
    docs = {f.name: json.loads(f.read_text()) for f in sorted(camp.glob("request_*.json"))}
    assert len(docs) == 3
    return system, docs


def write_campaign(camp, docs):
    camp.mkdir()
    for name, doc in docs.items():
        (camp / name).write_text(json.dumps(doc))


# JSON values a corrupted campaign file may hold in place of any of its parts
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-5, max_value=2**70)
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


class TestHardenInputs:
    """Malformed campaign files are input errors (exit 2), never crashes."""

    def test_valid_files(self, tmp_path, campaign_docs, capsys):
        system, docs = campaign_docs
        write_campaign(tmp_path / "camp", docs)
        code, _, err = run(harden_argv(system, tmp_path / "camp", tmp_path / "p.json"), capsys)
        assert code == EXIT_OK, err

    @pytest.mark.parametrize(
        "key, value",
        [("request_id", "1"), ("request_id", [1]), ("request_id", True), ("request_id", 1.0)],
        ids=["string", "list", "true", "float"],
    )
    def test_request_id_not_an_integer(self, tmp_path, campaign_docs, capsys, key, value):
        system, docs = campaign_docs
        docs = dict(docs, **{"request_1.json": dict(docs["request_1.json"], **{key: value})})
        write_campaign(tmp_path / "camp", docs)
        code, _, err = run(harden_argv(system, tmp_path / "camp", tmp_path / "p.json"), capsys)
        assert code == EXIT_INPUT
        assert "request_1.json: request_id and fault variables must be integers" in err

    @pytest.mark.parametrize("fault", [[[1], 2], [True], [1, "2"], [1.0]],
                             ids=["list", "true", "string", "float"])
    def test_fault_variable_not_an_integer(self, tmp_path, campaign_docs, capsys, fault):
        system, docs = campaign_docs
        doc = json.loads(json.dumps(docs["request_2.json"]))
        doc["valid_faults"][-1]["vars"] = fault
        write_campaign(tmp_path / "camp", dict(docs, **{"request_2.json": doc}))
        code, _, err = run(harden_argv(system, tmp_path / "camp", tmp_path / "p.json"), capsys)
        assert code == EXIT_INPUT
        assert "request_2.json: request_id and fault variables must be integers" in err

    def test_duplicate_request_id(self, tmp_path, campaign_docs, capsys):
        system, docs = campaign_docs
        write_campaign(tmp_path / "camp", dict(docs, **{"request_9.json": docs["request_0.json"]}))
        code, _, err = run(harden_argv(system, tmp_path / "camp", tmp_path / "p.json"), capsys)
        assert code == EXIT_INPUT
        assert "request_9.json: a second campaign result for request 0" in err

    @pytest.mark.parametrize("method", ["exact", "greedy"])
    @pytest.mark.parametrize("budgets", ["0", "0,8"])
    def test_request_missing_from_system(self, tmp_path, campaign_docs, capsys, budgets, method):
        # found before any level is solved, whether or not one is feasible
        system, docs = campaign_docs
        extra = dict(docs["request_0.json"], request_id=7)
        write_campaign(tmp_path / "camp", dict(docs, **{"request_7.json": extra}))
        code, _, err = run(
            ["harden", "--system", str(system), "--campaign-dir", str(tmp_path / "camp"),
             "--high", "auto-topfreq:1", "--budgets", budgets, "--method", method,
             "--out", str(tmp_path / "p.json")],
            capsys,
        )
        assert code == EXIT_INPUT
        assert "no request with id 7" in err
        assert sorted(os.listdir(tmp_path)) == ["camp"]

    def test_deeply_nested_document(self, tmp_path, campaign_docs, capsys):
        system, docs = campaign_docs
        write_campaign(tmp_path / "camp", docs)
        depth = 100_000  # past the decoder's recursion limit
        (tmp_path / "camp" / "request_1.json").write_text(
            '{"request_id": 1, "valid_faults": ' + "[" * depth + "]" * depth + "}"
        )
        code, _, err = run(harden_argv(system, tmp_path / "camp", tmp_path / "p.json"), capsys)
        assert code == EXIT_INPUT
        assert "request_1.json: malformed campaign result" in err

    @given(data=st.data())
    @settings(max_examples=80)
    def test_corrupted_documents(self, tmp_path_factory, campaign_docs, data):
        system, docs = campaign_docs
        docs = json.loads(json.dumps(docs))
        name = data.draw(st.sampled_from(sorted(docs)))
        parent, key = docs, name
        # walk down from the document root, then replace or delete the node
        while isinstance(parent[key], (dict, list)) and parent[key] and data.draw(st.booleans()):
            node = parent[key]
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, data.draw(st.sampled_from(keys))
        if isinstance(parent, dict) and parent is not docs and data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = data.draw(json_values)
        tmp = tmp_path_factory.mktemp("corrupt")
        write_campaign(tmp / "camp", docs)
        assert main(harden_argv(system, tmp / "camp", tmp / "p.json")) in (EXIT_OK, EXIT_INPUT)


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
            rows_a = csv_rows(a / fname)
            rows_b = csv_rows(b / fname)
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
    got = "".join(_dump_campaign(result, mode, run_id, fragments))
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

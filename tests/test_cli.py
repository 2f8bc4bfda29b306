"""Command-line behavior: outputs, exit codes, determinism."""

import argparse
import builtins
import csv
import dataclasses
import gc
import hashlib
import importlib.util
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import weakref
from contextlib import redirect_stderr
from io import StringIO
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import request_cnf
import minfault.campaign as campaign
import minfault.cli as cli
import minfault.hardening as hardening
import minfault.solver as solver
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
from minfault.errors import MinfaultError
from minfault.simulation import GenParams, generate_system, load_system, system_to_json
from minfault.solver import SolverConfig, iter_minimal
from test_simulation import BOOLEAN_FIELDS, boolean_system_file

FIG_CNF = "p mcnf 4 3\n1 2 0\n2 3 0\n1 4 0\n"  # (A|B)(B|C)(A|D)

# SHA-256 of ``solve --k 4`` output, pinned before blocks shared their
# tails: 185,761 lines, and 1,100 lines from classes whose ids interleave
# (sets {B, D} and {A, C, D}, ids 7 apart)
SOLVE_GOLDEN = [
    ("request-2-50-2", "fe7383272304067f295fdff55796eaf37b548fa73b571d215a8fcfa1358cd391"),
    ("interleaved", "c781a59ebe4655f3a9b017c247d47f9b140e892b1f5b2caa527e827f348c2613"),
]


def golden_cnf(case):
    if case == "interleaved":
        return make_cnf([{7 * v for v in range(40) if v % 4 in rems} for rems in ((0, 1), (1, 2), (3,))], 280)
    return request_cnf(2, 50, 2)


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
        assert set(manifest["timings_ms"]) == {"generate", "write"}
        assert all(ms > 0 for ms in manifest["timings_ms"].values())

    def test_any_package_error_is_input_error(self, tmp_path, capsys, monkeypatch):
        class Unlisted(MinfaultError):
            pass

        def failing(args):
            raise Unlisted("no such thing")

        monkeypatch.setitem(cli._HANDLERS, "gen", failing)
        code, out, err = run(
            ["gen", "--groups", "2", "--edges", "9", "--bones", "2",
             "--requests", "1", "--out", str(tmp_path / "x.json")],
            capsys,
        )
        assert (code, out, err) == (EXIT_INPUT, "", "input error: no such thing\n")


def test_main_reuses_one_parser(tmp_path, monkeypatch, capsys):
    # a usage error must leave the one parser as it found it for the next call
    gen = ["gen", "--groups", "2", "--edges", "9", "--bones", "2", "--requests", "2", "--seed", "3"]
    main([*gen, "--out", str(tmp_path / "warm.json")])
    monkeypatch.setattr(cli, "_Parser", None)  # building a second parser would raise
    bad = ["gen", "--groups", "x", *gen[3:], "--out", str(tmp_path / "bad.json")]
    code, _, err = run(bad, capsys)
    assert (code, err) == (EXIT_USAGE, "usage error: argument --groups: not a decimal integer: 'x'\n")
    code, _, err = run([*gen, "--out", str(tmp_path / "sys.json")], capsys)
    assert (code, err) == (EXIT_OK, "")
    params = GenParams(group_num=2, edge_num=9, bone_num=2, n_requests=2, seed=3)
    assert (tmp_path / "sys.json").read_bytes() == system_to_json(generate_system(params)).encode()
    assert not (tmp_path / "bad.json").exists()


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
        for clause in ("1 -2 0", "1 2 -0"):  # ``-0`` would read as the terminator
            cnf.write_text(f"p mcnf 4 1\n{clause}\n")
            code, out, err = run(["solve", "--cnf", str(cnf), "--k", "1"], capsys)
            assert code == EXIT_INPUT
            assert out == ""
            assert "negative literal" in err

    def test_literal_not_ascii_decimal_exit_code(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p mcnf 4 1\n1 +2 0\n", encoding="utf-8")
        code, out, err = run(["solve", "--cnf", str(cnf), "--k", "1"], capsys)
        assert code == EXIT_INPUT
        assert out == ""
        assert "non-integer literal '+2'" in err

    def test_crlf_file_exit_code(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_bytes(b"p mcnf 4 1\r\n1 2 0\r\n")
        code, out, err = run(["solve", "--cnf", str(cnf), "--k", "1"], capsys)
        assert code == EXIT_INPUT
        assert out == ""
        assert "line 1: whitespace '\\r' other than an ASCII space" in err

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

    @pytest.mark.parametrize("case, digest", SOLVE_GOLDEN)
    def test_golden_bytes(self, tmp_path, case, digest):
        f = tmp_path / "f.cnf"
        f.write_text(serialize_cnf(golden_cnf(case)))
        dest = tmp_path / "sols.txt"
        assert main(["solve", "--cnf", str(f), "--k", "4", "--out", str(dest)]) == EXIT_OK
        assert hashlib.sha256(dest.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("bound", [1, 7, cli._CHUNK_CHARS, 1 << 20],
                             ids=["bound-1", "bound-7", "default-bound", "bound-1MiB"])
    @pytest.mark.parametrize("case, digest", SOLVE_GOLDEN)
    def test_chunk_bound_leaves_bytes_alone(self, tmp_path, capsys, monkeypatch, case, digest, bound):
        monkeypatch.setattr(cli, "_CHUNK_CHARS", bound)
        f = tmp_path / "f.cnf"
        f.write_text(serialize_cnf(golden_cnf(case)))
        dest = tmp_path / "sols.txt"
        code, out, err = run(["solve", "--cnf", str(f), "--k", "4"], capsys)
        assert code == EXIT_OK, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        code, _, err = run(["solve", "--cnf", str(f), "--k", "4", "--out", str(dest)], capsys)
        assert code == EXIT_OK, err
        assert hashlib.sha256(dest.read_bytes()).hexdigest() == digest
        manifest = json.loads((tmp_path / "sols.txt.manifest.json").read_text())
        assert manifest["outputs"] == {str(dest): digest}

    def test_chunks_stay_under_the_bound(self, monkeypatch):
        # the unshared (2,300,4) request at k=3 has blocks of up to 177,184
        # characters, which go out in slices of whole lines
        cases = [(request_cnf(2, 300, 4), 3), *((golden_cnf(case), 4) for case, _ in SOLVE_GOLDEN)]
        for cnf, k in cases:
            names = {v: str(v + 1) for v in cnf.variables()}
            want = "".join(" ".join(names[v] for v in sol) + "\n"
                           for sol in sorted(iter_minimal(cnf, SolverConfig(max_size=k))))
            for bound in (cli._CHUNK_CHARS, 7):  # at 7, most lines pass the bound alone
                monkeypatch.setattr(cli, "_CHUNK_CHARS", bound)
                pieces = list(cli._solution_text(cli.iter_sorted_blocks(cnf, SolverConfig(max_size=k)), names))
                assert "".join(pieces) == want
                for piece in pieces:
                    assert len(piece) <= bound or piece.count("\n") == 1

    def test_failure_mid_stream_leaves_no_output(self, tmp_path, monkeypatch):
        f = tmp_path / "f.cnf"
        f.write_text(serialize_cnf(request_cnf(2, 50, 2)))
        dest = tmp_path / "sols.txt"
        tmp = tmp_path / "sols.txt.tmp"
        blocks = cli.iter_sorted_blocks

        def failing(cnf, config):
            # 431 blocks of about 4.9 kB of text each; the first 64 KiB
            # chunk is written after about 13 of them
            for i, block in enumerate(blocks(cnf, config)):
                if i == 400:
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

    def test_manifest_times_campaigns_and_write(self, tmp_path, capsys):
        system = gen_system(tmp_path, capsys)
        out_dir = tmp_path / "camp"
        code, _, err = run(
            ["inject", "--system", str(system), "--all", "--kmax", "2", "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == EXIT_OK, err
        manifest = json.loads((out_dir / "summary.csv.manifest.json").read_text())
        assert set(manifest["timings_ms"]) == {"campaigns", "write"}
        assert all(ms > 0 for ms in manifest["timings_ms"].values())

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

    def test_kmax_below_one(self, tmp_path, capsys):
        system = gen_system(tmp_path, capsys)
        camp = tmp_path / "camp"
        code, _, err = run(["inject", "--system", str(system), "--all", "--kmax", "0",
                            "--out-dir", str(camp)], capsys)
        assert code == EXIT_USAGE
        assert "--kmax must be >= 1" in err
        assert not camp.exists()

    def test_failed_campaign_is_an_error_row(self, tmp_path, capsys, monkeypatch):
        system = gen_system(tmp_path, capsys)
        real = cli.run_campaign

        def fail_request_1(system, config):
            if config.request_id == 1:
                raise MinfaultError("request 1 fails with no injected faults")
            return real(system, config)

        monkeypatch.setattr(cli, "run_campaign", fail_request_1)
        camp = tmp_path / "camp"
        code, _, err = run(["inject", "--system", str(system), "--all", "--kmax", "2",
                            "--out-dir", str(camp)], capsys)
        assert code == EXIT_OK, err
        rows = csv_rows(camp / "summary.csv")
        assert [row["request_id"] for row in rows] == ["0", "1", "2"]
        assert rows[1]["error"] == "request 1 fails with no injected faults"
        assert rows[1]["valid_faults"] == rows[1]["fault_injection_number"] == ""
        assert rows[0]["error"] == rows[2]["error"] == ""
        assert int(rows[0]["valid_faults"]) == int(rows[2]["valid_faults"]) == 4
        assert sorted(f.name for f in camp.glob("request_*.json")) == ["request_0.json", "request_2.json"]

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


def load_perfbench(monkeypatch, name):
    """``perfbench/<name>.py``, loaded by file path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # ``dataclass`` looks the defining module up in ``sys.modules``
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_command_lines_parse(tmp_path, monkeypatch):
    workloads = load_perfbench(monkeypatch, "workloads")
    parser = build_parser()
    assert workloads.WORKLOADS
    for w in workloads.WORKLOADS.values():
        files = workloads.round_files(tmp_path)
        assert parser.parse_args(workloads.gen_argv(w, 1, files)).command == "gen"
        for argv in workloads.pipeline_argvs(w, files):
            assert parser.parse_args(argv).command == argv[0]


def test_tracer_wraps_names_that_exist_and_restores_them(monkeypatch):
    # the benchmark's tracer wraps package attributes by name: a renamed or
    # deleted one makes ``install`` raise AttributeError
    tracer = load_perfbench(monkeypatch, "tracing").Tracer()
    modules = [cli, campaign, hardening, solver]
    before = [dict(vars(m)) for m in modules]
    try:
        tracer.install()
        wrapped = {(m.__name__, k) for m, old in zip(modules, before)
                   for k, v in vars(m).items() if old.get(k) is not v}
    finally:
        tracer.uninstall()
    assert {("minfault.hardening", "optimize"), ("minfault.campaign", "execute")} <= wrapped
    assert [dict(vars(m)) for m in modules] == before


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


# integer flag values ``int`` reads (as 3, 10, 1 and 2) but the CLI refuses
NOT_DECIMAL = ["٣", "1_0", "+1", " 2"]


class TestIntegerFlags:
    """Every integer a flag holds is ASCII digits with an optional leading ``-``."""

    @pytest.mark.parametrize("value", NOT_DECIMAL)
    @pytest.mark.parametrize("flag", ["--groups", "--edges", "--bones", "--requests", "--seed"])
    def test_gen(self, tmp_path, capsys, flag, value):
        flags = {"--groups": "2", "--edges": "50", "--bones": "2", "--requests": "3", "--seed": "7"}
        flags[flag] = value
        out = tmp_path / "sys.json"
        code, _, err = run(["gen", *chain.from_iterable(flags.items()), "--out", str(out)], capsys)
        assert code == EXIT_USAGE
        assert f"argument {flag}: not a decimal integer: {value!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", NOT_DECIMAL)
    def test_solve(self, tmp_path, capsys, value):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(FIG_CNF)
        code, out, err = run(["solve", "--cnf", str(cnf), "--k", value], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"argument --k: not a decimal integer: {value!r}" in err

    @pytest.mark.parametrize("value", NOT_DECIMAL)
    @pytest.mark.parametrize("flag", ["--request", "--kmax", "--jobs"])
    def test_inject(self, tmp_path, capsys, flag, value):
        system = gen_system(tmp_path, capsys)
        flags = {"--request": "0", "--kmax": "2", "--jobs": "1"}
        flags[flag] = value
        camp = tmp_path / "camp"
        code, _, err = run(["inject", "--system", str(system), *chain.from_iterable(flags.items()),
                            "--out-dir", str(camp)], capsys)
        assert code == EXIT_USAGE
        assert f"argument {flag}: not a decimal integer: {value!r}" in err
        assert not camp.exists()

    @pytest.mark.parametrize("flag, value", [
        *(("--budgets", v) for v in [*NOT_DECIMAL, "٨, 1_6", "8,1_6", "2,+4", "8,,16", "8,16,", ",8", ""]),
        *(("--high", v) for v in [*NOT_DECIMAL, "0,+1", "auto-topfreq:+1", "auto-topfreq:٣",
                                  "auto-topfreq: 1", "", ",", "0,", ",0", "0,,1"]),
    ])
    def test_harden(self, tmp_path, campaign_docs, capsys, flag, value):
        system, docs = campaign_docs
        write_campaign(tmp_path / "camp", docs)
        flags = {"--high": "auto-topfreq:1", "--budgets": "1,64"}
        flags[flag] = value
        out = tmp_path / "plan.json"
        code, _, err = run(["harden", "--system", str(system), "--campaign-dir", str(tmp_path / "camp"),
                            *chain.from_iterable(flags.items()), "--out", str(out)], capsys)
        assert code == EXIT_USAGE
        assert f"bad {flag} value {value!r}" in err
        assert not out.exists()

    def test_auto_topfreq_zero_names_no_high_request(self, tmp_path, campaign_docs, capsys):
        system, docs = campaign_docs
        write_campaign(tmp_path / "camp", docs)
        out = tmp_path / "plan.json"
        code, _, err = run(["harden", "--system", str(system), "--campaign-dir", str(tmp_path / "camp"),
                            "--high", "auto-topfreq:0", "--budgets", "1,64", "--out", str(out)], capsys)
        assert code == EXIT_OK, err
        assert json.loads(out.read_text())["high_priority"] == []

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--k", "-1"], "--k must be >= 0"),
        (["harden", "--high", "auto-topfreq:-1"], "auto-topfreq count must be >= 0"),
    ])
    def test_minus_reaches_the_range_check(self, tmp_path, campaign_docs, capsys, argv, message):
        system, docs = campaign_docs
        cnf = tmp_path / "f.cnf"
        cnf.write_text(FIG_CNF)
        write_campaign(tmp_path / "camp", docs)
        rest = {
            "solve": ["--cnf", str(cnf)],
            "harden": ["--system", str(system), "--campaign-dir", str(tmp_path / "camp"),
                       "--budgets", "1,64", "--out", str(tmp_path / "plan.json")],
        }[argv[0]]
        code, _, err = run([*argv, *rest], capsys)
        assert code == EXIT_USAGE
        assert message in err


# ``--share`` values the CLI refuses; ``float`` reads all but the last two
NOT_DECIMAL_FRACTION = ["٠.٣", " 0.3", "0.3 ", "1_0", "1e-1", "nan", "inf", "+0.3", "1.", ".5", "-.5",
                        "0.-3", "0.3.1"]


class TestShareFlag:
    """``--share`` is ASCII digits after an optional ``-``, then optionally ``.`` and digits."""

    def gen(self, tmp_path, capsys, share):
        out = tmp_path / "sys.json"
        code, _, err = run(["gen", "--groups", "2", "--edges", "20", "--bones", "2", "--requests", "3",
                            "--share", share, "--seed", "1", "--out", str(out)], capsys)
        return code, err, out

    @pytest.mark.parametrize("value", NOT_DECIMAL_FRACTION)
    def test_not_a_decimal_number(self, tmp_path, capsys, value):
        code, err, out = self.gen(tmp_path, capsys, value)
        assert code == EXIT_USAGE
        assert f"argument --share: not a decimal number: {value!r}" in err
        assert not out.exists()

    def test_minus_reaches_the_range_check(self, tmp_path, capsys):
        code, err, out = self.gen(tmp_path, capsys, "-0.5")
        assert code == EXIT_USAGE
        assert "shared_api_fraction must be in [0, 1], got -0.5" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0.3", "0.30", "00.3", "0", "1", "1.0", "0.25"])
    def test_reads_as_float(self, tmp_path, capsys, value):
        code, err, out = self.gen(tmp_path, capsys, value)
        assert code == EXIT_OK, err
        params = GenParams(group_num=2, edge_num=20, bone_num=2, n_requests=3,
                           shared_api_fraction=float(value), seed=1)
        assert out.read_bytes() == system_to_json(generate_system(params)).encode()
        manifest = json.loads((tmp_path / "sys.json.manifest.json").read_text())
        assert manifest["params"]["share"] == float(value)


def test_no_flag_reads_with_int_or_float():
    # ``int`` and ``float`` read text the integer and fraction rules refuse
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    checked = 0
    for name, sub in commands.choices.items():
        for action in sub._actions:
            assert action.type not in (int, float), f"{name} {action.option_strings}"
            checked += action.type is not None
    assert set(commands.choices) == {"gen", "solve", "inject", "harden"}
    assert checked >= 10


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

    def test_no_campaign_files(self, tmp_path, campaign_docs, capsys):
        system, _ = campaign_docs
        camp = tmp_path / "camp"
        camp.mkdir()
        (camp / "summary.csv").write_text("request_id\n")
        out = tmp_path / "p.json"
        code, _, err = run(harden_argv(system, camp, out), capsys)
        assert code == EXIT_INPUT
        assert f"no request_*.json files in {camp}" in err
        assert not out.exists()

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
        assert "request_1.json: request_id must be an integer" in err
        assert sorted(os.listdir(tmp_path)) == ["camp"]

    @pytest.mark.parametrize("fault, message", [
        ([[1], 2], "variable id [1] is not an integer"), ([True], "variable id True is not an integer"),
        ([1, "2"], "variable id '2' is not an integer"), ([1.0], "variable id 1.0 is not an integer"),
    ], ids=["list", "true", "string", "float"])
    def test_fault_variable_not_an_integer(self, tmp_path, campaign_docs, capsys, fault, message):
        system, docs = campaign_docs
        doc = json.loads(json.dumps(docs["request_2.json"]))
        doc["valid_faults"][-1]["vars"] = fault
        write_campaign(tmp_path / "camp", dict(docs, **{"request_2.json": doc}))
        code, _, err = run(harden_argv(system, tmp_path / "camp", tmp_path / "p.json"), capsys)
        assert code == EXIT_INPUT
        assert f"request_2.json: malformed campaign result ({message})" in err
        assert sorted(os.listdir(tmp_path)) == ["camp"]

    @pytest.mark.parametrize("fault", ["empty", "negative", "n_vars"])
    def test_fault_outside_universe(self, tmp_path, campaign_docs, capsys, fault):
        system, docs = campaign_docs
        n_vars = load_system(system).n_vars
        doc = json.loads(json.dumps(docs["request_2.json"]))
        doc["valid_faults"][-1]["vars"] = {"empty": [], "negative": [-1], "n_vars": [n_vars]}[fault]
        write_campaign(tmp_path / "camp", dict(docs, **{"request_2.json": doc}))
        code, _, err = run(harden_argv(system, tmp_path / "camp", tmp_path / "p.json"), capsys)
        assert code == EXIT_INPUT
        message = {"empty": "empty path is not allowed", "negative": "negative variable id -1",
                   "n_vars": f"variable id {n_vars} out of range for universe of {n_vars}"}[fault]
        assert f"request_2.json: malformed campaign result ({message})" in err
        assert sorted(os.listdir(tmp_path)) == ["camp"]

    def test_duplicate_request_id(self, tmp_path, campaign_docs, capsys):
        system, docs = campaign_docs
        write_campaign(tmp_path / "camp", dict(docs, **{"request_9.json": docs["request_0.json"]}))
        code, _, err = run(harden_argv(system, tmp_path / "camp", tmp_path / "p.json"), capsys)
        assert code == EXIT_INPUT
        assert "request_9.json: a second campaign result for request 0, after " in err
        assert err.rstrip().endswith("request_0.json")

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
        assert "request_7.json: the system has no request with id 7" in err
        assert sorted(os.listdir(tmp_path)) == ["camp"]

    def test_not_utf8(self, tmp_path, campaign_docs, capsys):
        system, docs = campaign_docs
        write_campaign(tmp_path / "camp", docs)
        path = tmp_path / "camp" / "request_1.json"
        raw = path.read_bytes()
        path.write_bytes(raw[:60] + b"\xff" + raw[61:])
        code, _, err = run(harden_argv(system, tmp_path / "camp", tmp_path / "p.json"), capsys)
        assert code == EXIT_INPUT
        assert "request_1.json: malformed campaign result ('utf-8' codec can't decode" in err
        assert sorted(os.listdir(tmp_path)) == ["camp"]

    @pytest.mark.parametrize("malformed", [False, True], ids=["valid", "malformed"])
    def test_collector_left_as_found(self, tmp_path, campaign_docs, capsys, monkeypatch,
                                     malformed):
        # the read pauses the cyclic collector while it decodes each file
        # (campaign files are decoded from bytes, the system file from text)
        system, docs = campaign_docs
        write_campaign(tmp_path / "camp", docs)
        if malformed:
            (tmp_path / "camp" / "request_1.json").write_text("{")
        paused = []
        decode = json.loads

        def spy(doc, *args, **kwargs):
            if isinstance(doc, bytes):
                paused.append(not gc.isenabled())
            return decode(doc, *args, **kwargs)

        monkeypatch.setattr(json, "loads", spy)
        want = EXIT_INPUT if malformed else EXIT_OK
        assert run(harden_argv(system, tmp_path / "camp", tmp_path / "p.json"), capsys)[0] == want
        assert paused == [True] * (2 if malformed else 3)
        assert gc.isenabled()
        gc.disable()
        try:
            assert run(harden_argv(system, tmp_path / "camp", tmp_path / "q.json"), capsys)[0] == want
            assert not gc.isenabled()
        finally:
            gc.enable()

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
    def test_corrupted_documents(self, campaign_docs, data):
        # one file is mutated: a JSON value replaced or deleted, or its bytes
        # truncated or overwritten
        system, docs = campaign_docs
        docs = json.loads(json.dumps(docs))
        name = data.draw(st.sampled_from(sorted(docs)))
        in_bytes = data.draw(st.booleans())
        if not in_bytes:
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
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp)
            write_campaign(base / "camp", docs)
            if in_bytes:
                path = base / "camp" / name
                raw = path.read_bytes()
                at = data.draw(st.integers(min_value=0, max_value=len(raw)))
                tail = b"" if data.draw(st.booleans()) else raw[at + 1:]
                path.write_bytes(raw[:at] + data.draw(st.binary(max_size=3)) + tail)
            err = StringIO()
            with redirect_stderr(err):
                code = main(harden_argv(system, base / "camp", base / "p.json"))
            assert code in (EXIT_OK, EXIT_INPUT)
            if code == EXIT_INPUT:
                assert name in err.getvalue()
                assert sorted(os.listdir(base)) == ["camp"]
        assert gc.isenabled()


    @given(data=st.data())
    @settings(max_examples=80)
    def test_faults_refused_as_make_cnf_refuses_them(self, campaign_docs, data):
        # one fault's vars are replaced; the file is an input error exactly
        # when ``make_cnf`` refuses its decoded fault list
        system, docs = campaign_docs
        n_vars = load_system(system).n_vars
        docs = json.loads(json.dumps(docs))
        name = data.draw(st.sampled_from(sorted(docs)))
        faults = docs[name]["valid_faults"]
        fault = faults[data.draw(st.integers(min_value=0, max_value=len(faults) - 1))]
        fault["vars"] = data.draw(json_values | st.lists(st.integers(min_value=-1, max_value=n_vars),
                                                         max_size=3))
        try:
            make_cnf([entry["vars"] for entry in faults], n_vars)
            refused = False
        except (ValueError, TypeError):
            refused = True
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp)
            write_campaign(base / "camp", docs)
            err = StringIO()
            with redirect_stderr(err):
                code = main(harden_argv(system, base / "camp", base / "p.json"))
            assert (code == EXIT_INPUT) == refused, err.getvalue()
            if refused:
                assert f"{name}: malformed campaign result (" in err.getvalue()
                assert sorted(os.listdir(base)) == ["camp"]

@pytest.mark.parametrize("command", ["inject", "harden"])
def test_system_file_read_once(tmp_path, campaign_docs, capsys, monkeypatch, command):
    # the manifest's digest and the system the command runs on come from
    # one read, so a file replaced between two reads cannot split them
    system, docs = campaign_docs
    camp = tmp_path / "camp"
    if command == "inject":
        argv = ["inject", "--system", str(system), "--all", "--kmax", "2", "--out-dir", str(camp)]
        manifest = camp / "summary.csv.manifest.json"
    else:
        write_campaign(camp, docs)
        argv = harden_argv(system, camp, tmp_path / "plan.json")
        manifest = tmp_path / "plan.json.manifest.json"
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == str(system):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    # ``Path.open`` calls ``io.open``
    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    code, _, err = run(argv, capsys)
    monkeypatch.undo()
    assert code == EXIT_OK, err
    assert len(opened) == 1
    digest = hashlib.sha256(system.read_bytes()).hexdigest()
    assert json.loads(manifest.read_text())["inputs"][str(system)] == digest


def strip_timings(doc):
    if isinstance(doc, dict):
        return {k: strip_timings(v) for k, v in doc.items() if k != "timings_ms"}
    if isinstance(doc, list):
        return [strip_timings(v) for v in doc]
    return doc


@pytest.fixture(scope="module")
def fleet_campaigns(tmp_path_factory):
    """The fleet system file (seed 1) and its ``inject --all --kmax 3`` directory."""
    base = tmp_path_factory.mktemp("fleet")
    system, camp = base / "sys.json", base / "camp"
    argvs = [
        ["gen", "--groups", "2", "--edges", "40", "--bones", "3", "--requests", "8",
         "--share", "0.3", "--seed", "1", "--out", str(system)],
        ["inject", "--system", str(system), "--all", "--kmax", "3", "--out-dir", str(camp)],
    ]
    for argv in argvs:
        with redirect_stderr(StringIO()):
            assert main(argv) == EXIT_OK
    return system, camp


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

    @pytest.mark.parametrize(
        "high, plan_json, plan_csv",
        [
            ("auto-topfreq:1",
             "21a6617f0c5abd4f636654d230643a66923385e96519744ec0f3a041515ca4c4",
             "03054e37792622dd9372af496f5618e89f90b77c0269ab4077af8d09d7767dd6"),
            ("0,3",
             "37c19375e48720a0949da0a0d82cf4eab0f3c14fc88d7de99f6b7a7b41b78930",
             "2d712a2a5149139dbe1e336a2ca039ef4fdfe082f66e078c0c4a22282d1664c9"),
        ],
        ids=["topfreq", "two-high"],
    )
    def test_fleet_plan_golden_bytes(self, fleet_campaigns, capsys, high, plan_json, plan_csv):
        # the benchmark's fleet system at seed 1, run ids included
        system, camp = fleet_campaigns
        out = camp.parent / f"plan-{high.replace(':', '-').replace(',', '-')}.json"
        code, _, err = run(
            ["harden", "--system", str(system), "--campaign-dir", str(camp),
             "--high", high, "--budgets", "8,16,32,64", "--out", str(out)],
            capsys,
        )
        assert code == EXIT_OK, err
        assert hashlib.sha256(out.read_bytes()).hexdigest() == plan_json
        assert hashlib.sha256(out.with_suffix(".csv").read_bytes()).hexdigest() == plan_csv

    @pytest.mark.parametrize("method", ["exact", "greedy"])
    def test_fault_order_leaves_plan_alone(self, tmp_path, campaign_docs, capsys, method):
        # a campaign file lists its faults in the solver's search order;
        # neither the plan nor its run id may depend on that order
        system, docs = campaign_docs
        flipped = {name: dict(doc, valid_faults=doc["valid_faults"][::-1]) for name, doc in docs.items()}
        assert flipped != docs
        plans = []
        for name, campaign in (("found", docs), ("flipped", flipped)):
            write_campaign(tmp_path / name, campaign)
            out = tmp_path / f"{name}.json"
            code, _, err = run(harden_argv(system, tmp_path / name, out) + ["--method", method], capsys)
            assert code == EXIT_OK, err
            plans.append((out.read_bytes(), out.with_suffix(".csv").read_bytes()))
        assert plans[0] == plans[1]


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
    """The campaign file's pieces join to ``json.dumps``'s text, and no
    piece passes ``_CHUNK_CHARS`` unless it holds one fault entry."""
    fragments = fragments or _fault_fragments(symbol_table)
    pieces = list(_dump_campaign(result, mode, run_id, fragments))
    got = "".join(pieces)
    doc = campaign_doc(result, symbol_table, mode, run_id)
    assert got == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    for piece in pieces:
        assert len(piece) <= cli._CHUNK_CHARS or piece.count('"symbols"') == 1
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

    # a 2-variable entry here is at most 225 characters, and 2 more with its
    # separator, so a bound of 500 holds batches of two of them
    @pytest.mark.parametrize("bound", [cli._CHUNK_CHARS, 500], ids=["default-batch", "batch-of-2"])
    @pytest.mark.parametrize("shape", ["alternating", "long-run"])
    def test_runs_and_batches(self, result, monkeypatch, bound, shape):
        monkeypatch.setattr(cli, "_CHUNK_CHARS", bound)
        table = {v: ("svc", f"/api{v}", v % 3) for v in range(40)}
        batch = bound // 227
        if shape == "alternating":
            lengths = [1, 3, 2, 3, 1, 1, 2, 2, 2, 3, 1]
        else:  # a run longer than two batches, between two short ones
            lengths = [1] + [2] * (2 * batch + 3) + [3]
        faults = tuple(tuple(range(i % 30, i % 30 + n)) for i, n in enumerate(lengths))
        result = dataclasses.replace(result, valid_faults=faults)
        assert_same_text(result, table)
        pieces = list(_dump_campaign(result, "dynamic", "0123456789ab", _fault_fragments(table)))
        sizes = [piece.count('"symbols"') for piece in pieces]
        if shape == "long-run":  # each batch of the long run as full as the bound lets it be
            run = len(lengths) - 2
            assert sizes[2:-2] == [batch] * (run // batch) + [run % batch] * (run % batch > 0)
        assert max(sizes) <= batch

    def test_six_variable_faults(self):
        # (3,12,2) at k_max=6: 2,744 faults, whose batches of 128 made
        # pieces of up to 74,624 characters
        system = generate_system(GenParams(group_num=3, edge_num=12, bone_num=2, n_requests=1, seed=1))
        result = run_campaign(system, CampaignConfig(request_id=0, k_max=6))
        assert max(map(len, result.valid_faults)) == 6
        assert_same_text(result, system.symbol_table)

    def test_fleet_pieces_stay_under_the_chunk_bound(self):
        # the fleet's entries are short, so every batch, and every piece, fits the bound
        system = generate_system(GenParams(group_num=2, edge_num=40, bone_num=3, n_requests=8,
                                           shared_api_fraction=0.3, seed=1))
        fragments = _fault_fragments(system.symbol_table)
        longest = 0
        for req in system.requests:
            result = run_campaign(system, CampaignConfig(request_id=req.request_id, k_max=3))
            pieces = _dump_campaign(result, "dynamic", "0123456789ab", fragments)
            longest = max(longest, *map(len, pieces))
        assert longest < cli._CHUNK_CHARS

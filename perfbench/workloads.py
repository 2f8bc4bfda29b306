"""The benchmark's workloads: inputs to generate and CLI commands to time.

Every workload drives the public command line (``minfault.cli.main``)
with ``--jobs 1``.  Set-up generates the system file (and, for
``solve-bulk``, exports request 0's formula); the pipeline is the timed
part.  Only the generator seed depends on ``--seed``: the unshared
systems have the same structure for every seed, and in ``fleet-harden``
the seed only moves which APIs the requests share, so every seed asks
for the same amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# hardening always protects the most frequent request
HIGH = "auto-topfreq:1"


@dataclass(frozen=True)
class Workload:
    name: str
    groups: int
    edges: int
    bones: int
    requests: int
    share: float
    kmax: int
    budgets: tuple[int, ...] = ()  # non-empty: run ``harden`` after ``inject``
    solve_k: int | None = None  # set: export request 0's formula, run ``solve``


WORKLOADS = {
    w.name: w
    for w in (
        # solver output and the campaign's handling of it dominate
        Workload("campaign-deep", groups=3, edges=200, bones=4, requests=1,
                 share=0.0, kmax=3),
        # many cheap campaigns, large result files and the hardening sweep
        Workload("fleet-harden", groups=2, edges=40, bones=3, requests=8,
                 share=0.3, kmax=3, budgets=(8, 16, 32, 64)),
        # a shallow solve with many solutions; the small campaign on the
        # same request gives the workload its injection count
        Workload("solve-bulk", groups=2, edges=50, bones=2, requests=1,
                 share=0.0, kmax=2, solve_k=4),
    )
}


def round_files(d: Path) -> dict[str, Path]:
    """Inputs and outputs of one round inside directory ``d``."""
    return {
        "sys": d / "system.json",
        "camp": d / "campaign",
        "plan": d / "plan.json",
        "cnf": d / "request.cnf",
        "sols": d / "solutions.txt",
    }


def gen_argv(w: Workload, seed: int, files: dict[str, Path]) -> list[str]:
    return ["gen", "--groups", str(w.groups), "--edges", str(w.edges),
            "--bones", str(w.bones), "--requests", str(w.requests),
            "--share", str(w.share), "--seed", str(seed), "--out", str(files["sys"])]


def pipeline_argvs(w: Workload, files: dict[str, Path]) -> list[list[str]]:
    """The timed CLI commands, in order."""
    f = {k: str(v) for k, v in files.items()}
    target = ["--request", "0"] if w.requests == 1 else ["--all"]
    cmds = [["inject", "--system", f["sys"], *target, "--kmax", str(w.kmax),
             "--jobs", "1", "--out-dir", f["camp"]]]
    if w.budgets:
        cmds.append(["harden", "--system", f["sys"], "--campaign-dir", f["camp"],
                     "--high", HIGH, "--budgets", ",".join(map(str, w.budgets)),
                     "--out", f["plan"]])
    if w.solve_k is not None:
        cmds.append(["solve", "--cnf", f["cnf"], "--k", str(w.solve_k), "--out", f["sols"]])
    return cmds

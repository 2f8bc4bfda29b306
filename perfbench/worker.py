"""One round of a workload, in a fresh process.

    python3 perfbench/worker.py <workload> <seed> <round dir> <trace 0|1>

Set-up (``gen``, plus the formula export of ``solve-bulk``) runs
``SETUP_REPS`` times, each timed; then the pipeline's CLI commands run
once, each timed.  The last line of standard output is one JSON object
with those times, the exit codes, the process's peak RSS, the bytes the
pipeline wrote and, when traced, the per-layer metrics.  Spans of a
traced round are written to ``spans.jsonl`` in the round directory
after everything is measured.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import minfault  # noqa: E402
import minfault.cli as cli  # noqa: E402
from minfault import load_system, make_cnf, serialize_cnf  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, gen_argv, pipeline_argvs, round_files  # noqa: E402

SETUP_REPS = 5  # set-up is a few milliseconds, so each round repeats it


def main(argv: list[str]) -> int:
    name, seed, round_dir, traced = argv
    if Path(minfault.__file__).resolve().parent != SRC / "minfault":
        print(f"minfault was imported from {minfault.__file__}, not {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[name]
    files = round_files(Path(round_dir))
    tracer = Tracer() if traced == "1" else None
    if tracer is not None:
        tracer.install()

    def command(args: list[str]) -> tuple[int, float]:
        fn = cli.main if tracer is None else tracer.wrap(f"cli.{args[0]}", cli.main)
        t0 = time.perf_counter()
        rc = fn(args)
        return rc, time.perf_counter() - t0

    setup_s, codes = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        rc, _ = command(gen_argv(w, int(seed), files))
        if w.solve_k is not None and rc == 0:
            system = load_system(files["sys"])
            cnf = make_cnf(system.request(0).paths, system.n_vars)
            files["cnf"].write_text(serialize_cnf(cnf), encoding="utf-8")
        setup_s.append(time.perf_counter() - t0)
        codes.append(["gen", rc, setup_s[-1]])

    setup_outputs = {p.resolve() for p in Path(round_dir).iterdir()}
    pipeline_s = 0.0
    for args in pipeline_argvs(w, files):
        rc, s = command(args)
        pipeline_s += s
        codes.append([args[0], rc, s])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"setup_s": setup_s, "pipeline_s": pipeline_s, "codes": codes,
              "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        tracer.uninstall()
        output_bytes = sum(p.stat().st_size for p in Path(round_dir).rglob("*")
                           if p.is_file() and p.resolve() not in setup_outputs)
        result["layers"] = dict(tracer.layer_metrics(), **{"cli.output_bytes": output_bytes})
        tracer.write(Path(round_dir) / "spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

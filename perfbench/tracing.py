"""Spans around calls into minfault's layers, recorded from outside the package.

``Tracer.install`` replaces the module attributes through which one
layer calls the next (``minfault.cli.run_campaign``,
``minfault.campaign.execute``, ...) with timing wrappers, so the program
itself is unchanged.  Each call becomes a span (name, start, end,
parent); spans stay in memory until ``write`` puts them in a JSONL file.
``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

# span names that stand for the caller of a solver call
_SOLVER_CALLERS = {"campaign.run": "campaign", "hardening.sweep": "hardening", "cli.solve": "cli"}
_COUNTERS = ("expansions", "pushes", "leaf_hits", "duplicate_leaves", "nonminimal_leaves")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.solver_calls: list[tuple[int, object, int]] = []  # (span, counters, solutions)
        self.campaign_injections = 0
        self.levels_exact = 0
        self.levels_approx = 0

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def _patch(self, module, attr: str, name: str, fn=None) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, fn or original))

    def install(self) -> None:
        """Wrap every layer boundary the CLI commands cross."""
        import minfault.campaign as campaign
        import minfault.cli as cli
        import minfault.hardening as hardening
        import minfault.solver as solver

        run_campaign = cli.run_campaign
        budget_sweep = cli.budget_sweep
        with_counters = solver.enumerate_minimal_with_counters

        def counted_campaign(*args, **kwargs):
            result = run_campaign(*args, **kwargs)
            self.campaign_injections += result.injections
            return result

        def counted_sweep(*args, **kwargs):
            sweep = budget_sweep(*args, **kwargs)
            for lv in sweep.levels:
                if lv.feasible:
                    if lv.plan.exact:
                        self.levels_exact += 1
                    else:
                        self.levels_approx += 1
            return sweep

        def counted_solver(cnf, config):
            # same search as enumerate_minimal, which discards the counters
            sols, counters = with_counters(cnf, config)
            self.solver_calls.append((self._stack[-1], counters, len(sols)))
            return sols

        self._patch(cli, "generate_system", "simulation.generate")
        self._patch(cli, "load_system", "simulation.load")
        self._patch(cli, "parse_cnf", "cnf.parse")
        self._patch(cli, "run_campaign", "campaign.run", counted_campaign)
        self._patch(cli, "budget_sweep", "hardening.sweep", counted_sweep)
        self._patch(campaign, "is_subsumed", "campaign.is_subsumed")
        self._patch(campaign, "conjoin", "cnf.conjoin")
        self._patch(hardening, "optimize", "hardening.optimize")
        for module in (campaign, hardening):
            self._patch(module, "execute", "simulation.execute")
        # ``cmd_solve`` imports enumerate_minimal from the solver module on each call
        for module in (campaign, hardening, solver):
            self._patch(module, "enumerate_minimal", "solver.enumerate", counted_solver)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _caller(self, idx: int) -> str:
        while idx >= 0:
            name, _, _, parent = self.spans[idx]
            if name in _SOLVER_CALLERS:
                return _SOLVER_CALLERS[name]
            idx = parent
        return "cli"

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far (times in ms)."""
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        durations: dict[str, list[float]] = defaultdict(list)
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            ms = (end - start) * 1e3
            total[name] += ms
            calls[name] += 1
            durations[name].append(ms)
            if parent >= 0:
                child_ms[parent] += ms
        self_ms: dict[str, float] = defaultdict(float)
        for (name, start, end, _), kids in zip(self.spans, child_ms):
            self_ms[name] += (end - start) * 1e3 - kids
        reinject = [(end - start) * 1e3 for name, start, end, parent in self.spans
                    if name == "simulation.execute" and self._caller(parent) == "hardening"]

        def mean(name):
            return statistics.fmean(durations[name]) if durations[name] else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        m: dict[str, float] = {}
        m["cli.gen_ms"] = mean("cli.gen")
        for cmd in ("inject", "harden", "solve"):
            m[f"cli.{cmd}_ms"] = total[f"cli.{cmd}"]
            m[f"cli.{cmd}_self_ms"] = self_ms[f"cli.{cmd}"]

        solver: dict[str, dict[str, float]] = {c: defaultdict(int) for c in _SOLVER_CALLERS.values()}
        for idx, counters, n_sols in self.solver_calls:
            s = solver[self._caller(idx)]
            s["calls"] += 1
            name, start, end, _ = self.spans[idx]
            s["ms"] += (end - start) * 1e3
            s["solutions"] += n_sols
            for c in _COUNTERS:
                s[c] += getattr(counters, c)
        every = {key: sum(s[key] for s in solver.values())
                 for key in ("calls", "ms", "solutions", *_COUNTERS)}

        m["campaign.runs"] = calls["campaign.run"]
        m["campaign.ms"] = total["campaign.run"]
        m["campaign.solver_calls"] = solver["campaign"]["calls"]
        m["campaign.candidates"] = solver["campaign"]["solutions"]
        m["campaign.injections"] = self.campaign_injections
        m["campaign.useful_ratio"] = ratio(self.campaign_injections, solver["campaign"]["solutions"])
        m["campaign.subsumed_calls"] = calls["campaign.is_subsumed"]
        m["campaign.subsumed_ms"] = total["campaign.is_subsumed"]
        m["campaign.self_ms"] = self_ms["campaign.run"]

        m["solver.calls"] = every["calls"]
        m["solver.ms"] = every["ms"]
        m["solver.ms_per_call"] = ratio(every["ms"], every["calls"])
        for c in _COUNTERS:
            m[f"solver.{c}"] = every[c]
        m["solver.solutions"] = every["solutions"]
        m["solver.solution_ratio"] = ratio(every["solutions"], every["leaf_hits"])
        for caller in solver:
            for key in ("calls", "ms", "expansions", "solutions"):
                m[f"solver.{caller}.{key}"] = solver[caller][key]

        m["simulation.generate_ms"] = mean("simulation.generate")
        m["simulation.load_ms"] = total["simulation.load"]
        m["simulation.execute_calls"] = calls["simulation.execute"]
        m["simulation.execute_ms"] = total["simulation.execute"]
        m["simulation.execute_us_per_call"] = ratio(total["simulation.execute"] * 1e3,
                                                    calls["simulation.execute"])

        m["cnf.parse_ms"] = total["cnf.parse"]
        m["cnf.conjoin_calls"] = calls["cnf.conjoin"]
        m["cnf.conjoin_ms"] = total["cnf.conjoin"]

        m["hardening.sweep_ms"] = total["hardening.sweep"]
        m["hardening.optimize_calls"] = calls["hardening.optimize"]
        m["hardening.optimize_ms_per_level"] = ratio(total["hardening.optimize"],
                                                     calls["hardening.optimize"])
        m["hardening.levels_exact"] = self.levels_exact
        m["hardening.levels_approx"] = self.levels_approx
        m["hardening.reinject_calls"] = len(reinject)
        m["hardening.reinject_ms"] = sum(reinject)
        m["hardening.cover_solutions"] = solver["hardening"]["solutions"]
        m["trace.spans"] = len(self.spans)
        return m

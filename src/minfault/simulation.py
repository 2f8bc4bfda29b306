"""Simulated microservice systems with grouped alternative execution paths.

Each request owns ``group_num`` failover groups; a group holds a fast
path (cache-hit style) and a full path (cache-miss style) that share
``bone_num`` skeleton variables.  The two paths split ``edge_num`` call
edges 3:7.  The generated system stands in for a live cluster: the
campaign probes it only through :func:`execute`.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from collections.abc import Iterable, Set as AbstractSet
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParameterError, SchemaError, UnknownRequestError, VariableRangeError

# largest per-request share of remapped variables the shared pool must absorb
_POOL_MAX = 64

_FORMAT_TAG = "minfault-system-v1"


@dataclass(frozen=True)
class GenParams:
    group_num: int
    edge_num: int
    bone_num: int
    n_requests: int
    shared_api_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.group_num < 1:
            raise ParameterError(f"group_num must be >= 1, got {self.group_num}")
        if self.edge_num < 4:
            raise ParameterError(f"edge_num must be >= 4, got {self.edge_num}")
        if self.bone_num < 0:
            raise ParameterError(f"bone_num must be >= 0, got {self.bone_num}")
        limit = (3 * self.edge_num) // 10
        if self.bone_num > limit:
            raise ParameterError(
                f"bone_num {self.bone_num} exceeds 0.3*edge_num = {limit}"
                " (skeleton must fit inside the shorter path)"
            )
        if self.n_requests < 1:
            raise ParameterError(f"n_requests must be >= 1, got {self.n_requests}")
        if not 0.0 <= self.shared_api_fraction <= 1.0:
            raise ParameterError(
                f"shared_api_fraction must be in [0, 1], got {self.shared_api_fraction}"
            )

    @property
    def fast_len(self) -> int:
        """Variables on the fast path, skeleton included (3:7 split, half-up)."""
        return (3 * self.edge_num + 5) // 10

    @property
    def full_len(self) -> int:
        return self.edge_num - self.fast_len


@dataclass(frozen=True)
class RequestSpec:
    """Paths in failover priority order; index i belongs to group_of_path[i]."""

    request_id: int
    paths: tuple[frozenset[int], ...]
    group_of_path: tuple[int, ...]


@dataclass(frozen=True)
class ExecutionOutcome:
    failed: bool
    observed_path: frozenset[int] | None


@dataclass(frozen=True)
class SimulatedSystem:
    requests: tuple[RequestSpec, ...]
    n_vars: int
    symbol_table: tuple[tuple[str, str, int], ...]
    request_frequency: tuple[tuple[int, int], ...]
    # derived index for ``request``; not part of the value
    _by_id: dict[int, RequestSpec] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_id: dict[int, RequestSpec] = {}
        for req in self.requests:
            by_id.setdefault(req.request_id, req)
        object.__setattr__(self, "_by_id", by_id)

    def request(self, request_id: int) -> RequestSpec:
        try:
            return self._by_id[request_id]
        except KeyError:
            raise UnknownRequestError(f"no request with id {request_id}") from None

    def frequency(self, request_id: int) -> int:
        for rid, weight in self.request_frequency:
            if rid == request_id:
                return weight
        raise UnknownRequestError(f"no request with id {request_id}")


def expected_clause_overlap(group_num: int, edge_num: int, bone_num: int) -> float:
    """Closed-form per-request overlap statistic for an unshared system.

    Only skeleton variables appear in two clauses (one pair per bone per
    group), and mean clause length is edge_num/2, which collapses the
    overlap statistic to 2*B / ((2*G - 1) * E).
    """
    return 2.0 * bone_num / ((2 * group_num - 1) * edge_num)


def _zipf_cumweights(n: int) -> list[float]:
    acc, out = 0.0, []
    for i in range(n):
        acc += 1.0 / (i + 1)
        out.append(acc)
    return out


def generate_system(params: GenParams) -> SimulatedSystem:
    """Deterministic function of ``params`` (including the seed)."""
    rng = random.Random(params.seed)
    g, e, b = params.group_num, params.edge_num, params.bone_num
    fast_excl = params.fast_len - b
    full_excl = params.full_len - b

    # provisional keys: ("req", r, local_index) or ("pool", slot)
    raw_paths: list[list[list[tuple]]] = []
    roles: dict[tuple, tuple[str, str, int]] = {}
    non_skeleton: list[list[tuple]] = []
    for r in range(params.n_requests):
        req_paths: list[list[tuple]] = []
        req_non_skel: list[tuple] = []
        local = 0
        for gi in range(g):
            bones, fasts, fulls = [], [], []
            for i in range(b):
                key = ("req", r, local)
                local += 1
                roles[key] = (f"svc-r{r}g{gi}", f"/bone{i}", 0)
                bones.append(key)
            for i in range(fast_excl):
                key = ("req", r, local)
                local += 1
                roles[key] = (f"svc-r{r}g{gi}", f"/fast{i}", 0)
                fasts.append(key)
            for i in range(full_excl):
                key = ("req", r, local)
                local += 1
                roles[key] = (f"svc-r{r}g{gi}", f"/full{i}", 0)
                fulls.append(key)
            req_paths.append(bones + fasts)
            req_paths.append(bones + fulls)
            req_non_skel.extend(fasts)
            req_non_skel.extend(fulls)
        raw_paths.append(req_paths)
        non_skeleton.append(req_non_skel)

    remap: dict[tuple, tuple] = {}
    if params.shared_api_fraction > 0.0:
        per_request = [
            round(params.shared_api_fraction * len(ns)) for ns in non_skeleton
        ]
        total = sum(per_request)
        pool_size = max(1, max(per_request, default=1), min(_POOL_MAX, total))
        cum = _zipf_cumweights(pool_size)
        for r, ns in enumerate(non_skeleton):
            count = min(per_request[r], pool_size)
            if count == 0:
                continue
            victims = rng.sample(ns, count)
            taken: set[int] = set()
            for key in victims:
                # rejection keeps the remap injective inside one request
                while True:
                    slot = bisect_right(cum, rng.random() * cum[-1])
                    if slot not in taken:
                        break
                taken.add(slot)
                pool_key = ("pool", slot)
                roles.setdefault(pool_key, ("svc-shared", f"/shared{slot}", 0))
                remap[(r, key)] = pool_key

    # dense ids in first-use order, shared variables keep one id everywhere
    ids: dict[tuple, int] = {}
    requests: list[RequestSpec] = []
    for r, req_paths in enumerate(raw_paths):
        final_paths = []
        for path in req_paths:
            members = []
            for key in path:
                key = remap.get((r, key), key)
                if key not in ids:
                    ids[key] = len(ids)
                members.append(ids[key])
            final_paths.append(frozenset(members))
        group_of_path = tuple(i // 2 for i in range(2 * g))
        requests.append(
            RequestSpec(request_id=r, paths=tuple(final_paths), group_of_path=group_of_path)
        )

    symbols = [("", "", 0)] * len(ids)
    for key, vid in ids.items():
        symbols[vid] = roles[key]

    ranks = list(range(params.n_requests))
    rng.shuffle(ranks)
    freq = tuple((r, round(1000 / (ranks[r] + 1))) for r in range(params.n_requests))

    return SimulatedSystem(
        requests=tuple(requests),
        n_vars=len(ids),
        symbol_table=tuple(symbols),
        request_frequency=freq,
    )


def execute(
    system: SimulatedSystem,
    request_id: int,
    injected: AbstractSet[int] | Iterable[int],
    *,
    immune: AbstractSet[int] = frozenset(),
    flake_rate: float = 0.0,
    rng: random.Random | None = None,
) -> ExecutionOutcome:
    """Serve the request through the first healthy path in priority order.

    A path is broken when it contains an injected, non-immune variable.
    The request fails only when every path is broken.  ``flake_rate``
    adds Bernoulli noise for robustness experiments and requires ``rng``;
    it stays at 0 everywhere correctness matters.
    """
    req = system.request(request_id)
    effective = set(injected)
    for v in effective:
        if v < 0 or v >= system.n_vars:
            raise VariableRangeError(f"injected variable {v} out of range for universe of {system.n_vars}")
    effective -= set(immune)
    if flake_rate > 0.0 and rng is None:
        raise ParameterError("flake_rate > 0 requires an rng")
    for path in req.paths:
        if path & effective:
            continue
        if flake_rate > 0.0 and rng.random() < flake_rate:
            continue
        return ExecutionOutcome(failed=False, observed_path=path)
    return ExecutionOutcome(failed=True, observed_path=None)


def ground_truth_paths(system: SimulatedSystem, request_id: int) -> list[frozenset[int]]:
    """All paths of a request. Test/verification backdoor: campaign code
    must discover paths through :func:`execute` instead."""
    return list(system.request(request_id).paths)


# --- file format -----------------------------------------------------------


def _require(cond: bool, field: str, message: str):
    if not cond:
        raise SchemaError(f"{field}: {message}")


def system_to_json(system: SimulatedSystem) -> str:
    doc = {
        "format": _FORMAT_TAG,
        "n_vars": system.n_vars,
        "requests": [
            {
                "id": req.request_id,
                "frequency": system.frequency(req.request_id),
                "paths": [sorted(p) for p in req.paths],
                "group_of_path": list(req.group_of_path),
            }
            for req in system.requests
        ],
        "symbol_table": [list(sym) for sym in system.symbol_table],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def system_from_json(text: str) -> SimulatedSystem:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    _require(isinstance(doc, dict), "$", "expected a JSON object")
    allowed = {"format", "n_vars", "requests", "symbol_table"}
    for key in doc:
        _require(key in allowed, key, "unknown field")
    for key in allowed:
        _require(key in doc, key, "missing field")
    _require(doc["format"] == _FORMAT_TAG, "format", f"expected {_FORMAT_TAG!r}")
    n_vars = doc["n_vars"]
    _require(isinstance(n_vars, int) and n_vars >= 0, "n_vars", "expected a non-negative integer")

    sym_raw = doc["symbol_table"]
    _require(isinstance(sym_raw, list), "symbol_table", "expected a list")
    _require(len(sym_raw) == n_vars, "symbol_table", f"expected {n_vars} entries")
    symbols = []
    for i, entry in enumerate(sym_raw):
        field = f"symbol_table[{i}]"
        _require(isinstance(entry, list) and len(entry) == 3, field, "expected [service, api, replica]")
        service, api, replica = entry
        _require(isinstance(service, str), f"{field}.service", "expected a string")
        _require(isinstance(api, str), f"{field}.api", "expected a string")
        _require(isinstance(replica, int), f"{field}.replica", "expected an integer")
        symbols.append((service, api, replica))

    reqs_raw = doc["requests"]
    _require(isinstance(reqs_raw, list) and reqs_raw, "requests", "expected a non-empty list")
    requests, freq, seen_ids = [], [], set()
    for i, entry in enumerate(reqs_raw):
        field = f"requests[{i}]"
        _require(isinstance(entry, dict), field, "expected an object")
        allowed_req = {"id", "frequency", "paths", "group_of_path"}
        for key in entry:
            _require(key in allowed_req, f"{field}.{key}", "unknown field")
        for key in allowed_req:
            _require(key in entry, f"{field}.{key}", "missing field")
        rid = entry["id"]
        _require(isinstance(rid, int) and rid >= 0, f"{field}.id", "expected a non-negative integer")
        _require(rid not in seen_ids, f"{field}.id", "duplicate request id")
        seen_ids.add(rid)
        weight = entry["frequency"]
        _require(isinstance(weight, int) and weight >= 0, f"{field}.frequency", "expected a non-negative integer")
        paths_raw = entry["paths"]
        _require(isinstance(paths_raw, list) and paths_raw, f"{field}.paths", "expected a non-empty list")
        paths = []
        for j, p in enumerate(paths_raw):
            pf = f"{field}.paths[{j}]"
            _require(isinstance(p, list) and p, pf, "expected a non-empty list of variable ids")
            for v in p:
                _require(isinstance(v, int) and 0 <= v < n_vars, pf, f"variable id {v!r} out of range")
            fs = frozenset(p)
            _require(len(fs) == len(p), pf, "duplicate variable in path")
            paths.append(fs)
        gop = entry["group_of_path"]
        _require(isinstance(gop, list), f"{field}.group_of_path", "expected a list")
        _require(len(gop) == len(paths), f"{field}.group_of_path", "length must match paths")
        for gv in gop:
            _require(isinstance(gv, int) and gv >= 0, f"{field}.group_of_path", "expected non-negative integers")
        requests.append(RequestSpec(request_id=rid, paths=tuple(paths), group_of_path=tuple(gop)))
        freq.append((rid, weight))

    return SimulatedSystem(
        requests=tuple(requests),
        n_vars=n_vars,
        symbol_table=tuple(symbols),
        request_frequency=tuple(freq),
    )


def save_system(system: SimulatedSystem, path: str | Path) -> None:
    Path(path).write_text(system_to_json(system), encoding="utf-8")


def load_system(path: str | Path) -> SimulatedSystem:
    return system_from_json(Path(path).read_text(encoding="utf-8"))

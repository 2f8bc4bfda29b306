"""Simulated microservice systems with grouped alternative execution paths.

Each request owns ``group_num`` failover groups; a group holds a fast
path (cache-hit style) and a full path (cache-miss style) that share
``bone_num`` skeleton variables.  The two paths split ``edge_num`` call
edges 3:7.  The generated system stands in for a live cluster: the
campaign probes it only through :func:`execute`.

With ``shared_api_fraction`` F (``gen --share F``), each request remaps
``round(F * n)`` of its ``n = group_num * (edge_num - 2 * bone_num)``
non-skeleton APIs onto ``svc-shared`` pool APIs.  Each remapped API draws
a pool slot with Zipf weights (slot i weighs 1/(i+1)), redrawing slots the
request already holds, so a request uses a slot at most once.  With
``count`` remapped APIs per request the pool holds
``max(1, count, min(_POOL_MAX, count * n_requests))`` slots.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from collections.abc import Iterable, Set as AbstractSet
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

from .errors import ParameterError, SchemaError, UnknownRequestError, VariableRangeError
from .jsontext import dumps

# the pool grows with the remapped APIs of all requests up to this many
# slots, but always holds at least one request's worth
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


# every failed injection returns this one outcome; outcomes are frozen
_FAILED = ExecutionOutcome(failed=True, observed_path=None)


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


def expected_clause_overlap(group_num: int, edge_num: int, bone_num: int) -> float:
    """Closed-form per-request overlap statistic for an unshared system.

    Only skeleton variables appear in two clauses (one pair per bone per
    group), and mean clause length is edge_num/2, which collapses the
    overlap statistic to 2*B / ((2*G - 1) * E).
    """
    return 2.0 * bone_num / ((2 * group_num - 1) * edge_num)


def generate_system(params: GenParams) -> SimulatedSystem:
    """Deterministic function of ``params`` (including the seed)."""
    rng = random.Random(params.seed)
    g, b = params.group_num, params.bone_num
    fast_excl, full_excl = params.fast_len - b, params.full_len - b
    width = fast_excl + full_excl
    # the integer product first: 0.05 * 3 * 30 is 4.500000000000001, not 4.5
    count = round(params.shared_api_fraction * (g * width))
    pool_size = max(1, count, min(_POOL_MAX, count * params.n_requests))
    cum = list(accumulate(1.0 / (i + 1) for i in range(pool_size)))

    # dense ids in first-use order; symbols are unique, so a shared API
    # keeps one id everywhere and the keys, in order, are the symbol table
    ids: dict[tuple[str, str, int], int] = {}
    group_of_path = tuple(i // 2 for i in range(2 * g))
    requests: list[RequestSpec] = []
    for r in range(params.n_requests):
        # the request's non-skeleton APIs, group by group, fast then full
        tails = [
            (f"svc-r{r}g{gi}", f"/{kind}{i}", 0)
            for gi in range(g)
            for kind, n in (("fast", fast_excl), ("full", full_excl))
            for i in range(n)
        ]
        taken: set[int] = set()
        for victim in rng.sample(range(len(tails)), count):
            # rejection keeps the remap injective inside one request
            while (slot := bisect_right(cum, rng.random() * cum[-1])) in taken:
                pass
            taken.add(slot)
            tails[victim] = ("svc-shared", f"/shared{slot}", 0)
        paths = []
        for gi in range(g):
            bones = [(f"svc-r{r}g{gi}", f"/bone{i}", 0) for i in range(b)]
            fast_at, full_at = gi * width, gi * width + fast_excl
            for path in (tails[fast_at:full_at], tails[full_at:fast_at + width]):
                paths.append(frozenset(ids.setdefault(sym, len(ids)) for sym in bones + path))
        requests.append(RequestSpec(request_id=r, paths=tuple(paths), group_of_path=group_of_path))

    ranks = list(range(params.n_requests))
    rng.shuffle(ranks)
    freq = tuple((r, round(1000 / (ranks[r] + 1))) for r in range(params.n_requests))

    return SimulatedSystem(
        requests=tuple(requests),
        n_vars=len(ids),
        symbol_table=tuple(ids),
        request_frequency=freq,
    )


def execute(
    system: SimulatedSystem,
    request_id: int,
    injected: AbstractSet[int] | Iterable[int],
) -> ExecutionOutcome:
    """Serve the request through the first healthy path in priority order.

    A path is broken when it contains an injected variable.
    The request fails only when every path is broken.
    """
    req = system.request(request_id)
    injected = set(injected)
    for v in injected:
        if v < 0 or v >= system.n_vars:
            raise VariableRangeError(f"injected variable {v} out of range for universe of {system.n_vars}")
    for path in req.paths:
        if path.isdisjoint(injected):
            return ExecutionOutcome(failed=False, observed_path=path)
    return _FAILED


def ground_truth_paths(system: SimulatedSystem, request_id: int) -> list[frozenset[int]]:
    """All paths of a request. Test/verification backdoor: campaign code
    must discover paths through :func:`execute` instead."""
    return list(system.request(request_id).paths)


# --- file format -----------------------------------------------------------


def _require(cond: bool, field: str, message: str):
    if not cond:
        raise SchemaError(f"{field}: {message}")


def system_to_json(system: SimulatedSystem) -> str:
    """The system file's text: its document as ``json.dumps(doc, indent=2,
    sort_keys=True)`` writes it, and a newline.

    :func:`minfault.jsontext.dumps` writes it: the paths and the symbol
    table, nearly all of the file, are lists of ints and rows of one shape
    that it encodes in C.
    """
    weights = dict(system.request_frequency)
    doc = {
        "format": _FORMAT_TAG,
        "n_vars": system.n_vars,
        "requests": [
            {
                "id": req.request_id,
                "frequency": weights[req.request_id],
                "paths": [sorted(p) for p in req.paths],
                "group_of_path": req.group_of_path,
            }
            for req in system.requests
        ],
        "symbol_table": system.symbol_table,
    }
    return dumps(doc) + "\n"


def system_from_json(text: str) -> SimulatedSystem:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    _require(isinstance(doc, dict), "$", "expected a JSON object")
    allowed = {"format", "n_vars", "requests", "symbol_table"}
    for key in doc:
        _require(key in allowed, key, "unknown field")
    for key in allowed:
        _require(key in doc, key, "missing field")
    _require(doc["format"] == _FORMAT_TAG, "format", f"expected {_FORMAT_TAG!r}")
    n_vars = doc["n_vars"]
    _require(type(n_vars) is int and n_vars >= 0, "n_vars", "expected a non-negative integer")

    sym_raw = doc["symbol_table"]
    _require(isinstance(sym_raw, list), "symbol_table", "expected a list")
    _require(len(sym_raw) == n_vars, "symbol_table", f"expected {n_vars} entries")
    symbols = []
    # per-entry checks raise directly, so a valid file formats no message
    for i, entry in enumerate(sym_raw):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise SchemaError(f"symbol_table[{i}]: expected [service, api, replica]")
        service, api, replica = entry
        if not isinstance(service, str):
            raise SchemaError(f"symbol_table[{i}].service: expected a string")
        if not isinstance(api, str):
            raise SchemaError(f"symbol_table[{i}].api: expected a string")
        if type(replica) is not int:
            raise SchemaError(f"symbol_table[{i}].replica: expected an integer")
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
        _require(type(rid) is int and rid >= 0, f"{field}.id", "expected a non-negative integer")
        _require(rid not in seen_ids, f"{field}.id", "duplicate request id")
        seen_ids.add(rid)
        weight = entry["frequency"]
        _require(type(weight) is int and weight >= 0, f"{field}.frequency", "expected a non-negative integer")
        paths_raw = entry["paths"]
        _require(isinstance(paths_raw, list) and paths_raw, f"{field}.paths", "expected a non-empty list")
        paths = []
        for j, p in enumerate(paths_raw):
            pf = f"{field}.paths[{j}]"
            _require(isinstance(p, list) and p, pf, "expected a non-empty list of variable ids")
            for v in p:
                if not (type(v) is int and 0 <= v < n_vars):
                    raise SchemaError(f"{pf}: variable id {v!r} out of range")
            fs = frozenset(p)
            _require(len(fs) == len(p), pf, "duplicate variable in path")
            paths.append(fs)
        gop = entry["group_of_path"]
        _require(isinstance(gop, list), f"{field}.group_of_path", "expected a list")
        _require(len(gop) == len(paths), f"{field}.group_of_path", "length must match paths")
        for gv in gop:
            _require(type(gv) is int and gv >= 0, f"{field}.group_of_path", "expected non-negative integers")
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


def load_system(path: str | Path, data: bytes | None = None) -> SimulatedSystem:
    """The system in the file at ``path``.

    A caller that has read the file already, to hash it, passes its bytes
    as ``data``: the system is then the one those bytes hold, and the file
    is not read a second time.
    """
    if data is None:
        data = Path(path).read_bytes()
    return system_from_json(data.decode("utf-8"))

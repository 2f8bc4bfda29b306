"""Shared strategies, helpers, and hypothesis settings."""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from minfault.cnf import make_cnf
from minfault.simulation import GenParams, generate_system


def compact_cnf(paths):
    """Rebuild clauses over a dense local universe.

    Returns the local formula plus the local->global id mapping, so
    brute-force oracles can run on requests carved out of big systems.
    """
    to_local = {}
    local_paths = []
    for p in paths:
        s = set()
        for v in sorted(p):
            if v not in to_local:
                to_local[v] = len(to_local)
            s.add(to_local[v])
        local_paths.append(s)
    to_global = {l: g for g, l in to_local.items()}
    return make_cnf(local_paths, len(to_local)), to_global


def request_system(group_num, edge_num, bone_num):
    """An unshared generated system of one request (seed 1)."""
    return generate_system(GenParams(group_num=group_num, edge_num=edge_num,
                                     bone_num=bone_num, n_requests=1, seed=1))


def request_cnf(group_num, edge_num, bone_num):
    """The formula of request 0 of :func:`request_system`."""
    system = request_system(group_num, edge_num, bone_num)
    return make_cnf(system.request(0).paths, system.n_vars)


def globalize(fault_sets, to_global):
    """Map solver output tuples back to global variable ids."""
    return sorted(tuple(sorted(to_global[v] for v in fs)) for fs in fault_sets)

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@st.composite
def monotone_cnfs(draw, max_vars=10, max_clauses=6, max_clause_len=5):
    """Random normalized monotone formulas over a small universe."""
    n = draw(st.integers(min_value=1, max_value=max_vars))
    m = draw(st.integers(min_value=0, max_value=max_clauses))
    clauses = [
        draw(
            st.sets(
                st.integers(min_value=0, max_value=n - 1),
                min_size=1,
                max_size=min(max_clause_len, n),
            )
        )
        for _ in range(m)
    ]
    return make_cnf(clauses, n)


@st.composite
def cnfs_with_assignment(draw, max_vars=10, max_clauses=6):
    cnf = draw(monotone_cnfs(max_vars=max_vars, max_clauses=max_clauses))
    assignment = draw(
        st.sets(st.integers(min_value=0, max_value=cnf.n_vars - 1), max_size=cnf.n_vars)
    )
    return cnf, frozenset(assignment)

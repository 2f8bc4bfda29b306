"""Minimal combinatorial-fault discovery and API call-site hardening.

Pipeline: encode a request's alternative execution paths as a monotone
CNF formula, enumerate its minimal satisfying assignments (the minimal
fault-injection plans), drive a feedback campaign against an execution
oracle to discover every valid minimal fault, and finally select a
budget-bounded set of APIs whose call-site hardening mitigates the most
discovered faults.
"""

__version__ = "0.1.0"

from .campaign import (
    CampaignConfig,
    CampaignResult,
    is_subsumed,
    run_campaign,
    run_campaign_static,
)
from .cnf import (
    CnfStats,
    MonotoneCnf,
    compute_stats,
    conjoin,
    is_satisfied,
    make_cnf,
    parse_cnf,
    serialize_cnf,
)
from .hardening import (
    BudgetSweep,
    HardeningInstance,
    HardeningPlan,
    budget_sweep,
    build_request_cnf,
    greedy_baseline,
    optimize,
)
from .simulation import (
    GenParams,
    SimulatedSystem,
    execute,
    expected_clause_overlap,
    generate_system,
    ground_truth_paths,
    load_system,
    save_system,
)
from .solver import (
    SolverConfig,
    SolverCounters,
    brute_force_minimal,
    enumerate_minimal,
    enumerate_minimal_with_counters,
    is_minimal,
    iter_minimal,
)

__all__ = [
    "BudgetSweep",
    "CampaignConfig",
    "CampaignResult",
    "CnfStats",
    "GenParams",
    "HardeningInstance",
    "HardeningPlan",
    "MonotoneCnf",
    "SimulatedSystem",
    "SolverConfig",
    "SolverCounters",
    "brute_force_minimal",
    "budget_sweep",
    "build_request_cnf",
    "compute_stats",
    "conjoin",
    "enumerate_minimal",
    "enumerate_minimal_with_counters",
    "execute",
    "expected_clause_overlap",
    "generate_system",
    "greedy_baseline",
    "ground_truth_paths",
    "is_minimal",
    "is_satisfied",
    "is_subsumed",
    "iter_minimal",
    "load_system",
    "make_cnf",
    "optimize",
    "parse_cnf",
    "run_campaign",
    "run_campaign_static",
    "save_system",
    "serialize_cnf",
]

"""Reliability routing on stochastic road networks.

Core pipeline: load or synthesize a :class:`~reliroute.network.StochasticGraph`,
solve the arrival-probability policy toward a destination with
:func:`~reliroute.policy.compute_policy`, then extract the most reliable
path(s) with :func:`~reliroute.pathsearch.sota_path`.  Activation-potential
preprocessing (:mod:`reliroute.potentials`) prunes queries; the benchmark
harness (:mod:`reliroute.harness`) reproduces the timing studies at desk
scale.

The package logs through ``logging.getLogger("reliroute")`` and is silent
unless the application configures logging: each policy solve, each
realizability pass and each potential-table build emits one DEBUG record
with its counts and seconds.
"""

import logging

from .distributions import (
    DiscreteDistribution,
    EXACT_TOL,
    NORMALIZATION_TOL,
    convolve,
)
from .errors import GraphValidationError, RelirouteError, SearchBudgetExceeded
from .harness import (
    BenchmarkConfig,
    BenchmarkRecord,
    LetPath,
    ProblemInstance,
    generate_instances,
    let_path,
    run_benchmark,
    summarize,
)
from .network import (
    RegionPartition,
    StochasticGraph,
    grid_partition,
    load_graph,
    save_graph,
)
from .pathsearch import (
    FoundPath,
    SearchReport,
    path_distribution,
    path_reliability,
    sota_path,
    sota_path_report,
)
from .policy import NO_EDGE, PolicyTable, compute_policy
from .potentials import (
    INFINITE_POTENTIAL,
    PotentialTable,
    RealizabilityFlags,
    build_archive,
    compute_arc_potentials,
    compute_realizability,
    load_archive,
    prune,
    save_archive,
)
from .synth import grid_topology, synthesize_distributions

__all__ = [
    "BenchmarkConfig",
    "BenchmarkRecord",
    "DiscreteDistribution",
    "EXACT_TOL",
    "FoundPath",
    "GraphValidationError",
    "INFINITE_POTENTIAL",
    "LetPath",
    "NORMALIZATION_TOL",
    "NO_EDGE",
    "PolicyTable",
    "PotentialTable",
    "ProblemInstance",
    "RealizabilityFlags",
    "RegionPartition",
    "RelirouteError",
    "SearchBudgetExceeded",
    "SearchReport",
    "StochasticGraph",
    "build_archive",
    "compute_arc_potentials",
    "compute_policy",
    "compute_realizability",
    "convolve",
    "generate_instances",
    "grid_partition",
    "grid_topology",
    "let_path",
    "load_archive",
    "load_graph",
    "path_distribution",
    "path_reliability",
    "prune",
    "run_benchmark",
    "save_archive",
    "save_graph",
    "sota_path",
    "sota_path_report",
    "summarize",
    "synthesize_distributions",
]

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

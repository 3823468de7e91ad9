"""Search-space preprocessing: realizability flags and activation potentials.

An edge's *activation potential* for a destination region is the least time
budget at which the edge participates in an optimal solution toward some
destination in that region.  At query time, edges whose potential exceeds the
query budget can be dropped without changing any optimal value at or below
that budget.  Each table keeps one running minimum per edge, in one of two
modes:

- ``policy`` mode takes the least budget at which the edge is the chosen
  successor ``w_i(t)`` of some policy toward a region destination (optionally
  only at states realizable from a source side, which tightens the table for
  queries known to start there);
- ``path`` mode takes the least budget at which the edge lies on an optimal
  fixed path from a given source toward a region destination.  Optimal paths
  change rarely as the budget grows, so the sweep re-runs the search only
  when the incumbent path's optimality certificate fails.

*Realizability* answers which ``(node, remaining budget)`` states a traveller
following the optimal policy can actually occupy: flags propagate from the
source through the chosen successors in blocks of descending budgets, each
as wide as the least minimum travel time, so every landing falls below its
block and every flag is final before it propagates.

A table solves one policy per region destination.  The solves are
independent but share their kernel transforms, one per block layout, which
a region's destinations almost always have in common.  Tables are immutable
once built.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distributions import EXACT_TOL, _budget
from .network import RegionPartition, StochasticGraph
# compute_policy is not called here, but perfbench's traced run wraps it where
# this module would look it up.
from .policy import NO_EDGE, PolicyTable, _solve, compute_policy  # noqa: F401
from .pathsearch import path_distribution, sota_path_report

_log = logging.getLogger(__name__)

#: Serializable stand-in for "never active within the horizon".
INFINITE_POTENTIAL = np.iinfo(np.int32).max

#: Potential kinds ``compute_arc_potentials`` builds.
MODES = ("policy", "path")


@dataclass
class RealizabilityFlags:
    """Which (node, remaining-budget) states the optimal policy can reach.

    ``reached[i, t]`` is True when node ``i`` can be occupied with ``t`` bins
    left; ``edge_first_budget[e]`` is the least budget (at the tail) at which
    edge ``e`` is traversed from a reachable state, else ``INFINITE_POTENTIAL``.
    """

    reached: np.ndarray
    edge_first_budget: np.ndarray

    @property
    def edge_marked(self) -> np.ndarray:
        """Edges traversed from some reachable state."""
        return self.edge_first_budget != INFINITE_POTENTIAL


def compute_realizability(
    graph: StochasticGraph,
    policy: PolicyTable,
    source,
    T: int | None = None,
    initial_budgets: str = "exact",
) -> RealizabilityFlags:
    """Propagate reachable states from the source through the policy.

    ``initial_budgets`` selects the base case: ``"exact"`` seeds only the
    departure state ``(source, T)``, the right notion for a single query,
    while ``"any"`` seeds every budget ``0..T`` at the source, covering
    departures with any budget up to ``T`` (what a reusable pruning table
    needs).  ``source`` may be one node id or a nonempty list of them.

    The pass visits the budgets from ``T`` down in blocks of ``D``, the least
    minimum travel time of the graph's edges (the last block may be shorter).
    Every landing from a block falls strictly below it, so the flags of a
    block are final when it is reached, and one vectorized step propagates
    every reached state of the block that has a successor.  An edge's
    support is a few runs of consecutive bins (:attr:`StochasticGraph.edge_support`),
    so each run lands on one interval of its head's budgets, marked by a
    difference array.
    """
    if initial_budgets not in ("exact", "any"):
        raise ValueError(f"unknown initial-budget mode {initial_budgets!r}")
    policy.check_graph(graph)
    T = policy.horizon if T is None else _budget(T, "horizon")
    if T < 0:
        raise ValueError(f"horizon must be nonnegative, got {T}")
    if T > policy.horizon:
        raise ValueError(f"horizon {T} exceeds the policy horizon {policy.horizon}")

    sources = source if isinstance(source, (list, tuple)) else [source]
    if not sources:
        raise ValueError(f"realizability needs one or more source nodes, got {source!r}")
    start = time.perf_counter()
    reached = np.zeros((graph.num_nodes, T + 1), dtype=bool)
    for s in sources:
        si = graph.node_index(s)
        if initial_budgets == "exact":
            reached[si, T] = True
        else:
            reached[si, :] = True

    edge_first = np.full(graph.num_edges, INFINITE_POTENTIAL, dtype=np.int64)
    runs = graph.edge_support
    D = int(runs[:, 0, 0].min(initial=T + 1))
    W = policy.w[:, : T + 1]
    blocks = 0
    for hi in range(T, -1, -D):
        lo = max(hi - D + 1, 0)
        nodes, k = np.nonzero(reached[:, lo : hi + 1] & (W[:, lo : hi + 1] != NO_EDGE))
        if nodes.size == 0:
            continue
        blocks += 1
        t = lo + k
        edges = W[nodes, t]
        # Blocks come in descending order, so the least budget of the block
        # that takes an edge is its least overall.
        np.minimum.at(edge_first, edges, t)
        # Run [a, b] lands on budgets [t - b, t - a], all below lo.
        top = t[:, None] - runs[edges, :, 0]
        ok = top >= 0
        heads = np.broadcast_to(graph.edge_heads[edges][:, None], top.shape)[ok]
        bottom = np.maximum(t[:, None] - runs[edges, :, 1], 0)[ok]
        # marks[r, c] counts intervals of head rows[r] opening at budget
        # base + c, less those closing just below it.
        rows, row = np.unique(heads, return_inverse=True)
        base = int(bottom.min(initial=lo))
        marks = np.zeros((len(rows), lo + 1 - base), dtype=np.int32)
        np.add.at(marks, (row, bottom - base), 1)
        np.add.at(marks, (row, top[ok] + 1 - base), -1)
        reached[rows, base:lo] |= np.cumsum(marks[:, :-1], axis=1) > 0

    _log.debug(
        "realizability from %r, T=%d: %d of %d blocks of D=%d propagated, %d states reached, %.4f s",
        source, T, blocks, -(-(T + 1) // D), D, np.count_nonzero(reached), time.perf_counter() - start,
    )
    return RealizabilityFlags(reached=reached, edge_first_budget=edge_first)


# ---------------------------------------------------------------------------
# activation potentials


@dataclass
class PotentialTable:
    """Per-edge activation budgets toward one destination region.

    ``phi[e]`` is the least budget at which edge ``e`` becomes active
    (``INFINITE_POTENTIAL`` when it never does within the horizon).
    """

    horizon: int
    dt: float
    mode: str
    phi: np.ndarray
    sources: tuple | None = None

    def edge_mask(self, budget: int) -> np.ndarray:
        """Edges that may participate in any optimal solution at ``<= budget``."""
        budget = _budget(budget, "budget")
        if budget < 0:
            raise ValueError(f"budget must be nonnegative, got {budget}")
        if budget > self.horizon:
            raise ValueError(
                f"budget {budget} exceeds the preprocessed horizon {self.horizon}; "
                "potentials beyond the horizon are unknown"
            )
        return self.phi <= budget

    def kept_count(self, budget: int) -> int:
        return int(self.edge_mask(budget).sum())


def _check_graph(graph: StochasticGraph, dt: float, edges: int | None = None, nodes: int | None = None) -> None:
    """Raise ``ValueError`` unless a potentials archive or table built with
    time step ``dt``, ``edges`` edges and ``nodes`` region assignments (the
    counts are checked when given) fits ``graph``."""
    if nodes is not None and nodes != graph.num_nodes:
        raise ValueError(
            f"potentials archive assigns {nodes} nodes to regions but the graph has {graph.num_nodes}"
        )
    if dt != graph.dt:
        raise ValueError(f"potentials archive has dt={dt} but the graph has dt={graph.dt}")
    if edges is not None and edges != graph.num_edges:
        raise ValueError("potential table does not match this graph's edge count")


def prune(graph: StochasticGraph, table: PotentialTable, budget: int) -> np.ndarray:
    """Boolean keep-mask over the graph's edges for a query at ``budget``.

    An edge survives iff its activation potential is at most the budget.
    Optimal values on
    the masked graph match the full graph for destinations in the table's
    region and budgets up to the horizon.  A table built for a graph with
    another ``dt`` or edge count raises ``ValueError``.
    """
    _check_graph(graph, table.dt, edges=len(table.phi))
    return table.edge_mask(budget)


def _lower_along_optimal_paths(phi, graph, pol, source, T):
    """Lower ``phi[e]`` to the least budget at which edge ``e`` lies on an
    optimal path from ``source`` under ``pol``.  The search re-runs only when
    the certificate fails: some unexpanded prefix of the last search,
    completed by the policy, may beat the incumbent at that budget."""
    u_s = pol.u[graph.node_index(source)]
    incumbent_edges = None
    incumbent_rel = None  # incumbent's reliability at every budget
    frontier_bound = None  # upper bound on every other path, per budget
    for t in range(T + 1):
        if u_s[t] <= 0.0:
            continue
        if incumbent_edges is None or incumbent_rel[t] < frontier_bound[t] - EXACT_TOL:
            rep = sota_path_report(graph, pol, source, T=t, k=1, keep_frontier=True)
            if not rep.paths:
                continue
            incumbent_edges = list(rep.paths[0].edges)
            c = path_distribution(graph, incumbent_edges, cap=T + 1).cdf_array()
            incumbent_rel = np.pad(c, (0, T + 1 - len(c)), mode="edge")
            frontier_bound = np.zeros(T + 1)
            for qmass, last in rep.frontier:
                curve = np.convolve(qmass[: T + 1], pol.u[last])[: T + 1]
                np.maximum(frontier_bound, curve, out=frontier_bound)
        if incumbent_rel[t] > 0.0:
            phi[incumbent_edges] = np.minimum(phi[incumbent_edges], t)


def compute_arc_potentials(
    graph: StochasticGraph,
    partition: RegionPartition,
    region: int,
    T: int,
    mode: str = "policy",
    sources=None,
) -> PotentialTable:
    """Activation potentials for all edges toward one destination region.

    ``mode="policy"`` takes, for every edge, the least budget at which it is
    the chosen successor of an optimal policy toward some destination in the
    region (``sources`` optionally conditions on realizability from those
    nodes, shrinking the table to trips that can actually start there).
    ``mode="path"`` requires ``sources`` and takes the least budget at which
    the edge lies on an optimal fixed path, sweeping every budget and
    re-running the search only when the incumbent's certificate fails; it
    prunes far harder but is only valid for path queries from those sources.
    An empty ``sources`` list raises ``ValueError`` in either mode.
    """
    T = _budget(T, "horizon")
    if T < 0:
        raise ValueError(f"horizon must be nonnegative, got {T}")
    if not 0 <= region < partition.region_count:
        raise ValueError(f"region {region} out of range 0..{partition.region_count - 1}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if sources is not None and not isinstance(sources, (list, tuple)):
        sources = [sources]
    if (mode == "path" or sources is not None) and not sources:
        raise ValueError(f"{mode}-mode potentials need one or more source nodes, got {sources!r}")

    start = time.perf_counter()
    phi = np.full(graph.num_edges, INFINITE_POTENTIAL, dtype=np.int64)
    # Kernel transforms per (D, R), shared by the region's solves.
    kernels = {}
    for d_idx in partition.regions[region]:
        pol = _solve(graph, graph.node_ids[d_idx], T, shared=kernels)
        if mode == "path":
            for s in sources:
                if graph.node_index(s) != d_idx:
                    _lower_along_optimal_paths(phi, graph, pol, s, T)
        elif sources is None:
            # Budgets come out ascending, so an edge's first choice is its least.
            t, nodes = np.nonzero((pol.w != NO_EDGE).T)
            edges, first = np.unique(pol.w[nodes, t], return_index=True)
            phi[edges] = np.minimum(phi[edges], t[first])
        else:
            flags = compute_realizability(graph, pol, list(sources), T, initial_budgets="any")
            np.minimum(phi, flags.edge_first_budget, out=phi)

    _log.debug(
        "%s-mode potentials toward region %d, T=%d, sources %r: %d destinations, %d kernel builds, %.4f s",
        mode, region, T, sources, len(partition.regions[region]), len(kernels), time.perf_counter() - start,
    )
    return PotentialTable(
        horizon=T,
        dt=graph.dt,
        mode=mode,
        phi=phi,
        sources=tuple(sources) if sources is not None else None,
    )


# ---------------------------------------------------------------------------
# archive: one file holding the tables for every region of a partition


def build_archive(
    graph: StochasticGraph,
    partition: RegionPartition,
    T: int,
    mode: str = "policy",
    sources=None,
    regions=None,
) -> dict:
    """Compute tables for several regions; returns ``{region: PotentialTable}``
    plus the partition, bundled for serialization."""
    chosen = range(partition.region_count) if regions is None else regions
    tables = {
        int(r): compute_arc_potentials(graph, partition, int(r), T, mode=mode, sources=sources)
        for r in chosen
    }
    return {"partition": partition, "tables": tables, "horizon": T, "mode": mode,
            "dt": graph.dt}


def save_archive(archive: dict, target) -> None:
    """Write an archive as versioned JSON (infinite potentials become null)."""
    tables = {}
    for r, tab in archive["tables"].items():
        tables[str(r)] = {
            "phi": [None if p >= INFINITE_POTENTIAL else int(p) for p in tab.phi],
            "sources": list(tab.sources) if tab.sources is not None else None,
        }
    doc = {
        "format": "reliroute-potentials",
        "version": 1,
        "region_count": archive["partition"].region_count,
        "horizon": archive["horizon"],
        "dt": archive["dt"],
        "mode": archive["mode"],
        "assignment": [int(r) for r in archive["partition"].assignment],
        "tables": tables,
    }
    Path(target).write_text(json.dumps(doc))


def load_archive(source) -> dict:
    """Read an archive written by :func:`save_archive`.

    Fields of older documents that nothing reads (activation intervals, and
    each table's region nodes, which the partition gives) are ignored.  A
    missing field raises ``ValueError`` naming it.
    """
    doc = json.loads(Path(source).read_text())
    if doc.get("format") != "reliroute-potentials" or doc.get("version") != 1:
        raise ValueError("not a recognized potentials archive")
    where = "potentials archive"
    try:
        horizon, dt, mode = int(doc["horizon"]), float(doc["dt"]), doc["mode"]
        partition = RegionPartition(np.array(doc["assignment"], dtype=np.int64))
        tables = {}
        for r, tab in doc["tables"].items():
            where = f"potentials archive table {r}"
            phi = np.array([INFINITE_POTENTIAL if p is None else p for p in tab["phi"]], dtype=np.int64)
            tables[int(r)] = PotentialTable(
                horizon=horizon,
                dt=dt,
                mode=mode,
                phi=phi,
                sources=tuple(tab["sources"]) if tab["sources"] is not None else None,
            )
    except KeyError as exc:
        raise ValueError(f"{where} is missing a field: {exc}") from None
    return {"partition": partition, "tables": tables, "horizon": horizon, "mode": mode, "dt": dt}

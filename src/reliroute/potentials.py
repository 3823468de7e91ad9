"""Search-space preprocessing: realizability flags and activation potentials.

An edge's *activation potential* for a destination region is the least time
budget at which the edge participates in an optimal solution toward some
destination in that region.  A query leaves the edges whose potential exceeds
its budget out of the policy solve only, and searches the whole graph with
that policy.  Each table keeps one running minimum per edge, in one of two
modes:

- ``policy`` mode takes the least budget at which the edge is the chosen
  successor ``w_i(t)`` of some policy toward a region destination, so the
  pruned policy equals the unpruned one.  Optionally it counts only states
  realizable from given sources: such a table is valid for the policy from
  those sources, not for path queries;
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
independent and read the graph's kernel spectra, which the first of them
builds.  Tables are immutable once built.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .distributions import EXACT_TOL, _integer
from .network import RegionPartition, StochasticGraph
from .policy import NO_EDGE, PolicyTable, _frozen, _read_table, _write_table, compute_policy
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


def _source_rows(graph: StochasticGraph, sources, what: str) -> list[int]:
    """Node rows of ``sources``, one node id or a nonempty list or tuple of them.
    No source (``None`` or ``[]``) or an unknown node id raises ``ValueError``."""
    listed = sources if isinstance(sources, (list, tuple)) else [] if sources is None else [sources]
    if not listed:
        raise ValueError(f"{what} one or more source nodes, got {sources!r}")
    return [graph.node_index(s) for s in listed]


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
    T = policy.horizon if T is None else _integer(T, "horizon", bound=("the policy horizon", policy.horizon))

    rows = _source_rows(graph, source, "realizability needs")
    start = time.perf_counter()
    reached = np.zeros((graph.num_nodes, T + 1), dtype=bool)
    reached[rows, T if initial_budgets == "exact" else slice(None)] = True

    edge_first = np.full(graph.num_edges, INFINITE_POTENTIAL, dtype=np.int64)
    runs = graph.edge_support
    D = int(runs[:, 0, 0].min(initial=T + 1))
    W = policy.w[:, : T + 1]
    # Edges are sorted by tail, so each node's out-edges are one index range.
    bounds = np.searchsorted(graph.edge_tails, np.arange(graph.num_nodes + 1))[:, None]
    stray = np.flatnonzero(((W != NO_EDGE) & ((W < bounds[:-1]) | (W >= bounds[1:]))).any(axis=1))
    if len(stray):
        node = graph.node_ids[stray[0]]
        raise ValueError(f"policy table's w names an edge that does not leave node {node!r} in node row {stray[0]}")
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


@dataclass(frozen=True)
class PotentialTable:
    """Per-edge activation budgets toward one destination region.

    ``phi[e]`` is the least budget at which edge ``e`` becomes active
    (``INFINITE_POTENTIAL`` when it never does within the horizon);
    ``graph_digest`` is the graph's ``digest``.  The constructor makes
    ``phi`` read-only, copying an array that a writable array under it could
    change, and the fields cannot be reassigned.
    """

    horizon: int
    mode: str
    phi: np.ndarray
    graph_digest: str = field(repr=False)
    sources: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "phi", _frozen(self.phi))

    def __reduce__(self):
        # Unpickling and copying run the constructor.
        return PotentialTable, (self.horizon, self.mode, self.phi, self.graph_digest, self.sources)

    def edge_mask(self, budget: int) -> np.ndarray:
        """Edges that may participate in any optimal solution at ``<= budget``."""
        budget = _integer(budget, "budget", bound=("the preprocessed horizon", self.horizon))
        return self.phi <= budget

    def kept_count(self, budget: int) -> int:
        return int(self.edge_mask(budget).sum())

    def check_graph(self, graph: StochasticGraph) -> None:
        """Raise ``ValueError`` unless the table was computed on ``graph``:
        one potential per edge of ``graph``, and ``graph``'s digest."""
        if len(self.phi) != graph.num_edges:
            raise ValueError(f"potential table has {len(self.phi)} edges but the graph has {graph.num_edges}")
        if self.graph_digest != graph.digest:
            raise ValueError("potential table was built for another graph: its graph digest differs from the graph's")


def prune(graph: StochasticGraph, table: PotentialTable, budget: int) -> np.ndarray:
    """Boolean keep-mask over the graph's edges for a query at ``budget``.

    An edge survives iff its activation potential is at most the budget.
    Pass the mask to :func:`compute_policy` only and search the whole graph
    with the policy it returns.  With a policy-mode table the masked policy
    equals the full graph's for destinations in the table's region and budgets
    up to the horizon, outside the tie band, so the search ranks paths as it
    would unpruned.  In the tie band the mask may drop an edge up to
    ``EXACT_TOL`` better than a state's successor (see
    :func:`~reliroute.policy.compute_policy`), and ``u`` may fall by as much
    there.  A path-mode table keeps only the best path from its sources, so it
    answers those sources at ``k=1`` only.  A table built for another graph
    raises ``ValueError``.
    """
    table.check_graph(graph)
    return table.edge_mask(budget)


def _lower_along_optimal_paths(phi, graph, pol, row, T):
    """Lower ``phi[e]`` to the least budget at which edge ``e`` lies on an
    optimal path from node row ``row`` under ``pol``.  The search re-runs only
    when the certificate fails: some unexpanded prefix of the last search,
    completed by the policy, may beat the incumbent at that budget."""
    u_s = pol.u[row]
    incumbent_edges = None
    incumbent_rel = None  # incumbent's reliability at every budget
    frontier_bound = None  # upper bound on every other path, per budget
    for t in range(T + 1):
        if u_s[t] <= 0.0:
            continue
        if incumbent_edges is None or incumbent_rel[t] < frontier_bound[t] - EXACT_TOL:
            rep = sota_path_report(graph, pol, graph.node_ids[row], T=t, k=1, keep_frontier=True)
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
    region.  ``sources`` optionally conditions on realizability from those
    nodes: the table then keeps only the moves the policy makes from them, so
    it is valid for the policy from those sources, not for path queries.
    ``mode="path"`` requires ``sources`` and takes the least budget at which
    the edge lies on an optimal fixed path, sweeping every budget and
    re-running the search only when the incumbent's certificate fails; it
    prunes far harder but is only valid for best-path queries from those
    sources.
    An empty ``sources`` list, an unknown source, or a partition of another
    graph's nodes raises ``ValueError`` before the first solve.
    """
    T = _integer(T, "horizon")
    partition.check_graph(graph)
    region = _integer(region, "region", bound=("the last region id", partition.region_count - 1))
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "path" or sources is not None:
        rows = _source_rows(graph, sources, f"{mode}-mode potentials need")
        sources = [graph.node_ids[i] for i in rows]

    start = time.perf_counter()
    phi = np.full(graph.num_edges, INFINITE_POTENTIAL, dtype=np.int64)
    for d_idx in partition.regions[region]:
        pol = compute_policy(graph, graph.node_ids[d_idx], T)
        if mode == "path":
            for row in rows:
                if row != d_idx:
                    _lower_along_optimal_paths(phi, graph, pol, row, T)
        elif sources is None:
            nodes, t = np.nonzero(pol.w != NO_EDGE)
            np.minimum.at(phi, pol.w[nodes, t], t)
        else:
            flags = compute_realizability(graph, pol, sources, T, initial_budgets="any")
            np.minimum(phi, flags.edge_first_budget, out=phi)

    _log.debug(
        "%s-mode potentials toward region %d, T=%d, sources %r: %d destinations, %.4f s",
        mode, region, T, sources, len(partition.regions[region]), time.perf_counter() - start,
    )
    return PotentialTable(T, mode, phi, graph.digest, tuple(sources) if sources is not None else None)


# ---------------------------------------------------------------------------
# archive: one file holding the tables for every region of a partition


def build_archive(
    graph: StochasticGraph,
    partition: RegionPartition,
    T: int,
    mode: str = "policy",
    sources=None,
) -> dict:
    """Compute the table of every region; returns ``{"partition": partition,
    "tables": {region: PotentialTable}}``.  Sources in policy mode (a
    conditioned table is not valid for path queries), a bad horizon, or a
    partition of another graph's nodes raise ``ValueError`` before any table
    is built: the first region's :func:`compute_arc_potentials` checks them."""
    if mode == "policy" and sources is not None:
        raise ValueError(f"policy-mode archives serve every source and take none, got {sources!r}")
    tables = {
        r: compute_arc_potentials(graph, partition, r, T, mode=mode, sources=sources)
        for r in range(partition.region_count)
    }
    return {"partition": partition, "tables": tables}


def save_archive(archive: dict, target) -> None:
    """Write an archive as a compressed ``npz`` under exactly the name given:
    a JSON header of its tables' graph digest, horizon, mode and sources, and
    their potentials, one row per region in region order.  Tables that miss or
    add a region of the partition, or disagree on a header field, raise ``ValueError``."""
    partition, tables = archive["partition"], archive["tables"]
    regions = range(partition.region_count)
    if tables.keys() != set(regions):
        raise ValueError(f"archive has tables for regions {list(tables)}, not the partition's 0..{len(regions) - 1}")
    header = {key: getattr(tables[0], key) for key in ("graph_digest", "horizon", "mode", "sources")}
    for r in regions:
        stray = [key for key, value in header.items() if getattr(tables[r], key) != value]
        if stray:
            raise ValueError(f"archive table of region {r} disagrees with region 0's on {', '.join(stray)}")
    phi = np.stack([tables[r].phi for r in regions])
    _write_table(target, "potentials archive", header, assignment=partition.assignment, phi=phi)


def load_archive(source) -> dict:
    """Read an archive written by :func:`save_archive`.  Any other file, a
    missing field, an unknown mode, sources that do not fit the mode, a
    horizon or potential that is not an integer in range, or an archive of an
    older reliroute that lists its regions, raises ``ValueError``."""
    fields = ("graph_digest", "horizon", "mode", "sources", "assignment", "phi")
    doc = _read_table(source, "potentials archive", fields)
    if "regions" in doc:
        raise ValueError("potentials archive lists its regions, so an older reliroute wrote it "
                         "and its rows need not follow the region ids; rebuild it")
    horizon = _integer(doc["horizon"], "potentials archive horizon")
    mode, sources, phi = doc["mode"], doc["sources"], doc["phi"]
    if mode not in MODES:
        raise ValueError(f"potentials archive has unknown mode {mode!r}")
    if mode == "policy" and sources is not None:
        raise ValueError(f"potentials archive is policy-mode but lists sources {sources!r}")
    if mode == "path" and not (isinstance(sources, list) and sources):
        raise ValueError(f"potentials archive is path-mode and needs a nonempty list of sources, got {sources!r}")
    partition = RegionPartition(doc["assignment"])
    shaped = phi.dtype.kind in "iu" and phi.ndim == 2 and len(phi) == partition.region_count
    if not (shaped and np.all((phi >= 0) & (phi <= horizon) | (phi == INFINITE_POTENTIAL))):
        raise ValueError(
            f"potentials archive's phi must hold one row per region of integer budgets 0..{horizon} "
            f"or INFINITE_POTENTIAL, got {phi.dtype} values of shape {phi.shape}"
        )
    digest, sources = doc["graph_digest"], tuple(sources) if sources else None
    phi.setflags(write=False)  # the rows below are views of it
    tables = {r: PotentialTable(horizon, mode, row, digest, sources) for r, row in enumerate(phi)}
    return {"partition": partition, "tables": tables}

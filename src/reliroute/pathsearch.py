"""Most-reliable-path search guided by the arrival-probability policy.

A fixed path can never beat the optimal policy, so for a partial path ``P``
ending at node ``i`` the mixed quantity

    key(P) = sum_t q_P(t) * u_i(T - t)

(travel the committed prefix, then follow the policy) upper-bounds the
reliability of every completion of ``P``.  Extending a path can only lower
its key, which makes the key an admissible priority for best-first search:
the first path popped that ends at the destination is the most reliable one,
and further goal pops yield the 2nd, 3rd, ... best loop-free paths.

The child key mixes through the extending edge: extending ``P`` (at ``i``)
with edge ``(i, j)`` scores ``sum_t (q_P * p_ij)(t) * u_j(T - t)``, i.e. the
prefix distribution is convolved with the edge before mixing with ``u_j``.

Searches are sequential; shared inputs (graph, policy) are immutable, so any
number of searches may run in parallel.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .distributions import DiscreteDistribution, _convolved, _integer
from .errors import SearchBudgetExceeded
from .network import StochasticGraph
from .policy import PolicyTable, _edge_mask

DEFAULT_QUEUE_LIMIT = 1_000_000


@dataclass(frozen=True)
class FoundPath:
    """One loop-free source-to-destination path with its exact reliability."""

    nodes: tuple
    edges: tuple[int, ...]
    reliability: float
    key_at_pop: float


@dataclass
class SearchReport:
    """Paths found plus the bookkeeping needed to audit the search.

    ``status`` is ``"found"``, ``"no_feasible_path"`` (the policy itself has
    zero success probability, so no path can succeed) or ``"unreachable"``
    (no directed connection at all).
    """

    paths: list[FoundPath]
    status: str
    popped: int = 0
    pushed: int = 0
    queue_peak: int = 0
    max_child_key_excess: float = float("-inf")
    final_queue_max_key: float | None = None
    policy_bound: float = 0.0
    frontier: list = field(default_factory=list, repr=False)


def _directed_reachable(graph: StochasticGraph, s: int, d: int) -> bool:
    heads = graph._heads
    seen = {s}
    stack = [s]
    while stack:
        i = stack.pop()
        if i == d:
            return True
        for e in graph.out_edges[i]:
            j = heads[e]
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return False


def sota_path_report(
    graph: StochasticGraph,
    policy: PolicyTable,
    source,
    T: int | None = None,
    k: int = 1,
    edge_mask=None,
    queue_limit: int = DEFAULT_QUEUE_LIMIT,
    keep_frontier: bool = False,
) -> SearchReport:
    """Best-first search for the ``k`` most reliable loop-free paths.

    ``policy`` must be computed toward the desired destination with a horizon
    of at least ``T``.  ``edge_mask`` optionally restricts the edge set; a
    pruning mask belongs to the policy solve, not here.  ``queue_limit``
    bounds memory; exceeding it raises :class:`SearchBudgetExceeded`.

    Prefix distributions are kept to ``T + 1`` bins, all a key or a
    reliability reads.  With ``keep_frontier`` they are kept to
    ``policy.horizon + 1`` bins, and the report's ``frontier`` lists ``(prefix
    mass, last node)`` for every unexpanded partial path, including those
    whose key is zero at ``T``, so that together they bound every other path
    at every budget up to the horizon.
    """
    k = _integer(k, "k", 1)
    policy.check_graph(graph)
    T = policy.horizon if T is None else _integer(T, "budget", bound=("the policy horizon", policy.horizon))
    cap = (policy.horizon if keep_frontier else T) + 1
    s = graph.node_index(source)
    d = graph.node_index(policy.dest)
    keep, heads = _edge_mask(graph, edge_mask).tolist(), graph._heads
    U = policy.u

    bound = float(U[s, T])
    report = SearchReport(paths=[], status="found", policy_bound=bound)
    if bound <= 0.0:
        report.status = (
            "no_feasible_path" if _directed_reachable(graph, s, d) else "unreachable"
        )
        return report

    # Heap entries: (-key, len(edges), node tuple, edge tuple, q mass array).
    # The first four fields are a total order over distinct paths, so the
    # non-comparable payload never gets compared.
    q0 = np.ones(1)
    heap = [(-bound, 0, (s,), (), q0)]
    report.pushed = 1
    report.queue_peak = 1

    while heap:
        neg_key, _, nodes, edges, qmass = heapq.heappop(heap)
        key = -neg_key
        report.popped += 1
        last = nodes[-1]

        if last == d:
            reliability = min(float(qmass[: T + 1].sum()), 1.0)
            report.paths.append(
                FoundPath(
                    nodes=tuple(graph.node_ids[i] for i in nodes),
                    edges=edges,
                    reliability=reliability,
                    key_at_pop=key,
                )
            )
            if len(report.paths) >= k:
                report.final_queue_max_key = -heap[0][0] if heap else None
                break
            continue

        for e in graph.out_edges[last]:
            if not keep[e]:
                continue
            j = heads[e]
            if j in nodes:
                continue  # loop-free paths only
            em = graph._mass(e)
            child_q = np.convolve(qmass, em)[:cap]
            uj = U[j, T::-1]
            qk = child_q[: T + 1]
            child_key = float(np.dot(qk, uj[: len(qk)]))
            report.max_child_key_excess = max(report.max_child_key_excess, child_key - key)
            if child_key <= 0.0:
                if keep_frontier:  # hopeless at T, but maybe not at a larger budget
                    report.frontier.append((child_q, j))
                continue
            heapq.heappush(heap, (-child_key, len(edges) + 1, nodes + (j,), edges + (e,), child_q))
            report.pushed += 1
        if len(heap) > queue_limit:
            raise SearchBudgetExceeded(
                f"path search exceeded the queue limit of {queue_limit} entries"
            )
        report.queue_peak = max(report.queue_peak, len(heap))

    if not report.paths:
        report.status = "no_feasible_path"
    if keep_frontier:
        report.frontier += [(entry[4], entry[2][-1]) for entry in heap]
    return report


def sota_path(
    graph: StochasticGraph,
    policy: PolicyTable,
    source,
    T: int | None = None,
    k: int = 1,
    edge_mask=None,
    queue_limit: int = DEFAULT_QUEUE_LIMIT,
) -> list[FoundPath]:
    """The ``k`` most reliable loop-free paths, best first (may return fewer).

    Returns an empty list when no path can arrive on time within ``T``.
    """
    return sota_path_report(
        graph, policy, source, T=T, k=k, edge_mask=edge_mask, queue_limit=queue_limit
    ).paths


def _edges_for_node_path(graph: StochasticGraph, nodes) -> list[int]:
    edges = []
    for a, b in zip(nodes, nodes[1:]):
        candidates = graph.find_edges(a, b)
        if not candidates:
            raise ValueError(f"no edge connects {a!r} to {b!r}")
        if len(candidates) > 1:
            raise ValueError(
                f"parallel edges connect {a!r} to {b!r}; pass explicit edge indices"
            )
        edges.append(candidates[0])
    return edges


def path_distribution(graph: StochasticGraph, edges, cap: int | None = None) -> DiscreteDistribution:
    """Travel-time distribution of a concrete sequence of edge indices, each in ``0 .. num_edges - 1``.

    The edges' store rows are convolved in path order as
    :func:`~reliroute.distributions.convolve` convolves two distributions,
    each partial result trimmed of trailing zeros as a distribution trims
    its masses, so the result is the chained ``convolve``'s, bit for bit.
    """
    if cap is not None:
        cap = _integer(cap, "cap", 1)
    edges = [_integer(e, "edge index", bound=("the last edge", graph.num_edges - 1)) for e in edges]
    mass, tail = np.ones(1), 0.0
    for e in edges:
        row = graph._mass(e)
        whole = float(row.sum()) + float(graph._truncated[e])
        full, tail = _convolved(mass, float(mass.sum()) + tail, row, whole, cap)
        nonzero = full.nonzero()[0]
        mass = full[: int(nonzero[-1]) + 1] if nonzero.size else full[:0]
    return DiscreteDistribution(mass, graph.dt, tail)


def path_reliability(graph: StochasticGraph, path, T: int, edges=None) -> float:
    """Exact on-time probability of a fixed path within ``T`` bins.

    ``path`` is a node sequence; when consecutive nodes are joined by parallel
    edges the edge sequence must be passed explicitly via ``edges``.
    """
    T = _integer(T, "budget")
    if edges is None:
        if path is None or len(path) == 0:
            raise ValueError("empty path")
        edges = _edges_for_node_path(graph, list(path))
    edges = list(edges)
    dist = path_distribution(graph, edges, cap=T + 1)
    for a, b in zip(edges, edges[1:]):
        if graph.edge_heads[a] != graph.edge_tails[b]:
            raise ValueError(f"edges {a} and {b} are not consecutive")
    return dist.cdf(T)


"""Shared fixtures, random-instance builders, and independent oracles."""

from __future__ import annotations

import base64
import copy
import json
import math
import pickle
import random
from pathlib import Path

import numpy as np
import pytest

import reliroute as rr
from reliroute.models import TAIL_EPS
from reliroute.potentials import _lower_along_optimal_paths

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE_PATH = REPO_ROOT / "fixtures" / "appendix_a.json"

#: Ways to copy an object that must each go through its constructor, by test id.
COPIERS = {"pickle": lambda obj: pickle.loads(pickle.dumps(obj)), "copy": copy.copy, "deepcopy": copy.deepcopy}


@pytest.fixture(scope="session")
def fixture_graph():
    return rr.load_graph(FIXTURE_PATH)


def edge_by_label(graph, label):
    for e in range(graph.num_edges):
        if graph.edge_label(e) == label:
            return e
    raise ValueError(f"no edge labelled {label!r}")


def literal_mass(dist):
    """A dense literal's masses as a list, from either dense form."""
    if "mass_f64" in dist:
        return np.frombuffer(base64.b64decode(dist["mass_f64"]), "<f8").tolist()
    return dist["mass"]


def dense_list_form(doc):
    """The same document with every dense literal's masses as a ``mass`` list."""
    edges = []
    for e in doc["edges"]:
        dist = {k: v for k, v in e["dist"].items() if k != "mass_f64"}
        edges.append(dict(e, dist=dict(dist, mass=literal_mass(e["dist"]))))
    return dict(doc, edges=edges)


def edit_table_file(path, edit):
    """Rewrite the policy table or potentials archive file at ``path`` after
    ``edit(doc)``: ``doc`` holds the fields of its JSON header and its arrays
    (``u`` and ``w``, or ``assignment`` and ``phi``)."""
    with np.load(path) as data:
        doc = dict(json.loads(str(data["meta"])), **{name: data[name] for name in data.files if name != "meta"})
    edit(doc)
    arrays = {name: doc.pop(name) for name in list(doc) if isinstance(doc[name], np.ndarray)}
    with open(path, "wb") as handle:
        np.savez_compressed(handle, meta=json.dumps(doc), **arrays)


def random_edge_dist(rng, max_delta=5, max_width=6, dt=1.0):
    delta = rng.randint(1, max_delta)
    width = rng.randint(1, max_width)
    mass = np.zeros(delta + width)
    for k in range(width):
        mass[delta + k] = rng.random() + 0.01
    mass /= mass.sum()
    return rr.DiscreteDistribution(mass, dt=dt)


def random_connected_graph(rng, max_nodes=10, max_extra_edges=20, min_nodes=2,
                           max_delta=5, max_width=6):
    """Random multigraph with a guaranteed directed 0 -> n-1 path.

    Returns ``(graph, source_id, dest_id)``; node ids are 0..n-1 integers.
    """
    n = rng.randint(min_nodes, max_nodes)
    nodes = [(i, rng.random() * 10, rng.random() * 10) for i in range(n)]
    middle = list(range(1, n - 1))
    rng.shuffle(middle)
    chain = [0, *middle, n - 1]
    pairs = list(zip(chain, chain[1:]))
    for _ in range(rng.randint(0, max_extra_edges)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            pairs.append((a, b))
    edges = [
        (a, b, random_edge_dist(rng, max_delta=max_delta, max_width=max_width))
        for a, b in pairs
    ]
    return rr.StochasticGraph(1.0, nodes, edges), 0, n - 1


def four_node_graph():
    """``s->b->d`` (0.7 within 4 bins) beats both ``s->a->d`` paths over
    parallel edges (0.6 and 0.5), yet the policy toward ``d`` goes from ``s``
    to ``a`` at every budget, so ``s->b`` is never a policy successor."""

    def dist(pmf):
        mass = np.zeros(max(pmf) + 1)
        mass[list(pmf)] = list(pmf.values())
        return rr.DiscreteDistribution(mass)

    return rr.StochasticGraph(
        1.0,
        [("s", 0.0, 0.0), ("a", 1.0, 1.0), ("b", 1.0, -1.0), ("d", 2.0, 0.0)],
        [("s", "a", dist({1: 0.5, 2: 0.5})), ("s", "b", dist({1: 1.0})), ("a", "d", dist({1: 0.6, 4: 0.4})),
         ("a", "d", dist({3: 1.0})), ("b", "d", dist({3: 0.7, 9: 0.3}))],
    )


def faint_edge_graph():
    """``a -> d`` takes 1 bin with probability 1e-13 and 50 bins otherwise,
    and ``a -> b -> d`` takes 11 bins.  Below budget 11, ``a -> b``, the
    smaller edge, is worth exactly 0, within ``EXACT_TOL`` of ``a -> d``'s
    1e-13; a successor must be able to arrive, so there it is ``a -> d``.
    """
    pmf = rr.DiscreteDistribution.from_pairs
    return rr.StochasticGraph(
        1.0,
        [("a", 0.0, 0.0), ("b", 1.0, 1.0), ("d", 2.0, 0.0)],
        [("a", "b", pmf([[1, 1.0]])), ("a", "d", pmf([[1, 1e-13], [50, 1.0 - 1e-13]])),
         ("b", "d", pmf([[10, 1.0]]))],
    )


def shifted_gamma_oracle(min_bin, mean_delay, cov, dt=1.0):
    """One edge's gamma-delay PMF, discretized on its own; the reference for
    ``rr.models.shifted_gamma_pmfs``, which must match it bit for bit.

    Shares no code with the batch: one ``gammaincinv`` and one ``gammainc``
    call per edge, over that edge's bin midpoints only.
    """
    if min_bin < 1:
        raise ValueError("edge distributions must have their minimum travel time at bin 1 or later")
    if mean_delay < 0:
        raise ValueError(f"mean delay must be nonnegative, got {mean_delay}")
    if cov < 0:
        raise ValueError(f"coefficient of variation must be nonnegative, got {cov}")
    if mean_delay == 0.0 or cov == 0.0:
        return rr.DiscreteDistribution.point_mass(min_bin + int(round(mean_delay / dt)), dt=dt)

    from scipy import special

    shape = 1.0 / (cov * cov)
    scale = mean_delay * cov * cov
    last = int(math.ceil(special.gammaincinv(shape, 1.0 - TAIL_EPS) * scale / dt)) + 1
    edges = (np.arange(last + 1) + 0.5) * dt
    cdf = special.gammainc(shape, edges / scale)
    pmf = np.empty(last + 1)
    pmf[0] = cdf[0]
    pmf[1:] = np.diff(cdf)
    pmf[-1] += 1.0 - pmf.sum()
    full = np.zeros(min_bin + last + 1)
    full[min_bin:] = pmf
    return rr.DiscreteDistribution(full, dt=dt)


def reference_policy(graph, dest, T):
    """Plain-Python evaluation of the dynamic program; the slow oracle.

    Deliberately shares no code with the solver: explicit loops, explicit
    sums, first-maximizer ties in canonical edge order.
    """
    d = graph.node_index(dest)
    V = graph.num_nodes
    u = np.zeros((V, T + 1))
    w = np.full((V, T + 1), rr.NO_EDGE, dtype=np.int64)
    u[d, :] = 1.0
    for t in range(1, T + 1):
        for i in range(V):
            if i == d:
                continue
            best, best_edge = 0.0, rr.NO_EDGE
            for e in graph.out_edges[i]:
                j = int(graph.edge_heads[e])
                mass = graph.edge_dists[e].mass
                total = 0.0
                for tau in range(1, min(t, len(mass) - 1) + 1):
                    if mass[tau] > 0.0:
                        total += mass[tau] * u[j, t - tau]
                if total > best:
                    best, best_edge = total, int(e)
            u[i, t] = best
            w[i, t] = best_edge
    return u, w


def direct_policy(graph, dest, T, edge_mask=None):
    """The dynamic program by explicit sums, one budget at a time; the oracle
    that ``compute_policy`` must match, with its successor rule.

    Shares no code with the solver.  Each ``u_ij(t)`` is one ``einsum`` of the
    edge's reversed kernel, a contiguous row over bins ``span - 1 .. 1``, with
    ``u_j`` over the budgets before ``t``.  ``w[i, t]`` is the smallest kept
    edge whose sum is positive and within ``EXACT_TOL`` of the best, or
    ``NO_EDGE`` where no sum is positive, and ``u[i, t]`` the running maximum
    of ``min(best, 1)``.
    """
    d = graph.node_index(dest)
    keep = np.ones(graph.num_edges, dtype=bool) if edge_mask is None else np.asarray(edge_mask, dtype=bool)
    edges = np.flatnonzero(keep & (graph.edge_tails != d))
    u = np.zeros((graph.num_nodes, T + 1))
    w = np.full((graph.num_nodes, T + 1), rr.NO_EDGE, dtype=np.int32)
    u[d, :] = 1.0
    if len(edges):
        heads, tails = graph.edge_heads[edges], graph.edge_tails[edges]
        span = max(graph.edge_dists[e].support_end for e in edges)
        rev = np.zeros((len(edges), span - 1))  # rev[k, j] = p(span - 1 - j)
        for k, e in enumerate(edges):
            mass = graph.edge_dists[e].mass
            rev[k, span - len(mass) :] = mass[:0:-1]
        # slots[n, s] is the row of the s-th kept out-edge of node nodes[n];
        # -1 pads rows of nodes with fewer edges.
        nodes = np.unique(tails)
        slots = np.full((len(nodes), np.bincount(tails).max()), -1)
        for n, i in enumerate(nodes):
            rows = np.flatnonzero(tails == i)
            slots[n, : len(rows)] = rows
        for t in range(1, T + 1):
            lo = max(0, t - (span - 1))
            vals = np.einsum("ej,ej->e", rev[:, span - 1 - (t - lo) :], u[heads, lo:t])
            # A pad reads 0, so it is never near.  The sums add nonnegative
            # terms, so a sum is 0 exactly when no term is positive.
            table = np.where(slots >= 0, vals[slots], 0.0)
            best = table.max(axis=1)
            first = np.argmax((table > 0.0) & (table >= best[:, None] - rr.EXACT_TOL), axis=1)
            u[nodes, t] = np.maximum(np.minimum(best, 1.0), u[nodes, t - 1])
            w[nodes, t] = np.where(best > 0.0, edges[slots[np.arange(len(nodes)), first]], rr.NO_EDGE)
    return rr.PolicyTable(dest=dest, u=u, w=w, graph_digest=graph.digest)


def edge_evaluation(graph, u, edge, t):
    """One u_ij(t) sum recomputed directly from a stored u table."""
    j = int(graph.edge_heads[edge])
    mass = graph.edge_dists[edge].mass
    return float(
        sum(mass[tau] * u[j, t - tau] for tau in range(1, min(t, len(mass) - 1) + 1))
    )


def brute_force_paths(graph, source, dest, T, max_nodes=12):
    """Every loop-free path with its reliability, most reliable first.

    Exhaustive enumeration is exponential, so this refuses graphs larger than
    ``max_nodes``; it exists as the independent oracle for the guided search.
    Ties are ordered by shorter path, then lexicographic node sequence.
    """
    if graph.num_nodes > max_nodes:
        raise ValueError(
            f"graph has {graph.num_nodes} nodes; brute force is limited to {max_nodes}"
        )
    s, d = graph.node_index(source), graph.node_index(dest)
    results = []
    nodes_path = [s]
    edges_path = []
    on_path = {s}

    def visit():
        last = nodes_path[-1]
        if last == d and edges_path:
            dist = rr.path_distribution(graph, edges_path, cap=T + 1)
            rel = dist.cdf(T)
            results.append(
                rr.FoundPath(
                    nodes=tuple(graph.node_ids[i] for i in nodes_path),
                    edges=tuple(edges_path),
                    reliability=rel,
                    key_at_pop=rel,
                )
            )
            return
        for e in graph.out_edges[last]:
            j = int(graph.edge_heads[e])
            if j in on_path:
                continue
            nodes_path.append(j)
            edges_path.append(int(e))
            on_path.add(j)
            visit()
            on_path.discard(j)
            edges_path.pop()
            nodes_path.pop()

    if s == d:
        results.append(rr.FoundPath(nodes=(graph.node_ids[s],), edges=(), reliability=1.0, key_at_pop=1.0))
    else:
        visit()
    results.sort(key=lambda p: (-p.reliability, len(p.edges), p.nodes))
    return results


def brute_force_best_path(graph, source, dest, T, max_nodes=12):
    """The most reliable loop-free path by exhaustive enumeration.

    Returns ``None`` when no path exists.  Ties resolve to the
    lexicographically smallest node sequence.
    """
    ranked = brute_force_paths(graph, source, dest, T, max_nodes=max_nodes)
    if not ranked:
        return None
    return min(ranked, key=lambda p: (-p.reliability, p.nodes))


def forward_reachability_oracle(graph, policy, source, T, initial_budgets="exact"):
    """Independent forward BFS over (node, budget) states; the oracle that
    ``compute_realizability`` must match."""
    reached = np.zeros((graph.num_nodes, T + 1), dtype=bool)
    edge_first = np.full(graph.num_edges, rr.INFINITE_POTENTIAL, dtype=np.int64)
    sources = source if isinstance(source, (list, tuple)) else [source]
    stack = []
    for s in sources:
        si = graph.node_index(s)
        budgets = [T] if initial_budgets == "exact" else list(range(T + 1))
        for t in budgets:
            if not reached[si, t]:
                reached[si, t] = True
                stack.append((si, t))
    while stack:
        i, t = stack.pop()
        e = int(policy.w[i, t])
        if e == rr.NO_EDGE:
            continue
        edge_first[e] = min(edge_first[e], t)
        j = int(graph.edge_heads[e])
        for tau in np.nonzero(graph.edge_dists[e].mass)[0]:
            t2 = t - int(tau)
            if t2 >= 0 and not reached[j, t2]:
                reached[j, t2] = True
                stack.append((j, t2))
    return rr.RealizabilityFlags(reached, edge_first)


def per_destination_potentials(graph, partition, region, T, mode="policy", sources=None):
    """Activation potentials from one ``compute_policy`` per region
    destination, each building its own kernels; the oracle for
    ``compute_arc_potentials``, whose solves share them.

    Policy mode takes, by explicit loops, the least budget at which each edge
    is some destination's successor at a node (reached from ``sources`` by
    ``forward_reachability_oracle``, when given).  Path mode lowers ``phi``
    along optimal paths from each source, as the library does, on these
    tables.
    """
    phi = np.full(graph.num_edges, rr.INFINITE_POTENTIAL, dtype=np.int64)
    for d in partition.regions[region]:
        pol = rr.compute_policy(graph, graph.node_ids[d], T)
        if mode == "path":
            for row in map(graph.node_index, sources):
                if row != d:
                    _lower_along_optimal_paths(phi, graph, pol, row, T)
            continue
        if sources is not None:
            reached = forward_reachability_oracle(graph, pol, list(sources), T, initial_budgets="any").reached
        for i in range(graph.num_nodes):
            for t in range(T + 1):
                e = int(pol.w[i, t])
                if e != rr.NO_EDGE and (sources is None or reached[i, t]):
                    phi[e] = min(phi[e], t)
    return phi


def rollout_policy(graph, policy, source, T, rng):
    """Simulate one trip following the policy from ``(source, T)``.

    Returns ``(edges traversed, arrived on time)``.  The traveller commits to
    the policy's edge before its travel time realizes; a trip that overruns
    the budget stops at the next node.
    """
    i = graph.node_index(source)
    d = graph.node_index(policy.dest)
    t = T
    edges = []
    while i != d:
        if t < 0:
            return edges, False
        e = int(policy.w[i, t])
        if e == rr.NO_EDGE:
            return edges, False
        edges.append(e)
        mass = graph.edge_dists[e].mass
        tau = int(rng.choices(range(len(mass)), weights=mass)[0])
        t -= tau
        i = int(graph.edge_heads[e])
    return edges, t >= 0

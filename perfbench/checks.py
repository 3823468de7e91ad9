"""Output checks computed apart from reliroute.

Every check here re-derives its expectation with plain NumPy from the graph's
edge PMFs and never calls the library's own evaluators: path reliabilities
are convolved here, the Bellman equation is re-evaluated here, and
realizability is re-derived by a budget sweep written here.  Each check
returns a list of error strings; an empty list means the result passed.
"""

from __future__ import annotations

import numpy as np

#: Tolerance on path reliabilities and on bounds between them.
REL_TOL = 1e-9
#: Tolerance on single policy-table cells.
CELL_TOL = 1e-12
#: The library's "no successor" marker in ``w`` (``reliroute.policy.NO_EDGE``).
NO_EDGE = -1


def path_reliability(graph, edges, T: int) -> float:
    """On-time probability of an edge sequence within ``T`` bins."""
    q = np.ones(1)
    for e in edges:
        q = np.convolve(q, graph.edge_dists[int(e)].mass)[: T + 1]
    return float(q[: T + 1].sum())


def check_path(graph, source, dest, found, T: int, u_bound: float, floor: float | None) -> list[str]:
    """A returned path is a loop-free source-to-destination walk whose stated
    reliability matches an independent convolution and lies between the
    ``floor`` (a known path's reliability; ``None`` skips it) and ``u_bound``."""
    errors = []
    nodes, edges = list(found.nodes), [int(e) for e in found.edges]
    if not nodes or nodes[0] != source or nodes[-1] != dest:
        errors.append(f"path {nodes[:1]}..{nodes[-1:]} does not run {source!r} -> {dest!r}")
    if len(edges) != len(nodes) - 1:
        errors.append(f"path has {len(nodes)} nodes but {len(edges)} edges")
    else:
        for pos, e in enumerate(edges):
            tail, head = int(graph.edge_tails[e]), int(graph.edge_heads[e])
            if tail != graph.node_index(nodes[pos]) or head != graph.node_index(nodes[pos + 1]):
                errors.append(f"edge #{pos} ({e}) does not join {nodes[pos]!r} -> {nodes[pos + 1]!r}")
                break
    if len(set(nodes)) != len(nodes):
        errors.append("path repeats a node")
    if errors:
        return errors
    rel = path_reliability(graph, edges, T)
    if abs(rel - found.reliability) > REL_TOL:
        errors.append(f"stated reliability {found.reliability!r} != convolved {rel!r}")
    if found.reliability > u_bound + REL_TOL:
        errors.append(f"reliability {found.reliability!r} exceeds the policy bound {u_bound!r}")
    if floor is not None and found.reliability < floor - REL_TOL:
        errors.append(f"reliability {found.reliability!r} below the LET path's {floor!r}")
    return errors


def check_ranking(paths) -> list[str]:
    """k-best lists are non-increasing in reliability and hold distinct paths."""
    errors = []
    rels = [p.reliability for p in paths]
    if any(b > a for a, b in zip(rels, rels[1:])):
        errors.append(f"ranked reliabilities increase: {rels}")
    if len({tuple(p.edges) for p in paths}) != len(paths):
        errors.append("ranked list repeats a path")
    return errors


def check_bellman(graph, table, dest_index: int, cells, edge_mask=None) -> list[str]:
    """On each sampled ``(node, t)`` cell, ``u`` equals the best one-step
    expectation over the node's active out-edges and ``w`` attains it."""
    errors = []
    u, w = table.u, table.w
    if not np.all(u[dest_index] == 1.0):
        errors.append("u at the destination is not 1")
    for i, t in cells:
        i, t = int(i), int(t)
        if i == dest_index:
            continue
        vals = {}
        for e in graph.out_edges[i]:
            e = int(e)
            if edge_mask is not None and not edge_mask[e]:
                continue
            mass = graph.edge_dists[e].mass[: t + 1]
            j = int(graph.edge_heads[e])
            vals[e] = float(np.dot(mass, u[j, t::-1][: len(mass)]))
        best = min(max(vals.values(), default=0.0), 1.0)
        if abs(u[i, t] - best) > CELL_TOL:
            errors.append(f"u[{i},{t}] = {float(u[i, t])!r}, Bellman gives {best!r}")
            continue
        chosen = int(w[i, t])
        if u[i, t] == 0.0:
            if chosen != NO_EDGE:
                errors.append(f"w[{i},{t}] = {chosen} where u is 0")
        elif chosen not in vals or vals[chosen] < best - CELL_TOL:
            errors.append(f"w[{i},{t}] = {chosen} does not attain the maximum {best!r}")
    return errors


def sample_cells(rng, num_nodes: int, horizon: int, count: int):
    return [(rng.randrange(num_nodes), rng.randrange(horizon + 1)) for _ in range(count)]


def reachable_states(graph, table, source_indices, T: int) -> np.ndarray:
    """(node, remaining budget) states a traveller following ``w`` can occupy
    when leaving any source with any budget ``0..T``.

    Every travel time is at least one bin, so a state only feeds states with a
    strictly smaller budget; sweeping budgets downward settles each one
    before it propagates.
    """
    reached = np.zeros((graph.num_nodes, T + 1), dtype=bool)
    reached[list(source_indices), :] = True
    supports = [np.nonzero(d.mass)[0] for d in graph.edge_dists]
    for t in range(T, -1, -1):
        for i in np.nonzero(reached[:, t])[0]:
            e = int(table.w[i, t])
            if e == NO_EDGE:
                continue
            taus = supports[e]
            reached[int(graph.edge_heads[e]), t - taus[taus <= t]] = True
    return reached


def check_realizability(graph, table, source_indices, T: int, flags) -> list[str]:
    expected = reachable_states(graph, table, source_indices, T)
    if flags.reached.shape != expected.shape:
        return [f"realizability shape {flags.reached.shape} != {expected.shape}"]
    diff = np.argwhere(flags.reached != expected)
    if len(diff):
        i, t = diff[0]
        return [f"realizability differs on {len(diff)} states, first (node {i}, budget {t})"]
    return []

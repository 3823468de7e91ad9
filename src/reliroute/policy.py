"""On-time-arrival policy computation.

For a destination ``d`` and horizon ``T`` the solver fills, for every node
``i`` and every remaining budget ``t``:

    u_ij(t) = sum_{tau >= delta_ij} u_j(t - tau) * p_ij(tau)
    u_i(t)  = max_j u_ij(t)          (probability of arriving on time)
    w_i(t)  = argmax_j u_ij(t)       (edge to take next)
    u_d(.)  = 1

Because every edge's minimum travel time is at least one bin, ``u_i(t)``
depends only on values at strictly smaller budgets, so the solver sweeps the
budgets ``t = 1..T`` once, in blocks of the least minimum travel time, by
partitioned FFT convolution.  Edge values within ``EXACT_TOL`` of the best
count as ties and go to the smallest edge, so FFT rounding can change a
successor only where two values differ by almost exactly ``EXACT_TOL``.

A single solve is sequential; many solves (e.g. different destinations) can
run in parallel over the shared immutable graph, and a finished
:class:`PolicyTable` is immutable and shareable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .distributions import EXACT_TOL
from .network import StochasticGraph

#: Sentinel in the successor table for "no edge offers positive probability".
NO_EDGE = -1


@dataclass
class PolicyTable:
    """Per-node arrival probabilities and successor edges toward one destination.

    ``u[i, t]`` is the probability of reaching the destination from node ``i``
    within ``t`` bins under the optimal policy; ``w[i, t]`` is the edge to
    traverse next (``NO_EDGE`` when ``u[i, t] == 0``).  Rows are indexed by
    graph node index.  Immutable once built; share freely.
    """

    dest: object
    horizon: int
    dt: float
    u: np.ndarray
    w: np.ndarray
    node_ids: tuple = field(default_factory=tuple, repr=False)

    def check_graph(self, graph: StochasticGraph) -> None:
        """Raise ``ValueError`` unless the table's rows are ``graph``'s nodes
        and its budgets count bins of ``graph``'s ``dt``."""
        if self.w.shape[0] != graph.num_nodes:
            raise ValueError(
                f"policy table has {self.w.shape[0]} node rows but the graph has "
                f"{graph.num_nodes} nodes; it was built for another graph"
            )
        if self.node_ids and tuple(self.node_ids) != graph.node_ids:
            raise ValueError("policy table's node ids differ from the graph's; it was built for another graph")
        if self.dt != graph.dt:
            raise ValueError(f"policy table has dt={self.dt} but the graph has dt={graph.dt}")

    def save(self, target) -> None:
        """Write the table, keyed by (destination, horizon, dt).

        ``.json`` targets get a readable dump; anything else is a compressed
        ``npz`` with a JSON header.
        """
        meta = {
            "destination": self.dest,
            "horizon": self.horizon,
            "dt": self.dt,
            "nodes": list(self.node_ids),
        }
        target = Path(target)
        if target.suffix == ".json":
            doc = dict(meta, u=self.u.tolist(), w=self.w.tolist())
            target.write_text(json.dumps(doc))
        else:
            np.savez_compressed(target, meta=json.dumps(meta), u=self.u, w=self.w)

    @classmethod
    def load(cls, source) -> "PolicyTable":
        source = Path(source)
        try:
            if source.suffix == ".json":
                meta = json.loads(source.read_text())
                u = np.array(meta["u"], dtype=np.float64)
                w = np.array(meta["w"], dtype=np.int32)
            else:
                with np.load(source) as data:
                    meta = json.loads(str(data["meta"]))
                    u, w = data["u"], data["w"]
            dest, horizon, dt = meta["destination"], int(meta["horizon"]), float(meta["dt"])
        except KeyError as exc:
            raise ValueError(f"policy table document is missing a field: {exc}") from None
        if u.shape != w.shape or u.ndim != 2 or u.shape[1] != horizon + 1:
            raise ValueError(
                f"policy table's u has shape {u.shape} and its w {w.shape}; both need one row "
                f"per node and one column per budget 0..{horizon}"
            )
        u.setflags(write=False)
        w.setflags(write=False)
        return cls(
            dest=dest,
            horizon=horizon,
            dt=dt,
            u=u,
            w=w,
            node_ids=tuple(meta.get("nodes", ())),
        )


# ---------------------------------------------------------------------------
# solver


def _edge_mask(graph: StochasticGraph, edge_mask) -> np.ndarray:
    """One boolean per edge of ``graph``: the edges ``edge_mask`` keeps, or all."""
    mask = np.ones(graph.num_edges, dtype=bool) if edge_mask is None else np.asarray(edge_mask, dtype=bool)
    if mask.shape != (graph.num_edges,):
        raise ValueError(f"edge mask has shape {mask.shape} but the graph has {graph.num_edges} edges")
    return mask


class _EdgeArrays:
    """Dense per-edge arrays for the active (unmasked) edge set, excluding
    edges out of the destination (the policy never leaves it).  ``kernels``
    holds one PMF per row, zero-padded to a multiple of the block length ``D``."""

    def __init__(self, graph: StochasticGraph, d: int, edge_mask):
        self.orig = np.nonzero(_edge_mask(graph, edge_mask) & (graph.edge_tails != d))[0]
        tails = graph.edge_tails[self.orig]
        self.heads = graph.edge_heads[self.orig]
        dists = [graph.edge_dists[e] for e in self.orig]
        self.mins = np.array([dist.min_bin for dist in dists], dtype=np.int64)
        self.D = int(self.mins.min()) if len(dists) else 1
        span = max((dist.support_end for dist in dists), default=1)
        self.kernels = np.zeros((len(dists), -(-span // self.D) * self.D))
        for row, dist in enumerate(dists):
            self.kernels[row, : dist.support_end] = dist.mass
        # Edges arrive sorted by (tail, head, declaration); group by tail.
        new_group = np.diff(tails, prepend=-1) != 0
        self.group_starts = np.flatnonzero(new_group)
        self.group_tails = tails[self.group_starts]
        self.group_of_edge = np.cumsum(new_group) - 1


def _write_step(U, W, t0, arrays: _EdgeArrays, vals):
    """Reduce edge evaluations ``vals[e, k]`` at budgets ``t0 + k`` into u and w.

    Values within ``EXACT_TOL`` count as equal, so that convolution rounding
    never decides the successor; ``u`` is the exact running maximum.
    """
    gmax = np.maximum.reduceat(vals, arrays.group_starts, axis=0)
    candidates = np.where(vals >= gmax[arrays.group_of_edge] - EXACT_TOL, np.arange(len(vals))[:, None], len(vals))
    winner = np.minimum.reduceat(candidates, arrays.group_starts, axis=0)
    tails, t1 = arrays.group_tails, t0 + vals.shape[1]
    best = np.minimum(gmax, 1.0)
    U[tails, t0:t1] = np.maximum.accumulate(np.maximum(best, U[tails, t0 - 1 : t0]), axis=1)
    W[tails, t0:t1] = np.where(best > 0.0, arrays.orig[winner], NO_EDGE)


def _sweep_blocks(T, arrays: _EdgeArrays, U, W):
    """Sweep the budgets in blocks of ``D``, the least minimum travel time.

    No kernel has mass below ``D`` bins, so block ``b``, budgets
    ``[bD, bD + D)``, reads only earlier blocks and is computed at once by
    uniformly partitioned overlap-save convolution: partition ``k`` of each
    kernel, bins ``[kD, kD + D)``, meets the window of blocks ``b - k - 1``
    and ``b - k``.
    """
    D, heads, mins = arrays.D, arrays.heads, arrays.mins
    if T < D:
        return  # nothing arrives within the horizon
    first_mass = arrays.kernels[np.arange(len(heads)), mins]
    # Partition 0 is empty, and partitions from T // D + 1 on never meet an
    # input window, so R partitions remain.
    R = min(arrays.kernels.shape[1] // D, T // D + 1) - 1
    # spectra[e, :, i] is partition R - i of edge e (partition axis last).
    parts = arrays.kernels[:, : (R + 1) * D].reshape(len(heads), R + 1, D)[:, :0:-1]
    spectra = np.ascontiguousarray(np.fft.rfft(parts, 2 * D, axis=2).transpose(0, 2, 1))
    # ring[:, :, j % R] is the spectrum of block j's window.  At block b,
    # slots [0, s) hold blocks b - s .. b - 1 and, from block R on, slots
    # [s, R) hold blocks b - R .. b - s - 1.
    ring = np.zeros_like(spectra)
    window = np.zeros((len(heads), 2 * D))
    for b in range(T // D + 1):
        if b:
            window[:, :D] = window[:, D:]
            window[:, D:] = U[heads, (b - 1) * D : b * D]
            ring[:, :, (b - 1) % R] = np.fft.rfft(window, axis=1)
        s = b % R
        acc = np.einsum("efk,efk->ef", ring[:, :, :s], spectra[:, :, R - s :])
        if b >= R:
            acc += np.einsum("efk,efk->ef", ring[:, :, s:], spectra[:, :, : R - s])
        out = np.fft.irfft(acc, 2 * D, axis=1)[:, D:]
        # U's rows never decrease, so the first support bin's term is a lower
        # bound that is zero exactly when the sum is, whatever FFT rounding.
        lag = np.arange(b * D, b * D + D) - mins[:, None]
        low = np.where(lag >= 0, first_mass[:, None] * U[heads[:, None], np.maximum(lag, 0)], 0.0)
        out = np.where(low > 0.0, np.maximum(out, low), 0.0)
        t0 = max(b * D, 1)
        _write_step(U, W, t0, arrays, out[:, t0 - b * D : min(D, T + 1 - b * D)])


def compute_policy(
    graph: StochasticGraph,
    dest,
    T: int,
    edge_mask=None,
) -> PolicyTable:
    """Solve the dynamic program toward ``dest`` for budgets ``0..T``.

    ``edge_mask`` restricts the graph to the edges it marks, e.g. the mask that
    :func:`~reliroute.potentials.prune` returns.

    ``w[i, t]`` is the smallest edge within ``EXACT_TOL`` of the best edge at
    budget ``t``, or ``NO_EDGE`` where the best is 0.
    """
    if T < 0:
        raise ValueError(f"horizon must be nonnegative, got {T}")
    d = graph.node_index(dest)

    # Tables before edge arrays: the other order read ~5 MB more peak RSS over repeated solves.
    U = np.zeros((graph.num_nodes, T + 1))
    W = np.full((graph.num_nodes, T + 1), NO_EDGE, dtype=np.int32)
    U[d, :] = 1.0
    arrays = _EdgeArrays(graph, d, edge_mask)

    if len(arrays.orig):
        _sweep_blocks(T, arrays, U, W)

    U.setflags(write=False)
    W.setflags(write=False)
    return PolicyTable(
        dest=dest,
        horizon=T,
        dt=graph.dt,
        u=U,
        w=W,
        node_ids=graph.node_ids,
    )

"""On-time-arrival policy computation.

For a destination ``d`` and horizon ``T`` the solver fills, for every node
``i`` and every remaining budget ``t``:

    u_ij(t) = sum_{tau >= delta_ij} u_j(t - tau) * p_ij(tau)
    u_i(t)  = max_j u_ij(t)          (probability of arriving on time)
    w_i(t)  = argmax_j u_ij(t)       (edge to take next)
    u_d(.)  = 1

Because every edge's minimum travel time is at least one bin, ``u_i(t)``
depends only on values at strictly smaller budgets, so the solver sweeps the
budgets ``t = 1..T`` once, updating every node at each step.

Two convolution backends are provided: ``direct`` evaluates the sums
explicitly (quadratic in the horizon for long kernels, and the equality
oracle for tests), while ``zdc`` streams the edges through zero-delay
convolvers for near-linear scaling in the horizon.

A single solve is sequential; many solves (e.g. different destinations) can
run in parallel over the shared immutable graph, and a finished
:class:`PolicyTable` is immutable and shareable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
    backend: str = "direct"
    node_ids: tuple = field(default_factory=tuple, repr=False)

    def u_of(self, graph: StochasticGraph, node_id) -> np.ndarray:
        return self.u[graph.node_index(node_id)]

    def success_probability(self, graph: StochasticGraph, node_id, t: int) -> float:
        return float(self.u[graph.node_index(node_id), t])

    def next_edge(self, graph: StochasticGraph, node_id, t: int) -> int | None:
        e = int(self.w[graph.node_index(node_id), t])
        return None if e == NO_EDGE else e

    def save(self, target) -> None:
        """Write the table, keyed by (destination, horizon, dt).

        ``.json`` targets get a readable dump; anything else is a compressed
        ``npz`` with a JSON header.
        """
        meta = {
            "destination": self.dest,
            "horizon": self.horizon,
            "dt": self.dt,
            "backend": self.backend,
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
        if source.suffix == ".json":
            doc = json.loads(source.read_text())
            u = np.array(doc["u"], dtype=np.float64)
            w = np.array(doc["w"], dtype=np.int32)
            meta = doc
        else:
            with np.load(source) as data:
                meta = json.loads(str(data["meta"]))
                u, w = data["u"], data["w"]
        u.setflags(write=False)
        w.setflags(write=False)
        return cls(
            dest=meta["destination"],
            horizon=int(meta["horizon"]),
            dt=float(meta["dt"]),
            u=u,
            w=w,
            backend=meta.get("backend", "direct"),
            node_ids=tuple(meta.get("nodes", ())),
        )


# ---------------------------------------------------------------------------
# solver engines


class _EdgeArrays:
    """Dense per-edge arrays for the active (unmasked) edge set, excluding
    edges out of the destination (the policy never leaves it)."""

    def __init__(self, graph: StochasticGraph, d: int, edge_mask):
        keep = np.ones(graph.num_edges, dtype=bool) if edge_mask is None else np.asarray(edge_mask, dtype=bool).copy()
        if len(keep) != graph.num_edges:
            raise ValueError("edge mask length does not match the edge count")
        keep &= graph.edge_tails != d
        self.orig = np.nonzero(keep)[0]
        self.tails = graph.edge_tails[self.orig]
        self.heads = graph.edge_heads[self.orig]
        self.dists = [graph.edge_dists[e] for e in self.orig]
        self.mins = np.array([dist.min_bin for dist in self.dists], dtype=np.int64)
        # Edges arrive sorted by (tail, head, declaration); group by tail.
        boundaries = np.nonzero(np.diff(self.tails))[0] + 1
        self.group_starts = np.concatenate([[0], boundaries]) if len(self.tails) else np.zeros(0, dtype=np.int64)
        self.group_tails = self.tails[self.group_starts] if len(self.tails) else np.zeros(0, dtype=np.int64)
        self.group_of_edge = np.repeat(np.arange(len(self.group_starts)), np.diff(np.concatenate([self.group_starts, [len(self.tails)]]))) if len(self.tails) else np.zeros(0, dtype=np.int64)


def _write_step(U, W, t, arrays: _EdgeArrays, vals):
    """Reduce per-edge evaluations at budget ``t`` into u and w rows."""
    if len(vals) == 0:
        return
    gmax = np.maximum.reduceat(vals, arrays.group_starts)
    candidates = np.where(vals >= gmax[arrays.group_of_edge], np.arange(len(vals)), len(vals))
    winner = np.minimum.reduceat(candidates, arrays.group_starts)
    tails = arrays.group_tails
    best = np.minimum(gmax, 1.0)
    prev_u = U[tails, t - 1] if t > 0 else np.zeros(len(tails))
    improved = best >= prev_u
    U[tails, t] = np.where(improved, best, prev_u)
    w_new = np.where(best > 0.0, arrays.orig[np.minimum(winner, len(vals) - 1)], NO_EDGE)
    W[tails, t] = np.where(improved, w_new, W[tails, t - 1] if t > 0 else NO_EDGE)


def _sweep_direct(T, arrays: _EdgeArrays, U, W):
    n_edges = len(arrays.orig)
    if n_edges == 0:
        return
    max_tau = max(dist.support_end - 1 for dist in arrays.dists)
    prev = np.zeros((n_edges, max_tau))  # prev[e, j] = p_e(max_tau - j)
    for row, dist in enumerate(arrays.dists):
        m = dist.mass
        prev[row, max_tau - len(m) + 1 :] = m[:0:-1]
    heads = arrays.heads
    for t in range(1, T + 1):
        lo = max(0, t - max_tau)
        window = U[heads, lo:t]
        vals = np.einsum("ej,ej->e", prev[:, max_tau - (t - lo) :], window)
        _write_step(U, W, t, arrays, vals)


#: Kernel segments at offsets of at least this many bins go through cached FFTs;
#: earlier, shorter ones are applied directly.
_CROSSOVER = 32


class _ZdcGroup:
    """All active edges sharing one minimum travel time, streamed together.

    Each output ``y(t) = sum_tau x(t - tau) * p(tau)`` is needed as soon as
    its inputs exist, because the sweep feeds the convolver with values
    computed from its own earlier outputs; buffering a block first, as plain
    FFT convolution does, would add latency the sweep cannot absorb.  So the
    kernel core is split at power-of-two offsets into segments of length 1,
    1, 2, 4, ...: the first tap is applied on every feed, and the segment at
    offset ``L`` once per ``L`` inputs, on the block just completed, which is
    always complete by the time the earliest output that needs it is read.
    Amortized work per bin is polylogarithmic in the horizon.
    """

    def __init__(self, rows, heads, dists, T):
        self.rows = rows
        self.heads = heads
        self.delta = dists[0].min_bin
        self.kmax = max(d.support_end - d.min_bin for d in dists)
        n = len(rows)
        cores = np.zeros((n, self.kmax))
        for r, d in enumerate(dists):
            core = d.mass[d.min_bin :]
            cores[r, : len(core)] = core
        self.h0 = np.ascontiguousarray(cores[:, 0])
        width = max(T - self.delta + 2, 1)
        self.acc = np.zeros((n, width + 2 * self.kmax + 2))
        self.levels = []
        offset = 1
        while offset < self.kmax:
            seg = cores[:, offset : min(2 * offset, self.kmax)]
            use_fft = offset >= _CROSSOVER
            fft = np.fft.rfft(seg, 2 * offset, axis=1) if use_fft else seg.copy()
            self.levels.append((offset, seg.shape[1], fft, use_fft))
            offset *= 2

    def step(self, U, t):
        """Feed sample ``t - delta`` and return this group's outputs at ``t``."""
        n = t - self.delta
        if n < 0:
            return None
        x = U[self.heads, n]
        self.acc[:, n] += x * self.h0
        for offset, seg_len, seg, use_fft in self.levels:
            if (n + 1) % offset == 0 and n + 1 >= offset:
                block = U[self.heads, n + 1 - offset : n + 1]
                if use_fft:
                    contrib = np.fft.irfft(np.fft.rfft(block, 2 * offset, axis=1) * seg, 2 * offset, axis=1)[
                        :, : offset + seg_len - 1
                    ]
                else:
                    contrib = np.zeros((len(self.rows), offset + seg_len - 1))
                    for j in range(seg_len):
                        contrib[:, j : j + offset] += seg[:, j : j + 1] * block
                self.acc[:, n + 1 : n + 1 + contrib.shape[1]] += contrib
        return self.acc[:, n]


def _sweep_zdc(T, arrays: _EdgeArrays, U, W):
    n_edges = len(arrays.orig)
    if n_edges == 0:
        return
    groups = []
    for delta in np.unique(arrays.mins):
        rows = np.nonzero(arrays.mins == delta)[0]
        groups.append(
            _ZdcGroup(rows, arrays.heads[rows], [arrays.dists[r] for r in rows], T)
        )
    vals = np.zeros(n_edges)
    for t in range(1, T + 1):
        vals[:] = 0.0
        for grp in groups:
            out = grp.step(U, t)
            if out is not None:
                vals[grp.rows] = out
        _write_step(U, W, t, arrays, np.maximum(vals, 0.0))


def compute_policy(
    graph: StochasticGraph,
    dest,
    T: int,
    backend: str = "zdc",
    pruning=None,
    edge_mask=None,
) -> PolicyTable:
    """Solve the dynamic program toward ``dest`` for budgets ``0..T``.

    ``backend`` selects the convolution engine (``zdc`` by default; ``direct``
    is the brute-force oracle and is faster for tiny horizons).  ``pruning``
    is an optional ``(PotentialTable, budget)`` pair: edges whose activation
    potential exceeds the budget are ignored.  ``edge_mask`` restricts the
    graph directly (both restrictions compose).

    Argmax ties break toward the smallest (head node, edge), so deterministic
    reruns yield identical successor tables.
    """
    if T < 0:
        raise ValueError(f"horizon must be nonnegative, got {T}")
    if backend not in ("direct", "zdc"):
        raise ValueError(f"unknown backend {backend!r}")
    d = graph.node_index(dest)

    mask = None
    if edge_mask is not None:
        mask = np.asarray(edge_mask, dtype=bool)
    if pruning is not None:
        table, budget = pruning
        pruned = table.edge_mask(budget)
        mask = pruned if mask is None else (mask & pruned)

    arrays = _EdgeArrays(graph, d, mask)
    U = np.zeros((graph.num_nodes, T + 1))
    W = np.full((graph.num_nodes, T + 1), NO_EDGE, dtype=np.int32)
    U[d, :] = 1.0

    if backend == "direct":
        _sweep_direct(T, arrays, U, W)
    else:
        _sweep_zdc(T, arrays, U, W)

    U.setflags(write=False)
    W.setflags(write=False)
    return PolicyTable(
        dest=dest,
        horizon=T,
        dt=graph.dt,
        u=U,
        w=W,
        backend=backend,
        node_ids=graph.node_ids,
    )

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

The sweep is a wavefront: ``u_ij(t)`` is exactly 0 below ``z_j + delta_ij``,
where ``z_j`` is node ``j``'s least time to ``d`` in minimum bins, so a tail
node's edges join the sweep at the first block that can reach that budget.
Rows are kept in that activation order, so the edges in play are a prefix
that is sliced, not gathered (within each reach class, see below).  The
window spectra are taken once per node and copied to every edge's ring row
each block, active or not, so an edge that joins late finds its head's
history.  Spectra and ring are stored partition-major and summed over
partitions in a fixed order.  Edges are convolved in classes of equal reach,
the last kernel partition that holds mass, and each class skips the
partitions past its reach: those terms are exact zeros at the start of each
run of the sum, so the tables are bit-identical to a sweep over every edge
and partition.

A single solve is sequential; many solves (e.g. different destinations) can
run in parallel over the shared immutable graph, and a finished
:class:`PolicyTable` is immutable and shareable.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .distributions import EXACT_TOL, _budget
from .network import StochasticGraph

_log = logging.getLogger(__name__)

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
        ``npz`` with a JSON header, written under exactly the name given.
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
            # Through a handle: given a name, numpy would append ".npz".
            with target.open("wb") as handle:
                np.savez_compressed(handle, meta=json.dumps(meta), u=self.u, w=self.w)

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


def _activation(num_nodes, d, group_tails, starts, heads, mins) -> np.ndarray:
    """Each tail group's activation budget: the least ``z[head] + min_bin`` over
    its edges, where ``z[i]`` is node ``i``'s least time to ``d`` in minimum
    bins (a huge sentinel where ``d`` is out of reach).  Relaxes every group
    at once until nothing changes, as many rounds as the longest least-time
    path has edges."""
    z = np.full(num_nodes, np.iinfo(np.int64).max // 2)
    z[d] = 0
    while True:
        act = np.minimum(z[group_tails], np.minimum.reduceat(z[heads] + mins, starts))
        if np.array_equal(act, z[group_tails]):
            return act
        z[group_tails] = act


class _EdgeArrays:
    """Dense per-edge arrays for the kept (unmasked) edges out of nodes other
    than the destination (the policy never leaves it), in two row orders.

    Reduction order, used by the per-row arrays: edge ``e`` evaluates to
    exactly 0 below budget ``z[head] + min_bin`` (see :func:`_activation`),
    and a tail group becomes active at the least of these over its edges.
    Groups are sorted by that budget, stably, and each keeps its edges in
    graph order, so the smallest edge is still the group's first row; groups
    that never activate by ``T`` are dropped.  The edges active by any budget
    are then a prefix of the rows.

    Convolution order, used by ``spectra``: the rows again, stably sorted by
    reach, the last kernel partition of ``D`` bins that holds mass (at most
    ``R``).  Each reach class is a run of rows whose active members are a
    prefix of the run.  ``conv`` maps a convolution row to its reduction row
    and ``conv_row`` back.

    ``D`` and the ``R`` partitions are set by every kept edge, dropped ones
    included, so the block layout does not depend on which groups are dropped.
    ``spectra`` holds the transforms of each row's kernel partitions 1..R,
    partition-major, and ``first_mass`` each row's mass at ``min_bin``, which
    may lie beyond the last partition.

    Without ``shared`` the spectra are built for these rows alone.  Solves
    toward several destinations pass one ``shared`` dict, which keeps the
    :func:`_transform` of every edge of the graph per ``(D, R)``, and gather
    their rows from it: the same numbers, transformed once."""

    def __init__(self, graph: StochasticGraph, d: int, T: int, edge_mask, shared: dict | None = None):
        kept = np.nonzero(_edge_mask(graph, edge_mask) & (graph.edge_tails != d))[0]
        self.num_kept = len(kept)
        runs = graph.edge_support[kept]
        tails, heads = graph.edge_tails[kept], graph.edge_heads[kept]
        mins = runs[:, 0, 0].astype(np.int64)
        ends = runs[:, :, 1].max(axis=1, initial=0).astype(np.int64) + 1
        self.D = int(mins.min()) if len(kept) else 1
        # Partition 0 is empty, and partitions from T // D + 1 on never meet an
        # input window, so R partitions remain.
        self.R = min(-(-int(ends.max(initial=1)) // self.D), T // self.D + 1) - 1
        # Edges arrive sorted by (tail, head, declaration); group by tail.
        starts = np.flatnonzero(np.diff(tails, prepend=-1) != 0)
        activation = _activation(graph.num_nodes, d, tails[starts], starts, heads, mins)
        order = np.argsort(activation, kind="stable")
        order = order[activation[order] <= T]
        sizes = np.diff(np.append(starts, len(kept)))[order]
        self.group_ends = np.cumsum(sizes)
        self.group_starts = self.group_ends - sizes
        rows = np.arange(sizes.sum()) + np.repeat(starts[order] - self.group_starts, sizes)
        self.orig, self.heads, self.mins = kept[rows], heads[rows], mins[rows]
        self.group_tails = tails[starts[order]]
        self.group_of_edge = np.repeat(np.arange(len(order)), sizes)
        self.activation = activation[order]
        self.rank = (len(rows) - np.arange(len(rows)))[:, None]

        reach = np.minimum((ends[rows] - 1) // self.D, self.R)
        self.conv = np.argsort(reach, kind="stable")
        self.conv_row = np.empty_like(self.conv)
        self.conv_row[self.conv] = np.arange(len(rows))
        self.class_starts = np.flatnonzero(np.diff(reach[self.conv], prepend=-1) != 0)
        self.class_reach = reach[self.conv][self.class_starts]
        edges = self.orig[self.conv]
        if shared is None:
            self.spectra, first = _transform(graph, edges, self.D, self.R)
        else:
            if (self.D, self.R) not in shared:
                shared[self.D, self.R] = _transform(graph, np.arange(graph.num_edges), self.D, self.R)
            spectra, first = shared[self.D, self.R]
            self.spectra, first = spectra.take(edges, axis=1), first[edges]
        self.first_mass = np.empty(len(rows))
        self.first_mass[self.conv] = first


def _transform(graph: StochasticGraph, edges, D: int, R: int):
    """The kernel partitions 1..R of ``D`` bins of each of ``edges``,
    transformed, and each edge's mass at its ``min_bin``.

    ``spectra[i, c]`` is the ``rfft`` over ``2 D`` bins of partition
    ``R - i``, bins ``[(R - i) D, (R - i) D + D)``, of ``edges[c]``.  Each
    row is transformed on its own, so a row's spectrum does not depend on
    which other edges are transformed with it.
    """
    # kernels[k, c] is partition k of edges[c].  They are freed on return,
    # before the sweep allocates its ring.
    kernels = np.zeros((R + 1, len(edges), D))
    first = np.empty(len(edges))
    for c, e in enumerate(edges):
        dist = graph.edge_dists[e]
        mass = dist.mass
        first[c] = mass[dist.min_bin]
        full, rest = divmod(min(len(mass), (R + 1) * D), D)
        kernels[:full, c] = mass[: full * D].reshape(full, D)
        if rest:
            kernels[full, c, :rest] = mass[full * D : full * D + rest]
    return np.fft.rfft(kernels[:0:-1], 2 * D, axis=2), first


def _write_step(U, W, t0, arrays: _EdgeArrays, groups, vals):
    """Reduce the first ``groups`` tail groups' edge evaluations ``vals[e, k]``
    at budgets ``t0 + k`` into u and w.

    Values within ``EXACT_TOL`` count as equal, so that convolution rounding
    never decides the successor; ``u`` is the exact running maximum.
    """
    n, k, starts = len(vals), vals.shape[1], arrays.group_starts[:groups]
    gmax = np.maximum.reduceat(vals, starts, axis=0)
    near = vals >= (gmax - EXACT_TOL).take(arrays.group_of_edge[:n], axis=0)
    # The first near row of a group has the largest rank, len(rows) - row.
    winner = len(arrays.rank) - np.maximum.reduceat(near * arrays.rank[:n], starts, axis=0)
    tails, t1 = arrays.group_tails[:groups], t0 + k
    best = np.minimum(gmax, 1.0)
    U[tails, t0:t1] = np.maximum.accumulate(np.maximum(best, U[tails, t0 - 1 : t0]), axis=1)
    W[tails, t0:t1] = np.where(best > 0.0, arrays.orig[winner], NO_EDGE)


def _sweep_blocks(T, arrays: _EdgeArrays, U, W) -> int:
    """Sweep the budgets in blocks of ``D``, the least minimum travel time, and
    return the number of edge-blocks convolved.

    No kernel has mass below ``D`` bins, so block ``b``, budgets
    ``[bD, bD + D)``, reads only earlier blocks and is computed at once by
    uniformly partitioned overlap-save convolution: partition ``k`` of each
    kernel, bins ``[kD, kD + D)``, meets the window of blocks ``b - k - 1``
    and ``b - k``.

    Only the tail groups active by the block's last budget take part (see
    :class:`_EdgeArrays`), and a block with none is skipped.  Each window is
    transformed once per node and copied to every edge's ring row, active or
    not, so an edge that joins late finds its head's earlier windows.

    Spectra and ring are partition-major, so the sum over partitions reads
    contiguous ``[edge, frequency]`` slabs.  The sum keeps one order, ring
    slots ``[0, s)`` and then ``[s, R)``, each from zero, because any other
    order rounds differently and can move a successor.  Within that order a
    reach class skips the partitions past its reach: they hold no mass and
    come first in both runs, so the terms skipped are exact zeros.
    """
    D, R, heads, spectra = arrays.D, arrays.R, arrays.heads, arrays.spectra
    rows, blocks = len(heads), T // D + 1
    # ring[j % R] is the spectrum of block j's window.  At block b, slots
    # [0, s) hold blocks b - s .. b - 1 and, from block R on, slots [s, R)
    # hold blocks b - R .. b - s - 1.  Slot i meets partition s - i in the
    # first run and R + s - i in the second.
    ring = np.zeros_like(spectra)
    conv_heads = heads[arrays.conv]
    window = np.zeros((len(U), 2 * D))
    # Buffers at full size, sliced to each block's active prefix.
    window_spectrum = np.empty((len(U), D + 1), dtype=spectra.dtype)
    acc = np.empty(spectra.shape[1:], dtype=spectra.dtype)
    second_run = np.empty_like(acc)
    summed = np.empty_like(acc)
    out = np.empty((rows, 2 * D))
    low = np.empty((rows, D))
    zero = np.empty((rows, D), dtype=bool)
    # cell[e, j] is the flat index of U[head, bD + j - min_bin] at block b;
    # U[head, 0] is row_start.
    row_start = (heads * U.shape[1])[:, None]
    cell = row_start - arrays.mins[:, None] + np.arange(D)
    first = arrays.first_mass[:, None]
    below_min = int(arrays.mins.max())
    groups = np.searchsorted(arrays.activation, np.arange(blocks) * D + D - 1, side="right")
    active = np.append(0, arrays.group_ends)[groups]
    bounds = np.append(arrays.class_starts, rows)
    # members[c, b]: the active rows of reach class c at block b.
    members = np.array([np.searchsorted(arrays.conv[lo:hi], active) for lo, hi in zip(bounds[:-1], bounds[1:])])
    for b in range(blocks):
        if b:
            window[:, :D] = window[:, D:]
            window[:, D:] = U[:, (b - 1) * D : b * D]
            np.fft.rfft(window, axis=1, out=window_spectrum)
            np.take(window_spectrum, conv_heads, axis=0, out=ring[(b - 1) % R])
            cell += D
        n = active[b]
        if not n:
            continue
        s = b % R
        for lo, reach, count in zip(arrays.class_starts, arrays.class_reach, members[:, b]):
            if not count:
                continue
            part = slice(lo, lo + count)
            i = max(s - reach, 0)
            np.einsum("kef,kef->ef", ring[i:s, part], spectra[R - s + i :, part], out=acc[part])
            if b >= R and reach > s:
                i = max(s, R + s - reach)
                np.einsum("kef,kef->ef", ring[i:, part], spectra[i - s : R - s, part], out=second_run[part])
                acc[part] += second_run[part]
        np.take(acc, arrays.conv_row[:n], axis=0, out=summed[:n])
        vals = np.fft.irfft(summed[:n], 2 * D, axis=1, out=out[:n])[:, D:]
        # U's rows never decrease, so the first support bin's term is a lower
        # bound that is zero exactly when the sum is, whatever FFT rounding.
        # Below an edge's min_bin it reads U[head, 0] and is zeroed.
        early = b * D < below_min
        index = np.maximum(cell[:n], row_start[:n]) if early else cell[:n]
        U.take(index, out=low[:n])
        np.multiply(low[:n], first[:n], out=low[:n])
        np.maximum(vals, low[:n], out=vals)
        np.less_equal(low[:n], 0.0, out=zero[:n])
        if early:
            zero[:n] |= index != cell[:n]
        np.copyto(vals, 0.0, where=zero[:n])
        t0 = max(b * D, 1)
        _write_step(U, W, t0, arrays, groups[b], vals[:, t0 - b * D : min(D, T + 1 - b * D)])
    return int(active.sum())


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
    return _solve(graph, dest, T, edge_mask)


def _solve(graph: StochasticGraph, dest, T: int, edge_mask=None, shared: dict | None = None) -> PolicyTable:
    """:func:`compute_policy`; solves toward several destinations of one
    graph share kernel transforms through one ``shared`` dict (see
    :class:`_EdgeArrays`), with tables bit-identical to solving alone."""
    T = _budget(T, "horizon")
    if T < 0:
        raise ValueError(f"horizon must be nonnegative, got {T}")
    d = graph.node_index(dest)
    start = time.perf_counter()

    # Tables before edge arrays: the other order read ~5 MB more peak RSS over repeated solves.
    U = np.zeros((graph.num_nodes, T + 1))
    W = np.full((graph.num_nodes, T + 1), NO_EDGE, dtype=np.int32)
    U[d, :] = 1.0
    arrays = _EdgeArrays(graph, d, T, edge_mask, shared)

    active = _sweep_blocks(T, arrays, U, W) if len(arrays.orig) else 0
    blocks = T // arrays.D + 1
    _log.debug(
        "policy toward %r, T=%d: %d blocks of D=%d, R=%d partitions, %d of %d edge-blocks active, %.4f s",
        dest, T, blocks, arrays.D, arrays.R, active, blocks * arrays.num_kept, time.perf_counter() - start,
    )

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

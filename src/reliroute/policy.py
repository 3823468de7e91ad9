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

from .distributions import EXACT_TOL, _integer
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
    graph node index; ``graph_digest`` is the graph's ``digest``.  Immutable
    once built; share freely.
    """

    dest: object
    horizon: int
    u: np.ndarray
    w: np.ndarray
    graph_digest: str = field(repr=False)

    def check_graph(self, graph: StochasticGraph) -> None:
        """Raise ``ValueError`` unless the table was computed on ``graph``:
        one row per node of ``graph``, and ``graph``'s digest."""
        if self.w.shape[0] != graph.num_nodes:
            raise ValueError(
                f"policy table has {self.w.shape[0]} node rows but the graph has "
                f"{graph.num_nodes} nodes; it was built for another graph"
            )
        if self.graph_digest != graph.digest:
            raise ValueError("policy table was built for another graph: its graph digest differs from the graph's")
        top = int(self.w.max(initial=NO_EDGE))
        if top >= graph.num_edges:
            raise ValueError(f"policy table's w names edge {top} but the graph has {graph.num_edges} edges")

    def save(self, target) -> None:
        """Write the table as a compressed ``npz`` with a JSON header of its
        destination, horizon and graph digest, under exactly the name given."""
        header = {"destination": self.dest, "horizon": self.horizon, "graph_digest": self.graph_digest}
        _write_table(target, "policy table", header, u=self.u, w=self.w)

    @classmethod
    def load(cls, source) -> "PolicyTable":
        """Read a table written by :meth:`save`.  Any other file, a missing
        field, a bad horizon, arrays that do not fit it, or contents that no
        solve produces (see :func:`_check_contents`) raise ``ValueError``."""
        doc = _read_table(source, "policy table", ("destination", "horizon", "graph_digest", "u", "w"))
        horizon, u, w = _integer(doc["horizon"], "policy table horizon"), doc["u"], doc["w"]
        fits = u.shape == w.shape and u.ndim == 2 and u.shape[1] == horizon + 1
        if not (fits and u.dtype.kind == "f" and w.dtype.kind in "iu"):
            raise ValueError(
                f"policy table's u has shape {u.shape} and its w {w.shape}, of {u.dtype} and {w.dtype}; both need "
                f"one row per node and one column per budget 0..{horizon}, u of floats and w of integers"
            )
        _check_contents(u, w)
        u.setflags(write=False)
        w.setflags(write=False)
        return cls(
            dest=doc["destination"],
            horizon=horizon,
            u=u,
            w=w,
            graph_digest=doc["graph_digest"],
        )


def _check_contents(u, w) -> None:
    """Raise ``ValueError`` naming the first fault, and its node row, of a
    table whose contents no solve produces.  ``u`` lies in [0, 1] and does not
    decrease along budgets, and ``w`` is an edge or ``NO_EDGE``.  The
    destination's is the one row with ``u`` 1 at budget 0, since no edge has
    mass at bin 0, and it is all ones in ``u`` and ``NO_EDGE`` in ``w``.  Off
    it, ``w`` is ``NO_EDGE`` exactly where ``u`` is 0."""

    def refuse(bad, fault):
        rows = np.flatnonzero(bad.any(axis=1))
        if len(rows):
            raise ValueError(f"policy table's {fault} in node row {rows[0]}")

    refuse(~((u >= 0.0) & (u <= 1.0)), "u is not a probability in [0, 1]")  # NaN fails both comparisons
    refuse(u[:, 1:] < u[:, :-1], "u decreases along budgets")
    refuse(w < NO_EDGE, f"w is below NO_EDGE ({NO_EDGE})")
    dest = u[:, 0] == 1.0
    if dest.sum() != 1:
        raise ValueError(f"policy table's u is 1 at budget 0 in {dest.sum()} rows; only the destination's row is")
    dest = dest[:, None]
    refuse(dest & ((u != 1.0) | (w != NO_EDGE)), "destination row is not all ones in u and NO_EDGE in w")
    refuse(~dest & ((w == NO_EDGE) == (u > 0.0)), "w does not match u (NO_EDGE where u > 0, or an edge where u is 0)")


def _write_table(target, kind: str, header: dict, **arrays) -> None:
    """Write ``arrays`` as a compressed ``npz`` under exactly the name given,
    with ``header`` and ``kind`` as JSON in its ``meta`` entry."""
    # Through a handle: given a name, numpy would append ".npz".
    with Path(target).open("wb") as handle:
        np.savez_compressed(handle, meta=json.dumps(dict(header, kind=kind)), **arrays)


def _read_table(source, kind: str, fields) -> dict:
    """The JSON header and the arrays, by name, of a file that
    :func:`_write_table` wrote as ``kind``.  Any other file raises one
    ``ValueError`` naming ``kind`` and the file; a file missing one of
    ``fields``, one naming it."""
    try:
        # Our own handle: np.load does not close one it opened if NpzFile then raises.
        with open(source, "rb") as handle, np.load(handle) as data:
            doc = dict(json.loads(str(data["meta"])), **data)
    except OSError:
        raise
    except Exception:
        # A foreign or damaged file fails in numpy, zipfile, zlib or json, in many ways.
        doc = {}
    if doc.get("kind") != kind:
        raise ValueError(f"{source} is not a {kind} written by this version of reliroute")
    missing = [name for name in fields if name not in doc]
    if missing:
        raise ValueError(f"{kind} is missing a field: {missing[0]!r}")
    return doc


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
    T = _integer(T, "horizon")
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
        u=U,
        w=W,
        graph_digest=graph.digest,
    )

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
partitioned FFT convolution, reading budgets below 0 from a margin of zero
columns before ``u``.  The successor is the smallest edge that can arrive
(its value is positive) within ``EXACT_TOL`` of the best, and ``NO_EDGE``
where none can, so FFT rounding can change a successor only where two values
differ by almost exactly ``EXACT_TOL``.  Values are exactly 0 where no term
of their sum is positive, so "can arrive" is decided without rounding.

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

The kernel spectra are the graph's, transformed once per block width (see
:meth:`StochasticGraph._kernel_spectra`).  Within a solve, a block's sums
over its older windows may run on one helper thread while the block before
it reduces (see :func:`_sweep_blocks`), with the same tables.  Many solves
(e.g. different destinations) can run in parallel over the shared immutable
graph, and a finished :class:`PolicyTable` is immutable and shareable.
"""

from __future__ import annotations

import json
import logging
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .distributions import EXACT_TOL, _integer
from .network import StochasticGraph

_log = logging.getLogger(__name__)

#: Sentinel in the successor table for "no edge offers positive probability".
NO_EDGE = -1


@dataclass(frozen=True)
class PolicyTable:
    """Per-node arrival probabilities and successor edges toward one destination.

    ``u[i, t]`` is the probability of reaching the destination from node ``i``
    within ``t`` bins under the optimal policy; ``w[i, t]`` is the edge to
    traverse next (``NO_EDGE`` when ``u[i, t] == 0``).  Rows are indexed by
    graph node index and columns by budget ``0..horizon``; ``graph_digest``
    is the graph's ``digest``.  The constructor refuses ``u`` and ``w`` that
    differ in shape, hold no budget column, or are not float and integer, and
    makes both read-only, copying an array that a writable array under it
    could change.  Immutable once built; share freely.
    """

    dest: object
    u: np.ndarray
    w: np.ndarray
    graph_digest: str = field(repr=False)

    def __post_init__(self):
        u, w = self.u, self.w
        fits = u.shape == w.shape and u.ndim == 2 and u.shape[1] > 0
        if not (fits and u.dtype.kind == "f" and w.dtype.kind in "iu"):
            raise ValueError(
                f"policy table's u has shape {u.shape} and its w {w.shape}, of {u.dtype} and {w.dtype}; both need "
                "one row per node and one column per budget, u of floats and w of integers"
            )
        object.__setattr__(self, "u", _frozen(u))
        object.__setattr__(self, "w", _frozen(w))

    def __reduce__(self):
        # Unpickling and copying run the constructor and its checks.
        return PolicyTable, (self.dest, self.u, self.w, self.graph_digest)

    @property
    def horizon(self) -> int:
        """The largest budget, ``u``'s last column."""
        return self.u.shape[1] - 1

    def check_graph(self, graph: StochasticGraph) -> None:
        """Raise ``ValueError`` unless the table was computed on ``graph``:
        one row per node of ``graph``, ``graph``'s digest, edges of ``graph``
        in ``w``, and ``u`` solved toward the destination it names, which is a
        node of ``graph``."""
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
        if not graph.has_node(self.dest):
            raise ValueError(f"policy table's destination {self.dest!r} is not a node of the graph")
        if self.u[graph.node_index(self.dest), 0] != 1.0:
            raise ValueError(f"policy table's destination {self.dest!r} is not the node its u was solved toward")

    def save(self, target) -> None:
        """Write the table as a compressed ``npz`` with a JSON header of its
        destination and graph digest, under exactly the name given."""
        header = {"destination": self.dest, "graph_digest": self.graph_digest}
        _write_table(target, "policy table", header, u=self.u, w=self.w)

    @classmethod
    def load(cls, source) -> "PolicyTable":
        """Read a table written by :meth:`save`.  Any other file, a missing
        field, arrays the constructor refuses, or contents that no solve
        produces (see :func:`_check_contents`) raise ``ValueError``.  Header
        entries that older versions wrote (``horizon``, ``order``,
        ``backend``) are ignored."""
        doc = _read_table(source, "policy table", ("destination", "graph_digest", "u", "w"))
        table = cls(dest=doc["destination"], u=doc["u"], w=doc["w"], graph_digest=doc["graph_digest"])
        _check_contents(table.u, table.w)
        return table


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` made read-only, or a read-only copy of it when a writable array
    under it, or a buffer that is not an array, could still change it."""
    base = a.base
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if base is not None:
        a = a.copy()
    a.setflags(write=False)
    return a


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
        # Arrays that own their data: a reshaped read would leave a writable
        # base under a table's read-only arrays.
        with open(source, "rb") as handle, np.load(handle) as data:
            doc = dict(json.loads(str(data["meta"])), **{name: np.require(data[name], requirements="O") for name in data})
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
    partition-major, taken from the graph's kernel spectra (see
    :meth:`StochasticGraph._kernel_spectra`), and ``first_mass`` each row's
    mass at ``min_bin``, which may lie beyond the last partition."""

    def __init__(self, graph: StochasticGraph, d: int, T: int, edge_mask):
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
        # floor(log2(size)) and the first row of the last run of 2^level rows (see _group_reduce).
        self.group_level = np.frexp(sizes)[1] - 1
        self.group_last_run = self.group_ends - (1 << self.group_level)
        rows = np.arange(sizes.sum()) + np.repeat(starts[order] - self.group_starts, sizes)
        self.orig, self.heads, self.mins = kept[rows], heads[rows], mins[rows]
        self.group_tails = tails[starts[order]]
        self.group_of_edge = np.repeat(np.arange(len(order)), sizes)
        self.activation = activation[order]
        self.successor = np.append(self.orig, NO_EDGE)
        self.first_mass = graph._store[np.array(graph._bounds)[self.orig] + self.mins]

        reach = np.minimum((ends[rows] - 1) // self.D, self.R)
        self.conv = np.argsort(reach, kind="stable")
        self.conv_row = np.empty_like(self.conv)
        self.conv_row[self.conv] = np.arange(len(rows))
        self.class_starts = np.flatnonzero(np.diff(reach[self.conv], prepend=-1) != 0)
        self.class_reach = reach[self.conv][self.class_starts]
        self.spectra = graph._kernel_spectra(self.D, self.R).take(self.orig[self.conv], axis=1)


def _group_reduce(ufunc, x, arrays: _EdgeArrays, groups):
    """``ufunc.reduceat(x, group_starts[:groups], axis=0)`` for ``maximum``
    or ``minimum``, whose result does not depend on the order of its terms.

    A sparse table: row ``r`` of level ``j`` reduces rows ``r .. r + 2^j -
    1`` of ``x``, and a group of ``size`` rows is covered by two runs of ``2^j``
    rows, ``j = floor(log2(size))``, one from its first row and one ending at
    its last.  That is a few whole-array passes where ``reduceat`` makes one
    call per row.
    """
    levels = arrays.group_level[:groups]
    table = np.empty((int(levels.max()) + 1,) + x.shape, dtype=x.dtype)
    table[0] = x
    for j in range(1, len(table)):
        h, m = 1 << (j - 1), len(x) - (1 << j) + 1
        ufunc(table[j - 1, :m], table[j - 1, h : h + m], out=table[j, :m])
    return ufunc(table[levels, arrays.group_starts[:groups]], table[levels, arrays.group_last_run[:groups]])


def _write_step(U, W, t0, arrays: _EdgeArrays, groups, vals):
    """Reduce the first ``groups`` tail groups' edge evaluations ``vals[e, k]``
    at budgets ``t0 + k`` into u and w.

    An edge is near when its value is positive and within ``EXACT_TOL`` of its
    group's best, so that convolution rounding never decides the successor.
    ``w`` is the group's first near row, and a group with none looks up one
    past the last row, which is ``NO_EDGE``; ``u`` is the exact running
    maximum.  No value is negative, so a positive one is at least the least
    positive float.
    """
    n, k = vals.shape
    gmax = _group_reduce(np.maximum, vals, arrays, groups)
    floor = np.maximum(gmax - EXACT_TOL, np.nextafter(0.0, 1.0))
    near = vals >= floor.take(arrays.group_of_edge[:n], axis=0)
    # A row that is not near counts past the last row, so the group's least
    # is its first near row, or past the last row when it has none.
    past = len(arrays.orig)
    winner = _group_reduce(np.minimum, np.arange(n)[:, None] + (past + 1) * ~near, arrays, groups)
    tails, t1 = arrays.group_tails[:groups], t0 + k
    best = np.minimum(gmax, 1.0)
    U[tails, t0:t1] = np.maximum.accumulate(np.maximum(best, U[tails, t0 - 1 : t0]), axis=1)
    W[tails, t0:t1] = arrays.successor[np.minimum(winner, past)]


def _far_sums(b, arrays: _EdgeArrays, ring, members, acc, second, todo) -> None:
    """Sum block ``b``'s partitions 2..R, all but the newest window, of each
    reach class's active rows into ``acc`` and, where a class's sum wraps
    around the ring, its second run into ``second``.

    The classes are popped from ``todo``, a deque of class indices that the
    helper thread and the sweep may pop from at once; each class is summed
    whole by the thread that pops it.

    The full sum is one run over ring slots ``[0, s)`` and one over ``[s,
    R)``, each from zero, where ``s = b mod R``.  Partition 1 meets slot ``(b
    - 1) mod R`` and is the last term of the first run, or of the second when
    ``s`` is 0; it is left out here.  ``einsum`` adds one term at a time from
    zero, so adding it afterwards gives the full sum's bits.  Slot ``b mod
    R`` is never read, so block ``b - 1`` may fill it meanwhile.
    """
    R, spectra = arrays.R, arrays.spectra
    s = b % R
    while True:
        try:
            c = todo.pop()
        except IndexError:
            return
        lo, reach = arrays.class_starts[c], arrays.class_reach[c]
        part = slice(lo, lo + members[c, b])
        if s:
            i = max(s - reach, 0)
            np.einsum("kef,kef->ef", ring[i : s - 1, part], spectra[R - s + i : R - 1, part], out=acc[part])
            if b >= R and reach > s:
                i = max(s, R + s - reach)
                np.einsum("kef,kef->ef", ring[i:, part], spectra[i - s : R - s, part], out=second[part])
        else:
            i = R - reach
            np.einsum("kef,kef->ef", ring[i : R - 1, part], spectra[i : R - 1, part], out=acc[part])


#: A block's far sums (see :func:`_far_sums`) run on a helper thread when they
#: take at least this many complex products: about half a millisecond of
#: ``einsum``, which releases the GIL, against a handoff's round trip of tens
#: of microseconds.  Smaller sums, on graphs of a few hundred rows, are bound
#: by the Python work both threads do between numpy calls, and run inline.
_HANDOFF_PRODUCTS = 1 << 18


def _sweep_blocks(T, arrays: _EdgeArrays, padded, W) -> tuple[int, int]:
    """Sweep the budgets in blocks of ``D``, the least minimum travel time, and
    return the number of edge-blocks convolved and of blocks whose far sums
    ran on the helper thread.

    No kernel has mass below ``D`` bins, so block ``b``, budgets
    ``[bD, bD + D)``, reads only earlier blocks and is computed at once by
    uniformly partitioned overlap-save convolution: partition ``k`` of each
    kernel, bins ``[kD, kD + D)``, meets the window of blocks ``b - k - 1``
    and ``b - k``.  ``padded`` is U behind ``margin`` zero columns, so a window
    or lower bound reads 0 below budget 0.  Block 0 lies below every
    ``min_bin``, so the sweep starts at block 1.

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

    Only partition 1 reads the window of block ``b - 1``.  So while block
    ``b`` adds its partition 1 and reduces, block ``b + 1``'s far sums may
    run on a helper thread, into the other of two buffers, when they take at
    least ``_HANDOFF_PRODUCTS`` products; on reaching block ``b + 1`` the
    sweep sums the classes the helper has not taken yet.  The helper is
    started on the first handoff and stopped before return; its exceptions
    reach the caller.
    """
    D, R, heads, spectra = arrays.D, arrays.R, arrays.heads, arrays.spectra
    rows, blocks = len(heads), T // D + 1
    margin = padded.shape[1] - (T + 1)
    U = padded[:, margin:]
    # ring[j % R] is the spectrum of block j's window.  At block b, slots
    # [0, s) hold blocks b - s .. b - 1 and, from block R on, slots [s, R)
    # hold blocks b - R .. b - s - 1.  Slot i meets partition s - i in the
    # first run and R + s - i in the second.
    ring = np.zeros_like(spectra)
    conv_heads = heads[arrays.conv]
    # Buffers at full size, sliced to each block's active prefix; block b's
    # far sums go to buffers[b % 2].
    window_spectrum = np.empty((len(U), D + 1), dtype=spectra.dtype)
    buffers = np.zeros((2, 2) + spectra.shape[1:], dtype=spectra.dtype)  # [b % 2]: (acc, second)
    near = np.empty_like(buffers[0, 0])
    summed = np.empty_like(near)
    out = np.empty((rows, 2 * D))
    low = np.empty((rows, D))
    zero = np.empty((rows, D), dtype=bool)
    # cell[e, j] is the flat index in padded of U[head, bD + j - min_bin] at
    # block b; an edge longer than the horizon reads only below 0 up to T.
    cell = (heads * padded.shape[1] + margin - np.minimum(arrays.mins, margin))[:, None] + np.arange(D)
    first = arrays.first_mass[:, None]
    groups = np.searchsorted(arrays.activation, np.arange(blocks) * D + D - 1, side="right")
    active = np.append(0, arrays.group_ends)[groups]
    bounds = np.append(arrays.class_starts, rows)
    # members[c, b]: the active rows of reach class c at block b.
    members = np.array([np.searchsorted(arrays.conv[lo:hi], active) for lo, hi in zip(bounds[:-1], bounds[1:])])
    # Classes sorted by reach: wraps[s] is the first row whose class's sum
    # has a second run at s = b mod R, from block R on.
    wraps = bounds[np.searchsorted(arrays.class_reach, np.arange(R), side="right")]
    # Block b's far sums take min(b, reach) - 1 partitions of each active row.
    far_partitions = np.maximum(np.minimum(np.arange(blocks), arrays.class_reach[:, None]) - 1, 0)
    handoff = (members * far_partitions).sum(axis=0) * (D + 1) >= _HANDOFF_PRODUCTS

    def classes(b):
        # Block b's classes with active rows, popped from the end: the longest reach first.
        return deque(np.flatnonzero(members[:, b]).tolist())

    pool = pending = None
    handed = 0
    try:
        for b in range(1, blocks):
            np.fft.rfft(padded[:, margin + (b - 2) * D : margin + b * D], axis=1, out=window_spectrum)
            newest = (b - 1) % R
            np.take(window_spectrum, conv_heads, axis=0, out=ring[newest])
            cell += D
            n = active[b]
            if not n:
                continue
            acc, second = buffers[b % 2]
            if pending is None:
                todo = classes(b)
            # Sum the classes the helper has not taken, then wait for the rest.
            _far_sums(b, arrays, ring, members, acc, second, todo)
            if pending is not None:
                pending.result()
            pending = None
            if b + 1 < blocks and handoff[b + 1]:
                if pool is None:
                    pool = ThreadPoolExecutor(1, thread_name_prefix="reliroute-far-sums")
                todo = classes(b + 1)
                pending = pool.submit(_far_sums, b + 1, arrays, ring, members, *buffers[(b + 1) % 2], todo)
                handed += 1
            # Partition 1, then the second run where it has one, over every
            # row: a row that is not active holds finite values nobody reads.
            np.einsum("kef,kef->ef", ring[newest : newest + 1], spectra[R - 1 :], out=near)
            acc += near
            if b >= R and b % R:
                acc[wraps[b % R] :] += second[wraps[b % R] :]
            np.take(acc, arrays.conv_row[:n], axis=0, out=summed[:n])
            vals = np.fft.irfft(summed[:n], 2 * D, axis=1, out=out[:n])[:, D:]
            # U's rows never decrease, so the first support bin's term is a lower
            # bound that is zero exactly when the sum is, whatever FFT rounding.
            padded.take(cell[:n], out=low[:n])
            np.multiply(low[:n], first[:n], out=low[:n])
            np.maximum(vals, low[:n], out=vals)
            np.less_equal(low[:n], 0.0, out=zero[:n])
            np.copyto(vals, 0.0, where=zero[:n])
            _write_step(U, W, b * D, arrays, groups[b], vals[:, : T + 1 - b * D])
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return int(active.sum()), handed


def compute_policy(
    graph: StochasticGraph,
    dest,
    T: int,
    edge_mask=None,
) -> PolicyTable:
    """Solve the dynamic program toward ``dest`` for budgets ``0..T``.

    ``edge_mask`` restricts the graph to the edges it marks, e.g. the mask that
    :func:`~reliroute.potentials.prune` returns.

    ``w[i, t]`` is the smallest edge whose value at budget ``t`` is positive
    and within ``EXACT_TOL`` of the best, or ``NO_EDGE`` where no edge's is
    positive.
    """
    T = _integer(T, "horizon")
    d = graph.node_index(dest)
    start = time.perf_counter()

    # Tables before edge arrays: the other order read ~5 MB more peak RSS over repeated solves.
    margin = min(int(graph.edge_support[:, 0, 0].max(initial=0)), T + 1)
    padded = np.zeros((graph.num_nodes, margin + T + 1))
    U = padded[:, margin:]
    W = np.full((graph.num_nodes, T + 1), NO_EDGE, dtype=np.int32)
    U[d, :] = 1.0
    arrays = _EdgeArrays(graph, d, T, edge_mask)

    active, handed = _sweep_blocks(T, arrays, padded, W) if len(arrays.orig) else (0, 0)
    blocks = T // arrays.D + 1
    _log.debug(
        "policy toward %r, T=%d: %d blocks of D=%d, R=%d partitions, %d of %d edge-blocks active, "
        "%d blocks handed off, %.4f s",
        dest, T, blocks, arrays.D, arrays.R, active, blocks * arrays.num_kept, handed, time.perf_counter() - start,
    )

    padded.setflags(write=False)
    return PolicyTable(
        dest=dest,
        u=U,
        w=W,
        graph_digest=graph.digest,
    )

"""Stochastic road-network model, file ingestion, and region partitioning.

A :class:`StochasticGraph` is a directed graph with one travel-time
distribution per edge and a single global time step.  Parallel edges between
the same node pair are allowed: distinct roads between two intersections can
carry genuinely different distributions, and collapsing them would change the
set of available routes.  Edges therefore carry their own identity (a user label or
their position in the input document) and policies and paths refer to edges,
not just successor nodes.

A graph keeps every edge's masses in one flat, read-only float64 store: edge
``e``'s row is its masses from bin 0, the bytes of ``edge_dists[e].mass``.
The digest, the edge supports and means, the policy solver's kernel spectra,
the path search and :func:`save_graph` read the store; ``edge_dists`` is
built from it on first use only.

Every node and edge is checked once, whether it comes from :func:`load_graph`,
from :mod:`reliroute.synth` or from a direct call, and a failure names the
offending node or edge.  The masses of all edges are checked in one batched
pass over the store, which refuses what :class:`DiscreteDistribution`
refuses, with its messages, at the first offending edge.  Each node keeps
one adjacency index, its outgoing edges.

Graphs and partitions refuse attribute assignment once built, so they are
safe to share across threads, and so is what they cache; pickles and copies
go through the same checks.
"""

from __future__ import annotations

import hashlib
import json
import threading
from functools import cached_property
from pathlib import Path

import numpy as np

from .distributions import EXACT_TOL, NORMALIZATION_TOL, DiscreteDistribution, _immutable, _integer
from .errors import GraphValidationError
from .models import dense_literal, literal_masses


def _edge_ident(label, pos: int) -> str:
    # How validation messages name an edge: its label, else its input position.
    return f"edge {label!r}" if label is not None else f"edge #{pos}"


def _id_sort_key(node_id):
    # Total order over mixed id types so node numbering is reproducible.
    if isinstance(node_id, bool):
        return (2, repr(node_id))
    if isinstance(node_id, (int, float)):
        return (0, node_id, "")
    if isinstance(node_id, str):
        return (1, 0, node_id)
    return (2, repr(node_id))


def _time_step(dt) -> float:
    if not 0 < dt < np.inf:
        raise GraphValidationError(f"time step must be {'finite' if dt > 0 else 'positive'}, got {dt}")
    return float(dt)


def _flatten(firsts, masses) -> tuple[np.ndarray, np.ndarray]:
    """One row per edge of its masses from bin 0, concatenated, and the
    rows' offsets; ``masses[e]`` starts at bin ``firsts[e]``."""
    offsets = np.zeros(len(masses) + 1, dtype=np.int64)
    np.cumsum([first + len(mass) for first, mass in zip(firsts, masses)], out=offsets[1:])
    flat = np.zeros(int(offsets[-1]))
    for end, mass in zip(offsets[1:].tolist(), masses):
        flat[end - len(mass) : end] = mass
    return flat, offsets


def _check_masses(dt: float, flat, offsets, tails, labels):
    """Check every row at once; refuse the first edge whose masses
    :class:`DiscreteDistribution` refuses, with its message.  Edge ``e``'s
    row is ``flat[offsets[e]:offsets[e + 1]]``.  Returns the truncated tails
    as the constructor keeps them, and each row's first nonzero bin (-1 if
    none) and one past its last (0 if none).

    The batch finds the edges that may fail: a bad truncated tail, a
    non-finite mass or one below ``-EXACT_TOL``, or a sum that a batched
    reduction puts near or past ``NORMALIZATION_TOL`` from one.  Each of
    them, in edge order, goes through the constructor, which decides with its
    own arithmetic and words the refusal.  Negative masses above
    ``-EXACT_TOL`` are clipped in place, row by row, as the constructor clips
    them.
    """
    given = np.array(tails, dtype=np.float64)
    num = len(given)
    # Edges certain to fail; rows from the first of them on are not read.
    certain = np.flatnonzero(~(np.isfinite(given) & (given >= -EXACT_TOL)))[:1].tolist()
    where = np.flatnonzero(~np.isfinite(flat) | (flat < -EXACT_TOL))[:1]
    certain += (np.searchsorted(offsets, where, side="right") - 1).tolist()
    stop = min(certain, default=num)
    below = np.flatnonzero(flat[: offsets[stop]] < 0.0)
    for e in np.unique(np.searchsorted(offsets, below, side="right") - 1).tolist():
        row = flat[offsets[e] : offsets[e + 1]]
        np.clip(row, 0.0, None, out=row)
    tails = np.where(given < 0.0, 0.0, given)  # keeps -0.0, as max(tail, 0.0) does

    lengths = np.diff(offsets)
    sums = np.zeros(num)
    filled = lengths > 0
    if filled.any():
        sums[filled] = np.add.reduceat(flat, offsets[:-1][filled])
    near = ~(np.abs(sums + tails - 1.0) <= NORMALIZATION_TOL / 2)  # NaN is near
    for e in np.flatnonzero(near[:stop]).tolist() + [stop] * (stop < num):
        try:
            DiscreteDistribution(flat[offsets[e] : offsets[e + 1]], dt, float(given[e]))
        except ValueError as exc:
            raise GraphValidationError(f"{_edge_ident(labels[e], e)}: {exc}") from exc

    # Each row's first nonzero bin and one past its last, from the nonzero
    # entries at or after the row's start and its end.
    nonzero = np.flatnonzero(flat)
    lo, hi = np.searchsorted(nonzero, offsets[:-1]), np.searchsorted(nonzero, offsets[1:])
    has = hi > lo
    first, end = np.full(num, -1), np.zeros(num, dtype=np.int64)
    first[has] = nonzero[lo[has]] - offsets[:-1][has]
    end[has] = nonzero[hi[has] - 1] + 1 - offsets[:-1][has]
    return tails, first, end


#: Stands in for an edge whose distribution the graph refuses by type.
_REFUSED = DiscreteDistribution([], truncated_tail=1.0)


class StochasticGraph:
    """Directed multigraph with per-edge travel-time distributions.

    Parameters
    ----------
    dt:
        Global time step in seconds; every edge distribution must use it.
    nodes:
        Iterable of ``(id, x, y)`` triples (or dicts with those keys).
    edges:
        Iterable of ``(tail_id, head_id, DiscreteDistribution)`` or
        ``(tail_id, head_id, DiscreteDistribution, label)`` tuples.

    Nodes are numbered by sorted id; edges are numbered by
    ``(tail, head, declaration order)``.  All public arrays use these indices.
    The constructor copies the distributions' masses into the graph's store.
    """

    __setattr__ = __delattr__ = _immutable

    def __init__(self, dt, nodes, edges):
        edges = list(edges)
        dists = [e[2] for e in edges]
        kept = [d if isinstance(d, DiscreteDistribution) else _REFUSED for d in dists]
        flat, offsets = _flatten([0] * len(kept), [d.mass for d in kept])
        ends = [(e[0], e[1], e[3] if len(e) > 3 else None) for e in edges]
        self._init(dt, nodes, ends, flat, offsets, [d.truncated_tail for d in kept], dists)

    @classmethod
    def _from_masses(cls, dt, nodes, ends, flat, offsets, tails) -> "StochasticGraph":
        """The graph whose edge ``e`` runs ``ends[e] = (tail_id, head_id,
        label)`` with masses ``flat[offsets[e]:offsets[e + 1]]`` from bin 0 and
        truncated tail ``tails[e]``; ``flat`` may be clipped in place."""
        graph = cls.__new__(cls)
        graph._init(dt, nodes, ends, flat, offsets, tails)
        return graph

    def _init(self, dt, nodes, ends, flat, offsets, tails, dists=None):
        # The one construction path: the time step, the masses (literals come
        # before the graph), the nodes, then each edge in input order.
        dt = _time_step(dt)
        tails, first, end = _check_masses(dt, flat, offsets, tails, [end[2] for end in ends])

        node_list, first_pos = [], {}
        for pos, n in enumerate(nodes):
            try:
                nid, x, y = (n["id"], n["x"], n["y"]) if isinstance(n, dict) else n
                hash(nid)  # ids key the node index
                if first_pos.setdefault(nid, pos) != pos:
                    raise ValueError(f"node id {nid!r} duplicates the id of node #{first_pos[nid]}")
                node_list.append((nid, float(x), float(y)))
            except (KeyError, TypeError, ValueError) as exc:
                raise GraphValidationError(f"node #{pos}: {exc}") from exc
        if not node_list:
            raise GraphValidationError("graph has no nodes")
        node_list.sort(key=lambda n: _id_sort_key(n[0]))
        node_ids = tuple(n[0] for n in node_list)
        index = {nid: i for i, nid in enumerate(node_ids)}
        coords = np.array([(n[1], n[2]) for n in node_list], dtype=np.float64)
        if not np.all(np.isfinite(coords)):
            raise GraphValidationError("node coordinates must be finite numbers")
        coords.setflags(write=False)

        tail_rows, head_rows, first = [], [], first.tolist()
        for pos, (tail_id, head_id, label) in enumerate(ends):
            dist = None if dists is None else dists[pos]
            try:
                t, h = index[tail_id], index[head_id]
            except (KeyError, TypeError):  # an unhashable id names no node
                problem = "endpoint is not a declared node"
            else:
                if dists is not None and not isinstance(dist, DiscreteDistribution):
                    problem = "distribution missing or of wrong type"
                elif dists is not None and dist.dt != dt:
                    problem = f"distribution dt {dist.dt} differs from graph dt {dt}"
                elif first[pos] < 1:
                    problem = (
                        "probability mass at bin 0; the time step must not exceed the edge's "
                        "minimum travel time (its lowest positive bin must be >= 1)"
                    )
                else:
                    tail_rows.append(t)
                    head_rows.append(h)
                    continue
            where = f"{_edge_ident(label, pos)} ({tail_id!r}->{head_id!r})"
            raise GraphValidationError(f"{where}: {problem}")

        edge_tails = np.array(tail_rows, dtype=np.int64)
        edge_heads = np.array(head_rows, dtype=np.int64)
        order = np.lexsort((edge_heads, edge_tails))  # stable: parallel edges keep input order
        edge_tails, edge_heads = edge_tails[order], edge_heads[order]
        edge_tails.setflags(write=False)
        edge_heads.setflags(write=False)

        # The store: each row cut after its last nonzero bin, in edge order.
        lengths, starts = end[order], offsets[:-1][order]
        bounds = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(lengths, out=bounds[1:])
        if np.array_equal(starts, bounds[:-1]) and bounds[-1] == len(flat):
            store = flat
        else:
            store = flat[np.repeat(starts - bounds[:-1], lengths) + np.arange(bounds[-1])]
        store.setflags(write=False)
        truncated = tails[order]
        truncated.setflags(write=False)

        # Edges are sorted by tail, so each node's out-edges are one run.
        runs = np.searchsorted(edge_tails, np.arange(len(node_ids) + 1)).tolist()
        vars(self).update(
            dt=dt,
            node_ids=node_ids,
            _index=index,
            coords=coords,
            edge_tails=edge_tails,
            edge_heads=edge_heads,
            # The Python-level graph loops (Dijkstra, the path search) read
            # heads as Python ints; numpy scalars cost more per access.
            _heads=tuple(edge_heads.tolist()),
            _edge_labels=tuple(ends[i][2] for i in order.tolist()),
            out_edges=tuple(range(a, b) for a, b in zip(runs[:-1], runs[1:])),
            _store=store,
            _bounds=tuple(bounds.tolist()),
            _truncated=truncated,
            # Kernel spectra per block width D, built on first use (see _kernel_spectra).
            _spectra={},
            _spectra_lock=threading.Lock(),
        )

    def __reduce__(self):
        # Unpickling and copying rebuild the graph from its nodes, edge ends
        # and store, through every check.
        ids = self.node_ids
        nodes = [(nid, x, y) for nid, (x, y) in zip(ids, self.coords.tolist())]
        ends = [(ids[t], ids[h], label) for t, h, label in zip(self.edge_tails.tolist(), self._heads, self._edge_labels)]
        return StochasticGraph._from_masses, (self.dt, nodes, ends, self._store, np.array(self._bounds), self._truncated)

    # -- lookups -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_edges(self) -> int:
        return len(self._heads)

    def node_index(self, node_id) -> int:
        try:
            return self._index[node_id]
        except (KeyError, TypeError):  # an unhashable id names no node
            raise ValueError(f"unknown node id {node_id!r}") from None

    def has_node(self, node_id) -> bool:
        try:
            return node_id in self._index
        except TypeError:
            return False

    def edge_label(self, eidx: int) -> str:
        label = self._edge_labels[eidx]
        if label is not None:
            return str(label)
        return f"{self.node_ids[self.edge_tails[eidx]]}->{self.node_ids[self.edge_heads[eidx]]}#{eidx}"

    def find_edges(self, tail_id, head_id) -> list[int]:
        t, h = self.node_index(tail_id), self.node_index(head_id)
        return [e for e in self.out_edges[t] if self._heads[e] == h]

    def _mass(self, e: int) -> np.ndarray:
        # Edge e's row of the store: its masses from bin 0, read-only.
        return self._store[self._bounds[e] : self._bounds[e + 1]]

    def _dist(self, e: int) -> DiscreteDistribution:
        # Edge e's distribution, built from its row.
        return DiscreteDistribution(self._mass(e), self.dt, float(self._truncated[e]))

    def _kernel_spectra(self, D: int, R: int) -> np.ndarray:
        """The kernel partitions ``R..1`` of ``D`` bins of every edge,
        transformed, partition-major: ``[i, e]`` is the ``rfft`` over ``2 D``
        bins of bins ``[(R - i) D, (R - i) D + D)`` of edge ``e``, read-only.

        Kept per ``D``, for the largest ``R`` asked so far, and built from the
        store in one gather.  A partition's transform does not depend on
        ``R``, so a smaller ``R`` reads the last ``R`` rows.  The spectra are
        not pickled.
        """
        with self._spectra_lock:
            held = self._spectra.get(D)
            if held is None or len(held) < R:
                bounds = np.array(self._bounds)
                bins = (np.arange(R, 0, -1)[:, None] * D + np.arange(D))[:, None, :]
                at = np.where(bins < np.diff(bounds)[:, None], bounds[:-1, None] + bins, len(self._store))
                held = np.fft.rfft(np.append(self._store, 0.0)[at], 2 * D, axis=2)
                held.setflags(write=False)
                self._spectra[D] = held
        return held[len(held) - R :]

    @cached_property
    def edge_dists(self) -> tuple[DiscreteDistribution, ...]:
        """Per-edge distributions, built from the store on first use."""
        return tuple(map(self._dist, range(self.num_edges)))

    @cached_property
    def edge_means(self) -> np.ndarray:
        """Per-edge mean travel time in seconds, computed on first use.

        Raises ``ValueError`` when an edge's distribution is truncated.
        """
        if np.any(self._truncated > NORMALIZATION_TOL):
            raise ValueError("mean is undefined for a truncated distribution")
        rows = map(self._mass, range(self.num_edges))
        means = np.array([float(np.dot(np.arange(len(m)), m)) for m in rows], dtype=np.float64) * self.dt
        means.setflags(write=False)
        return means

    @cached_property
    def digest(self) -> str:
        """sha256 (hex) of what tables computed on this graph depend on: ``dt``,
        the node ids, and each edge's tail, head, masses and truncated tail, but
        not coordinates or labels.  Computed on first use."""
        h = hashlib.sha256(repr((self.dt, self.node_ids)).encode())
        h.update(np.stack([self.edge_tails, self.edge_heads]).tobytes())
        h.update(np.column_stack([np.diff(self._bounds), self._truncated]).tobytes())
        h.update(self._store)
        return h.hexdigest()

    @cached_property
    def edge_support(self) -> np.ndarray:
        """Per-edge support as runs of consecutive nonzero bins, computed on
        first use.

        ``edge_support[e, k]`` is the first and last bin (inclusive) of run
        ``k`` of edge ``e``, as int32; an edge with fewer runs than the most
        repeats its first run.  ``edge_support[e, 0, 0]`` is the edge's
        ``min_bin`` and the largest last bin is ``support_end - 1``.
        """
        starts = np.array(self._bounds)
        # Every row holds mass and none at bin 0, so runs of consecutive
        # nonzero entries of the store never cross from one row to the next.
        nonzero = np.flatnonzero(self._store)
        opens = np.flatnonzero(np.diff(nonzero, prepend=-2) != 1)
        closes = np.flatnonzero(np.diff(nonzero, append=-2) != 1)
        run_edge = np.searchsorted(starts, nonzero[opens], side="right") - 1
        lo, hi = nonzero[opens] - starts[run_edge], nonzero[closes] - starts[run_edge]
        first_run = np.searchsorted(run_edge, np.arange(self.num_edges))
        width = int(np.diff(np.append(first_run, len(opens))).max(initial=1))
        table = np.empty((self.num_edges, width, 2), dtype=np.int32)
        table[:, :, 0], table[:, :, 1] = lo[first_run][:, None], hi[first_run][:, None]
        rank = np.arange(len(opens)) - first_run[run_edge]
        table[run_edge, rank, 0], table[run_edge, rank, 1] = lo, hi
        table.setflags(write=False)
        return table


# -- file ingestion ---------------------------------------------------------


def load_graph(source) -> StochasticGraph:
    """Parse and validate a graph document.

    ``source`` is the document as a dict, or the path (``str`` or ``Path``) of
    a JSON file holding it.  The document schema is::

        {"dt": 1.0,
         "nodes": [{"id": ..., "x": ..., "y": ...}, ...],
         "edges": [{"from": ..., "to": ..., "dist": <literal>, "id": optional}, ...]}

    ``<literal>`` is any form :func:`~reliroute.models.resolve_distribution_literal`
    accepts: the ``{"first_bin": k, "mass_f64": "<base64>"}`` that
    :func:`save_graph` writes, the dense list ``{"first_bin": k, "mass":
    [...]}``, ``{"pmf": [[bin, prob], ...]}`` pairs, or a parametric model.

    Validation failures name the first offending field, node or edge.  The
    loader checks the top-level fields and reads each edge's distribution
    literal on the document's ``dt``: ``mass_f64`` and ``mass`` literals are
    decoded straight into the graph's store, and the other forms resolve to a
    checked distribution each.  Every edge's masses are then checked in one
    batch, before the graph checks the nodes and the edges' endpoints: a
    literal that does not parse is reported after any bad masses before it.
    """
    if isinstance(source, dict):
        doc = source
    else:
        try:
            doc = json.loads(Path(source).read_text())
        except json.JSONDecodeError as exc:
            raise GraphValidationError(f"graph document is not valid JSON: {exc}") from exc

    if not isinstance(doc, dict):
        raise GraphValidationError("graph document must be a JSON object")
    for key in ("dt", "nodes", "edges"):
        if key not in doc:
            raise GraphValidationError(f"graph document is missing the {key!r} field")
    try:
        dt = float(doc["dt"])
    except (TypeError, ValueError) as exc:
        raise GraphValidationError(f"graph document's 'dt' field is not a number: {exc}") from exc
    dt = _time_step(dt)
    # A null node list is reported as an empty one.
    nodes = () if doc["nodes"] is None else doc["nodes"]
    for key, value in (("nodes", nodes), ("edges", doc["edges"])):
        if not isinstance(value, (list, tuple)):
            raise GraphValidationError(f"graph document's {key!r} field must be a list, not {type(value).__name__}")

    ends, firsts, masses, tails = [], [], [], []
    for pos, e in enumerate(doc["edges"]):
        label = e.get("id") if isinstance(e, dict) else None
        try:
            tail, head = e["from"], e["to"]
            first, mass, cut = literal_masses(e["dist"], dt)
        except (KeyError, TypeError, ValueError) as exc:
            _check_masses(dt, *_flatten(firsts, masses), tails, [end[2] for end in ends])
            raise GraphValidationError(f"{_edge_ident(label, pos)}: {exc}") from exc
        ends.append((tail, head, label))
        firsts.append(first)
        masses.append(mass)
        tails.append(cut)

    return StochasticGraph._from_masses(dt, nodes, ends, *_flatten(firsts, masses), tails)


def save_graph(graph: StochasticGraph, target=None) -> dict:
    """Serialize a graph to the document schema used by :func:`load_graph`.

    Each edge's PMF is written as the base64 ``mass_f64`` literal of
    :func:`~reliroute.models.dense_literal`, so PMF values and tails
    round-trip bit-identically, and the rest of the document (dt, nodes,
    labels) stays readable JSON.  Returns the document; also writes it
    as compact JSON to the path ``target`` when one is given.
    """
    doc = {
        "dt": graph.dt,
        "nodes": [
            {"id": nid, "x": float(graph.coords[i, 0]), "y": float(graph.coords[i, 1])}
            for i, nid in enumerate(graph.node_ids)
        ],
        "edges": [],
    }
    support, tails = graph.edge_support[:, 0, 0].tolist(), graph._truncated.tolist()
    for eidx in range(graph.num_edges):
        entry = {
            "from": graph.node_ids[graph.edge_tails[eidx]],
            "to": graph.node_ids[graph.edge_heads[eidx]],
            "dist": dense_literal(graph._mass(eidx), support[eidx], tails[eidx]),
        }
        if graph._edge_labels[eidx] is not None:
            entry["id"] = graph._edge_labels[eidx]
        doc["edges"].append(entry)
    if target is not None:
        Path(target).write_text(json.dumps(doc))
    return doc


# -- region partitioning -----------------------------------------------------


class RegionPartition:
    """Assignment of every node to one of ``region_count`` contiguous ids.
    Immutable once built."""

    __setattr__ = __delattr__ = _immutable

    def __init__(self, assignment):
        assignment = np.asarray(assignment)
        if assignment.ndim != 1 or assignment.size == 0:
            raise ValueError("assignment must be a nonempty 1-D array")
        if assignment.dtype.kind not in "iu":
            raise ValueError(f"assignment must hold integer region ids, got {assignment.dtype} values")
        assignment = assignment.astype(np.int64)  # a copy: the caller's array stays the caller's
        present = np.unique(assignment)
        if present[0] < 0 or not np.array_equal(present, np.arange(len(present))):
            raise ValueError("region ids must be exactly 0..r-1 with every id used")
        assignment.setflags(write=False)
        regions = tuple(np.nonzero(assignment == r)[0] for r in range(len(present)))
        for members in regions:
            members.setflags(write=False)
        vars(self).update(assignment=assignment, region_count=len(regions), regions=regions)

    def check_graph(self, graph: StochasticGraph) -> None:
        """Raise ``ValueError`` unless the partition has one region per node of ``graph``."""
        if len(self.assignment) != graph.num_nodes:
            raise ValueError(
                f"partition assigns {len(self.assignment)} nodes to regions but the graph has {graph.num_nodes}"
            )

    def region_of_index(self, node_index: int) -> int:
        return int(self.assignment[node_index])


def grid_partition(graph: StochasticGraph, k: int) -> RegionPartition:
    """Partition nodes into the cells of a k-by-k grid over their bounding box.

    Empty cells are dropped and region ids compacted, so the resulting region
    count is at most ``k * k``.  Deterministic and total.
    """
    k = _integer(k, "grid dimension", 1)
    xy = graph.coords
    lo = xy.min(axis=0)
    span = xy.max(axis=0) - lo
    cells = np.zeros(graph.num_nodes, dtype=np.int64)
    for axis in (0, 1):
        if span[axis] > 0:
            idx = np.minimum((xy[:, axis] - lo[axis]) / span[axis] * k, k - 1).astype(np.int64)
        else:
            idx = np.zeros(graph.num_nodes, dtype=np.int64)
        cells = cells * k + idx
    _, compact = np.unique(cells, return_inverse=True)
    return RegionPartition(compact)

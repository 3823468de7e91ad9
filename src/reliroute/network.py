"""Stochastic road-network model, file ingestion, and region partitioning.

A :class:`StochasticGraph` is a directed graph with one travel-time
distribution per edge and a single global time step.  Parallel edges between
the same node pair are allowed: distinct roads between two intersections can
carry genuinely different distributions, and collapsing them would change the
set of available routes.  Edges therefore carry their own identity (a user label or
their position in the input document) and policies and paths refer to edges,
not just successor nodes.

Every node and edge is checked once, in the constructor, whether it comes from
:func:`load_graph`, from :mod:`reliroute.synth` or from a direct call, and a
failure names the offending node or edge.  Each node keeps one adjacency
index, its outgoing edges.

Graphs are immutable after construction and safe to share across threads;
pickles and copies go through the constructor.
"""

from __future__ import annotations

import hashlib
import json
from functools import cached_property
from pathlib import Path

import numpy as np

from .distributions import DiscreteDistribution, _integer
from .errors import GraphValidationError
from .models import dense_literal, resolve_distribution_literal


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
    """

    def __init__(self, dt: float, nodes, edges):
        if not 0 < dt < np.inf:
            raise GraphValidationError(f"time step must be {'finite' if dt > 0 else 'positive'}, got {dt}")
        self.dt = float(dt)

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
        self.node_ids = tuple(n[0] for n in node_list)
        self._index = {nid: i for i, nid in enumerate(self.node_ids)}
        coords = np.array([(n[1], n[2]) for n in node_list], dtype=np.float64)
        if not np.all(np.isfinite(coords)):
            raise GraphValidationError("node coordinates must be finite numbers")
        coords.setflags(write=False)
        self.coords = coords

        raw, index = [], self._index
        for pos, e in enumerate(edges):
            tail_id, head_id, dist = e[0], e[1], e[2]
            label = e[3] if len(e) > 3 else None
            if not (self.has_node(tail_id) and self.has_node(head_id)):
                problem = "endpoint is not a declared node"
            elif not isinstance(dist, DiscreteDistribution):
                problem = "distribution missing or of wrong type"
            elif dist.dt != self.dt:
                problem = f"distribution dt {dist.dt} differs from graph dt {self.dt}"
            elif dist.min_bin is None or dist.min_bin < 1:
                problem = (
                    "probability mass at bin 0; the time step must not exceed the edge's "
                    "minimum travel time (its lowest positive bin must be >= 1)"
                )
            else:
                raw.append((index[tail_id], index[head_id], pos, dist, label))
                continue
            where = f"{_edge_ident(label, pos)} ({tail_id!r}->{head_id!r})"
            raise GraphValidationError(f"{where}: {problem}")
        # Positions are distinct, so the sort never compares distributions.
        raw.sort()

        # The Python-level graph loops (Dijkstra, the path search) read heads
        # as Python ints; numpy scalars cost more per access.
        self._heads = tuple(r[1] for r in raw)
        self.edge_tails = np.array([r[0] for r in raw], dtype=np.int64)
        self.edge_heads = np.array(self._heads, dtype=np.int64)
        self.edge_tails.setflags(write=False)
        self.edge_heads.setflags(write=False)
        self.edge_dists = tuple(r[3] for r in raw)
        self._edge_labels = tuple(r[4] for r in raw)

        # Edges are sorted by tail, so each node's out-edges are one run.
        bounds = np.searchsorted(self.edge_tails, np.arange(self.num_nodes + 1)).tolist()
        self.out_edges = tuple(range(a, b) for a, b in zip(bounds[:-1], bounds[1:]))

    def __reduce__(self):
        # Unpickling and copying run the constructor on the nodes and edges in index order.
        ids = self.node_ids
        nodes = [(nid, x, y) for nid, (x, y) in zip(ids, self.coords.tolist())]
        ends = zip(self.edge_tails.tolist(), self._heads, self.edge_dists, self._edge_labels)
        edges = [(ids[t], ids[h], dist, label) for t, h, dist, label in ends]
        return StochasticGraph, (self.dt, nodes, edges)

    # -- lookups -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_edges(self) -> int:
        return len(self.edge_dists)

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

    @cached_property
    def edge_means(self) -> np.ndarray:
        """Per-edge mean travel time in seconds, computed on first use.

        Raises ``ValueError`` when an edge's distribution is truncated.
        """
        means = np.array([d.mean() for d in self.edge_dists], dtype=np.float64)
        means.setflags(write=False)
        return means

    @cached_property
    def digest(self) -> str:
        """sha256 (hex) of what tables computed on this graph depend on: ``dt``,
        the node ids, and each edge's tail, head, masses and truncated tail, but
        not coordinates or labels.  Computed on first use."""
        h = hashlib.sha256(repr((self.dt, self.node_ids)).encode())
        h.update(np.stack([self.edge_tails, self.edge_heads]).tobytes())
        h.update(np.array([(len(d.mass), d.truncated_tail) for d in self.edge_dists]).tobytes())
        # Edge by edge: one concatenation would add the masses' size to peak memory.
        for d in self.edge_dists:
            h.update(d.mass)
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
        runs = []
        for d in self.edge_dists:
            # Most pmfs are nonzero from min_bin to their last bin: one run.
            if np.count_nonzero(d.mass) == len(d.mass) - d.min_bin:
                runs.append([(d.min_bin, len(d.mass) - 1)])
            else:
                nz = np.flatnonzero(d.mass)
                cut = np.flatnonzero(np.diff(nz) > 1)
                runs.append(list(zip(nz[np.r_[0, cut + 1]], nz[np.r_[cut, -1]])))
        width = max((len(r) for r in runs), default=1)
        padded = [r + r[:1] * (width - len(r)) for r in runs]
        table = np.array(padded, dtype=np.int32).reshape(len(runs), width, 2)
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

    Validation failures name the first offending field, node or edge: the
    loader checks the top-level fields and resolves each edge's distribution
    literal on the document's ``dt``, and :class:`StochasticGraph` checks
    everything else.
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
    if not 0 < dt < np.inf:
        raise GraphValidationError(f"time step must be {'finite' if dt > 0 else 'positive'}, got {dt}")
    # A null node list is reported as an empty one.
    nodes = () if doc["nodes"] is None else doc["nodes"]
    for key, value in (("nodes", nodes), ("edges", doc["edges"])):
        if not isinstance(value, (list, tuple)):
            raise GraphValidationError(f"graph document's {key!r} field must be a list, not {type(value).__name__}")

    edges = []
    for pos, e in enumerate(doc["edges"]):
        label = e.get("id") if isinstance(e, dict) else None
        try:
            tail, head = e["from"], e["to"]
            dist = resolve_distribution_literal(e["dist"], dt)
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphValidationError(f"{_edge_ident(label, pos)}: {exc}") from exc
        edges.append((tail, head, dist, label))

    return StochasticGraph(dt, nodes, edges)


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
    for eidx, dist in enumerate(graph.edge_dists):
        entry = {
            "from": graph.node_ids[graph.edge_tails[eidx]],
            "to": graph.node_ids[graph.edge_heads[eidx]],
            "dist": dense_literal(dist),
        }
        if graph._edge_labels[eidx] is not None:
            entry["id"] = graph._edge_labels[eidx]
        doc["edges"].append(entry)
    if target is not None:
        Path(target).write_text(json.dumps(doc))
    return doc


# -- region partitioning -----------------------------------------------------


class RegionPartition:
    """Assignment of every node to one of ``region_count`` contiguous ids."""

    def __init__(self, assignment):
        assignment = np.asarray(assignment)
        if assignment.ndim != 1 or assignment.size == 0:
            raise ValueError("assignment must be a nonempty 1-D array")
        if assignment.dtype.kind not in "iu":
            raise ValueError(f"assignment must hold integer region ids, got {assignment.dtype} values")
        assignment = assignment.astype(np.int64, copy=False)
        present = np.unique(assignment)
        if present[0] < 0 or not np.array_equal(present, np.arange(len(present))):
            raise ValueError("region ids must be exactly 0..r-1 with every id used")
        assignment.setflags(write=False)
        self.assignment = assignment
        self.region_count = int(len(present))
        self.regions = tuple(
            np.nonzero(assignment == r)[0] for r in range(self.region_count)
        )

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

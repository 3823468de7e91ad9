"""Synthetic network generation for desk-scale experiments.

Real travel-time data is rarely shareable, so benchmark networks are built
from a plain topology (nodes with coordinates, edges with a length and a
speed limit) plus a generator spec that turns each edge's free-flow time into
a travel-time distribution.  Generation is deterministic for a fixed seed.
"""

from __future__ import annotations

import random

from .distributions import _integer
from .errors import GraphValidationError
from .models import _nonnegative, free_flow_bins, shifted_gamma_masses
from .network import StochasticGraph, _edge_ident, _flatten

#: Default generator: gamma-distributed delay on top of the free-flow time.
DEFAULT_MODEL = {"name": "shifted-gamma", "delay_factor": 0.5, "cov": 1.0, "randomize": True}


def grid_topology(k: int, spacing: float = 100.0, speed: float = 10.0, dt: float = 1.0) -> dict:
    """A k-by-k lattice with bidirectional streets.

    Nodes sit on integer lattice coordinates scaled by ``spacing`` metres and
    every adjacent pair is connected in both directions.
    """
    k = _integer(k, "grid dimension", 2)
    nodes = [
        {"id": f"n{r:02d}_{c:02d}", "x": c * spacing, "y": r * spacing}
        for r in range(k)
        for c in range(k)
    ]
    edges = []

    def connect(a, b):
        edges.append({"from": a, "to": b, "length": spacing, "speed_limit": speed})
        edges.append({"from": b, "to": a, "length": spacing, "speed_limit": speed})

    for r in range(k):
        for c in range(k):
            if c + 1 < k:
                connect(f"n{r:02d}_{c:02d}", f"n{r:02d}_{c + 1:02d}")
            if r + 1 < k:
                connect(f"n{r:02d}_{c:02d}", f"n{r + 1:02d}_{c:02d}")
    return {"dt": dt, "nodes": nodes, "edges": edges}


def synthesize_distributions(topology: dict, model: dict | None = None, seed: int = 0) -> StochasticGraph:
    """Attach a travel-time distribution to every edge of a topology.

    Each edge's minimum travel time is its free-flow time ``length /
    speed_limit`` rounded up to the grid; stochastic delay beyond it follows
    the generator spec ``{"name": "shifted-gamma", "mean_delay": s | None,
    "delay_factor": f, "cov": c, "randomize": bool}``: gamma delay with mean
    ``mean_delay`` seconds (or ``delay_factor`` times the free-flow time),
    coefficient of variation ``cov``.  With ``randomize`` each edge scales its
    mean delay by a seeded uniform factor in [0.5, 1.5].  A zero mean delay,
    such as ``{"delay_factor": 0}``, puts each edge's mass at its free-flow bin.

    Keys the spec leaves out take :data:`DEFAULT_MODEL`'s values.  An unknown
    name, or a negative or non-finite delay factor, mean delay or ``cov``,
    raises ``ValueError`` before any edge is read.  Two calls with equal
    inputs and seeds produce identical graphs.
    """
    model = {**DEFAULT_MODEL, **(model or {})}
    name, dt, rng = model["name"], float(topology.get("dt", 1.0)), random.Random(seed)
    if name != "shifted-gamma":
        raise ValueError(f"unknown generator {name!r}")
    factor, mean_delay = None, model.get("mean_delay")
    if mean_delay is None:
        factor = _nonnegative("mean delay", model["delay_factor"])
    else:
        mean_delay = _nonnegative("mean delay", mean_delay)
    cov, randomize = _nonnegative("coefficient of variation", model["cov"]), model["randomize"]

    ends, min_bins, mean_delays = [], [], []
    for pos, e in enumerate(topology["edges"]):
        label = e.get("id")
        ident = _edge_ident(label, pos)
        length = float(e["length"])
        speed = float(e["speed_limit"])
        if length <= 0:
            raise GraphValidationError(f"{ident}: length must be positive, got {length}")
        if speed <= 0:
            raise GraphValidationError(f"{ident}: speed limit must be positive, got {speed}")
        free_flow = length / speed
        try:
            min_bin = free_flow_bins(free_flow, dt)
        except ValueError as exc:
            raise GraphValidationError(f"{ident}: {exc}") from exc
        delay = mean_delay if factor is None else factor * free_flow
        if randomize:
            delay *= rng.uniform(0.5, 1.5)
        ends.append((e["from"], e["to"], label))
        min_bins.append(min_bin)
        mean_delays.append(delay)

    firsts, masses = shifted_gamma_masses(min_bins, mean_delays, cov, dt=dt)
    return StochasticGraph._from_masses(dt, topology["nodes"], ends, *_flatten(firsts, masses), [0.0] * len(ends))

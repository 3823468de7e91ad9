"""Benchmark harness: seeded instance generation, timing runs, CSV emission.

A problem instance is a uniformly chosen connected ``(source, dest)`` pair
plus a budget drawn uniformly from the 5th-95th percentile of the travel-time
distribution of the least-expected-travel-time path between them; tighter
budgets give hopeless queries and looser ones trivial ones.  Generation is
bit-for-bit reproducible under a fixed seed.

Each instance is timed twice (policy construction, then the path query with
the policy given), optionally with activation-potential pruning.  Timings use
a monotonic clock with a configurable median-of-N repetition; records land in
``records.csv`` plus plot-ready series (budget vs time, path length vs time)
and a gnuplot script, keeping the output data-only.

Instances run in order, in one process.  A pruning run builds one potential
table per (destination region, sources) key, at the largest budget among the
instances that use it, and prunes each of those instances at its own budget;
the sources are ``(source,)`` in path mode and ``None`` in policy mode.
"""

from __future__ import annotations

import csv
import functools
import heapq
import random
import statistics
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .distributions import _integer
from .network import StochasticGraph, grid_partition
from .pathsearch import path_distribution, sota_path_report
from .policy import compute_policy
from .potentials import MODES, compute_arc_potentials, prune


@dataclass(frozen=True)
class LetPath:
    """Least-expected-travel-time path between two nodes."""

    nodes: tuple
    edges: tuple[int, ...]
    expected_seconds: float


def let_path(graph: StochasticGraph, source, dest) -> LetPath | None:
    """Deterministic shortest path under mean edge travel times.

    Returns ``None`` when ``dest`` is unreachable.  Exact cost ties resolve
    toward the smaller predecessor node, keeping reruns identical.
    """
    s, d = graph.node_index(source), graph.node_index(dest)
    heads, means = graph._heads, graph.edge_means.tolist()
    dist_to = [None] * graph.num_nodes
    parent = [None] * graph.num_nodes  # (node, edge) each node was reached by
    done = [False] * graph.num_nodes
    dist_to[s] = 0.0
    heap = [(0.0, s)]
    while heap:
        cost, i = heapq.heappop(heap)
        if done[i]:
            continue
        done[i] = True
        if i == d:
            break
        for e in graph.out_edges[i]:
            j = heads[e]
            cand = cost + means[e]
            best = dist_to[j]
            if best is None or cand < best:
                dist_to[j] = cand
                parent[j] = (i, e)
                heapq.heappush(heap, (cand, j))
            elif cand == best and not done[j] and parent[j][0] > i:  # only s, done first, has none
                parent[j] = (i, e)
    if not done[d]:
        return None
    nodes, edges = [d], []
    while nodes[-1] != s:
        p, e = parent[nodes[-1]]
        nodes.append(p)
        edges.append(e)
    nodes.reverse()
    edges.reverse()
    return LetPath(
        nodes=tuple(graph.node_ids[i] for i in nodes),
        edges=tuple(edges),
        expected_seconds=float(dist_to[d]),
    )


@dataclass(frozen=True)
class ProblemInstance:
    """One benchmark query plus the provenance of its budget choice."""

    source: object
    dest: object
    budget: int
    seed: int
    let_nodes: tuple
    let_edges: tuple[int, ...]
    p5: int
    p95: int


def generate_instances(graph: StochasticGraph, n: int, seed: int = 0) -> list[ProblemInstance]:
    """Draw ``n`` instances: uniform connected node pairs, budgets uniform on
    the integer bins of the LET path's 5th-95th percentile range."""
    n = _integer(n, "instance count", 1)
    if graph.num_nodes < 2:
        raise ValueError("instance generation needs a graph with at least two nodes")
    rng = random.Random(seed)
    ids = graph.node_ids
    out = []
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 200 * n + 1000:
            raise ValueError(
                "could not draw enough connected node pairs; is the graph connected?"
            )
        s = ids[rng.randrange(len(ids))]
        d = ids[rng.randrange(len(ids))]
        if s == d:
            continue
        lp = let_path(graph, s, d)
        if lp is None:
            continue
        dist = path_distribution(graph, lp.edges)
        p5, p95 = dist.percentile(0.05), dist.percentile(0.95)
        budget = rng.randint(p5, p95)
        out.append(
            ProblemInstance(
                source=s, dest=d, budget=budget, seed=seed,
                let_nodes=lp.nodes, let_edges=lp.edges, p5=p5, p95=p95,
            )
        )
    return out


@dataclass
class BenchmarkConfig:
    repetitions: int = 3
    path_repetitions: int | None = None  # defaults to `repetitions`; path queries
    # are orders of magnitude cheaper, so extra repetitions there damp timer
    # noise almost for free
    pruning: str | None = None  # None | "policy" | "path"
    grid_k: int | None = None


@dataclass
class BenchmarkRecord:
    """Timings and solution facts for one instance (all times in seconds)."""

    index: int
    source: object
    dest: object
    budget: int
    policy_time: float = 0.0
    path_time: float = 0.0
    reliability: float = 0.0
    policy_bound: float = 0.0
    path_edge_count: int = 0
    path_mean_seconds: float = 0.0
    popped: int = 0
    pushed: int = 0
    queue_peak: int = 0
    max_child_key_excess: float = float("-inf")
    final_queue_max_key: float | None = None
    status: str = ""
    error: str = ""
    pruning: str = "none"
    pruned_kept_edges: int = -1
    pruned_policy_time: float = 0.0
    pruned_path_time: float = 0.0
    pruned_reliability: float = float("nan")
    path_nodes: tuple = ()
    path_edges: tuple = ()


def _median_time(fn, repetitions: int):
    """Run ``fn`` ``repetitions`` times; return (median seconds, last result)."""
    times, result = [], None
    for _ in range(repetitions):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _run_instance(graph, index, inst, config, table_for):
    rec = BenchmarkRecord(index=index, source=inst.source, dest=inst.dest, budget=inst.budget)

    def timed_query(mask):
        """Median seconds of the solve restricted to ``mask`` and of the search
        with its policy, and the last search report.  The mask goes to the
        solve only: the search always covers the whole graph."""
        policy_time, pol = _median_time(
            lambda: compute_policy(graph, inst.dest, inst.budget, edge_mask=mask), config.repetitions
        )
        path_time, report = _median_time(
            lambda: sota_path_report(graph, pol, inst.source, T=inst.budget),
            config.path_repetitions or config.repetitions,
        )
        return policy_time, path_time, report

    try:
        rec.policy_time, rec.path_time, rep = timed_query(None)
        for name in ("status", "policy_bound", "popped", "pushed", "queue_peak", "max_child_key_excess",
                     "final_queue_max_key"):
            setattr(rec, name, getattr(rep, name))
        if rep.paths:
            best = rep.paths[0]
            rec.reliability, rec.path_nodes, rec.path_edges = best.reliability, best.nodes, best.edges
            rec.path_edge_count = len(best.edges)
            rec.path_mean_seconds = float(sum(graph._dist(e).mean() for e in best.edges))

        if config.pruning:
            rec.pruning = config.pruning
            mask = prune(graph, table_for(inst), inst.budget)
            rec.pruned_kept_edges = int(mask.sum())
            rec.pruned_policy_time, rec.pruned_path_time, prep = timed_query(mask)
            rec.pruned_reliability = prep.paths[0].reliability if prep.paths else 0.0
    except Exception as exc:  # individual failures are recorded, not fatal
        rec.status = "error"
        rec.error = f"{type(exc).__name__}: {exc}"
    return rec


def _table_cache(graph: StochasticGraph, instances: list[ProblemInstance], config: BenchmarkConfig):
    """Return ``table_for(inst)``, the potential table that prunes ``inst``;
    each is built on first use and shared by the instances with its key."""
    partition = grid_partition(graph, config.grid_k)

    def key(inst):
        region = partition.region_of_index(graph.node_index(inst.dest))
        return region, ((inst.source,) if config.pruning == "path" else None)

    horizons = {}
    for inst in instances:
        try:
            k = key(inst)
            horizons[k] = max(horizons.get(k, inst.budget), inst.budget)
        except (ValueError, TypeError):
            pass  # a bad instance records its own error when it runs

    @functools.cache
    def build(k):
        return compute_arc_potentials(graph, partition, k[0], horizons[k], mode=config.pruning, sources=k[1])

    return lambda inst: build(key(inst))


def run_benchmark(
    graph: StochasticGraph,
    instances: list[ProblemInstance],
    config: BenchmarkConfig | None = None,
    out_dir=None,
) -> list[BenchmarkRecord]:
    """Execute all instances in order and optionally emit CSV/plot data to ``out_dir``.

    Pruning runs prune by the regions of ``grid_partition(graph, config.grid_k)``.
    """
    config = config or BenchmarkConfig()
    if config.pruning and config.pruning not in MODES:
        raise ValueError(f"pruning {config.pruning!r} is not one of {MODES}")
    _integer(config.repetitions, "repetitions", 1)
    if config.path_repetitions is not None:
        _integer(config.path_repetitions, "path_repetitions", 1)
    if config.pruning and config.grid_k is None:
        raise ValueError(f"pruning {config.pruning!r} needs grid_k, the region grid to prune by (bench --grid)")
    if config.grid_k is not None and not config.pruning:
        raise ValueError(f"grid_k {config.grid_k!r} needs pruning, the table kind to prune with (bench --preprocess)")
    table_for = _table_cache(graph, instances, config) if config.pruning else None
    records = [_run_instance(graph, i, inst, config, table_for) for i, inst in enumerate(instances)]
    if out_dir is not None:
        write_benchmark_outputs(records, out_dir)
    return records


RECORD_COLUMNS = [f.name for f in fields(BenchmarkRecord)]


def write_benchmark_outputs(records: list[BenchmarkRecord], out_dir) -> None:
    """Emit ``records.csv``, per-study plot series, and a gnuplot script."""
    out = Path(out_dir)
    (out / "plots").mkdir(parents=True, exist_ok=True)

    with open(out / "records.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RECORD_COLUMNS)
        writer.writeheader()
        for rec in records:
            row = asdict(rec)
            row["path_nodes"] = "|".join(str(n) for n in rec.path_nodes)
            row["path_edges"] = "|".join(str(e) for e in rec.path_edges)
            writer.writerow(row)

    ok = [r for r in records if r.status == "found"]
    with open(out / "plots" / "budget_vs_time.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["budget", "policy_time", "path_time"])
        for r in sorted(ok, key=lambda r: r.budget):
            writer.writerow([r.budget, r.policy_time, r.path_time])
    with open(out / "plots" / "length_vs_time.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path_edge_count", "path_mean_seconds", "path_time"])
        for r in sorted(ok, key=lambda r: r.path_edge_count):
            writer.writerow([r.path_edge_count, r.path_mean_seconds, r.path_time])

    (out / "plots" / "plots.gp").write_text(
        "set datafile separator ','\n"
        "set terminal pngcairo size 900,600\n"
        "set key top left\n"
        "set output 'budget_vs_time.png'\n"
        "set xlabel 'time budget (bins)'; set ylabel 'seconds'\n"
        "plot 'budget_vs_time.csv' skip 1 using 1:2 with points title 'policy', \\\n"
        "     'budget_vs_time.csv' skip 1 using 1:3 with points title 'path'\n"
        "set output 'length_vs_time.png'\n"
        "set xlabel 'optimal path edge count'; set ylabel 'seconds'\n"
        "plot 'length_vs_time.csv' skip 1 using 1:3 with points title 'path query'\n"
    )


def summarize(records: list[BenchmarkRecord]) -> dict:
    """Aggregate medians and simple trend fits used by the scaling studies."""
    ok = [r for r in records if r.status == "found"]
    out: dict = {"instances": len(records), "completed": len(ok)}
    if not ok:
        return out
    out["median_policy_time"] = statistics.median(r.policy_time for r in ok)
    out["median_path_time"] = statistics.median(r.path_time for r in ok)
    xs = np.array([r.path_edge_count for r in ok], dtype=float)
    ys = np.array([r.path_time for r in ok], dtype=float)
    if len(ok) >= 3 and np.ptp(xs) > 0:
        slope, intercept = np.polyfit(xs, ys, 1)
        fitted = slope * xs + intercept
        ss_res = float(((ys - fitted) ** 2).sum())
        ss_tot = float(((ys - ys.mean()) ** 2).sum())
        out["length_fit"] = {
            "slope": float(slope),
            "intercept": float(intercept),
            "r_squared": 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0,
        }
    return out

"""The benchmark's two workloads.

Each workload builds its inputs from ``--seed`` in ``setup`` (timed, repeated
by the runner), exposes a fixed list of operations, and checks their results
with :mod:`checks` outside the timed region.  Library functions are always
looked up through their module (``policy.compute_policy``), so the traced
run's wrappers see every call, and every library default is left as it is.

Inputs are stratified so that a run's mix of short and long queries does not
depend on the seed: the seed picks *which* pairs are drawn, while the number
of pairs in each band of the population's distance distribution is fixed.
Each workload uses as many equal-mass bands as it draws pairs (see
:class:`Bands`).
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import numpy as np

from reliroute import harness, network, pathsearch, policy, potentials, synth

import checks

#: The acceptance grid's seed; the graphs are fixed, the queries are seeded.
GRAPH_SEED = 20250808
#: Sampled cells per table in the Bellman check.
BELLMAN_CELLS = 200
#: Street length of ``synth.grid_topology``: one edge in coordinate units.
SPACING = 100.0
#: Length of the k-best list checked on each Bellman-checked cold query.
RANKED_K = 3


class Op:
    """One timed operation: ``run()`` is timed, ``check(result)`` is not."""

    def __init__(self, run, check, fingerprint):
        self.run = run
        self.check = check
        self.fingerprint = fingerprint


def _search_fingerprint(report):
    return tuple((p.edges, p.reliability) for p in report.paths)


def _distance_matrix(graph) -> np.ndarray:
    xy = graph.coords
    return np.abs(xy[:, None, :] - xy[None, :, :]).sum(axis=2)


class Bands:
    """``n`` equal-mass bands of a population of distances, one per draw.

    A distance that carries several bands' mass falls in one band, which
    then takes as many draws (largest remainder), so each band's share of
    the ``n`` draws follows the population."""

    def __init__(self, population, n: int):
        self.sorted = np.sort(np.asarray(population, dtype=float))
        self.count = n
        mids = self._mid_cdf(self.sorted)
        mass = np.bincount(np.minimum((mids * n).astype(int), n - 1), minlength=n)
        share = mass / mass.sum() * n
        quota = np.floor(share).astype(int)
        for b in np.argsort(-(share - quota), kind="stable")[: n - quota.sum()]:
            quota[b] += 1
        self.quota = quota

    def _mid_cdf(self, values):
        lo = np.searchsorted(self.sorted, values, side="left")
        hi = np.searchsorted(self.sorted, values, side="right")
        return (lo + hi) / 2.0 / len(self.sorted)

    def band(self, value: float) -> int:
        return min(int(self._mid_cdf([value])[0] * self.count), self.count - 1)


def _draw(graph, rng, pick_dest, pair_ok=None, budget_ok=None, level=None):
    """Draw one ``(source, dest, budget, LET edges)`` query as
    ``harness.generate_instances`` draws one: a uniform source, the
    least-expected-time path, and a budget uniform on that path's 5th-95th
    percentile bins.  ``pick_dest()`` gives the destination index of each
    attempt; ``pair_ok(s, d)`` and ``budget_ok(budget)`` may reject it.
    ``level`` in [0, 1), when given, places the budget in that range in
    place of a fresh uniform draw (see :func:`_levels`)."""
    ids = graph.node_ids
    for _ in range(100_000):
        d = pick_dest()
        s = rng.randrange(len(ids))
        if s == d or (pair_ok is not None and not pair_ok(s, d)):
            continue
        lp = harness.let_path(graph, ids[s], ids[d])
        if lp is None:
            continue
        dist = pathsearch.path_distribution(graph, lp.edges)
        lo, hi = dist.percentile(0.05), dist.percentile(0.95)
        if level is None:
            budget = rng.randint(lo, hi)
        else:
            budget = lo + min(int(level * (hi - lo + 1)), hi - lo)
        if budget_ok is None or budget_ok(budget):
            return ids[s], ids[d], budget, lp.edges
    raise RuntimeError("no acceptable query in 100000 draws")


def _levels(rng, n: int) -> list[float]:
    """``n`` uniform levels in [0, 1), one in each of ``n`` equal strata, in
    seeded order: each level alone is uniform, as ``randint`` is, but every
    set of ``n`` spans the whole budget range evenly."""
    order = list(range(n))
    rng.shuffle(order)
    return [(i + rng.random()) / n for i in order]


def _draw_stratified(graph, rng, pick_dest, n, distance, bands, reach=np.inf, budget_ok=None,
                     levels=None):
    """``n`` draws whose counts per distance band follow ``bands.quota``;
    pairs farther apart than ``reach`` are not drawn.  ``levels`` optionally
    gives each draw's budget level (see :func:`_draw`)."""
    quota = bands.quota.copy()
    out = []
    for i in range(n):
        query = _draw(graph, rng, pick_dest,
                      pair_ok=lambda s, d: distance[s, d] <= reach
                      and quota[bands.band(distance[s, d])] > 0,
                      budget_ok=budget_ok, level=None if levels is None else levels[i])
        quota[bands.band(distance[graph.node_index(query[0]), graph.node_index(query[1])])] -= 1
        out.append(query)
    return out


class Workload:
    name = ""
    grid = 32
    dt = 1.0

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.rng = random.Random(f"{self.name}/{seed}")
        self.graph_path = out_dir / f"{self.name}-seed{seed}.graph.json"
        self.graph = None
        #: Figures printed for reference (README), not reported as metrics.
        self.reference = {}

    def _graph(self, rep: int, clock):
        """Synthesize and reload the graph as ``reliroute synth`` and
        ``reliroute path`` do; writing the file is not part of set-up time."""
        with clock:
            graph = synth.synthesize_distributions(
                synth.grid_topology(self.grid, dt=self.dt), seed=GRAPH_SEED
            )
        if rep == 0:
            self.graph_path.write_text(json.dumps(network.save_graph(graph)))
        with clock:
            self.graph = network.load_graph(Path(self.graph_path))
        return self.graph

    def cleanup(self) -> None:
        self.graph_path.unlink(missing_ok=True)

    @property
    def tail_percentile(self) -> float:
        """The highest percentile with ten operations beyond it."""
        return 100.0 * (1.0 - 10.0 / len(self.operations()))

    def global_checks(self) -> list[str]:
        """Checks on the run as a whole, after the per-operation ones."""
        return []

    def layer_figures(self) -> dict:
        """Per-layer figures computed from the inputs rather than spans."""
        return {}


class Grid32OD(Workload):
    """Cold queries on the acceptance grid: a policy solve then a k=1 search."""

    name = "grid32-od"
    queries = 40

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.kept = {}

    def setup(self, rep: int, clock) -> None:
        graph = self._graph(rep, clock)
        rng = random.Random(f"{self.name}/{self.seed}")
        dist = _distance_matrix(graph)
        bands = Bands(dist[~np.eye(graph.num_nodes, dtype=bool)], self.queries)
        with clock:
            self.instances = _draw_stratified(
                graph, rng, lambda: rng.randrange(graph.num_nodes), self.queries, dist, bands
            )
        self.check_ops = set(rng.sample(range(self.queries), 3))
        self._ops = None

    def operations(self):
        if self._ops is None:
            self._ops = [self._op(k, inst) for k, inst in enumerate(self.instances)]
        return self._ops

    def _op(self, k, inst):
        graph = self.graph
        source, dest, budget, let_edges = inst

        def run():
            table = policy.compute_policy(graph, dest, budget)
            report = pathsearch.sota_path_report(graph, table, source, T=budget, k=1)
            if k in self.check_ops and k not in self.kept:
                self.kept[k] = table
            return report, float(table.u[graph.node_index(source), budget])

        def check(result):
            report, bound = result
            if not report.paths:
                return [f"no path found ({report.status})"]
            floor = checks.path_reliability(graph, let_edges, budget)
            errors = checks.check_path(graph, source, dest, report.paths[0], budget, bound, floor)
            if k in self.kept:
                cells = checks.sample_cells(self.rng, graph.num_nodes, budget, BELLMAN_CELLS)
                errors += checks.check_bellman(graph, self.kept[k], graph.node_index(dest), cells)
                ranked = pathsearch.sota_path_report(graph, self.kept[k], source, T=budget, k=RANKED_K)
                errors += checks.check_ranking(ranked.paths)
                for found in ranked.paths:
                    errors += checks.check_path(graph, source, dest, found, budget, bound, None)
            return errors

        return Op(run, check, lambda result: _search_fingerprint(result[0]))


KINDS = ("policy", "conditioned", "path")


class Grid12Preprocess(Workload):
    """Region tables on long kernels, then cold queries pruned by them.

    Each set-up builds, for one seeded region, a ``policy``-mode table, a
    source-conditioned ``policy``-mode table and a ``path``-mode table; the
    three set-ups cover the centre, a side and a corner region, in that
    order, so that the region with the longest queries is timed longest.  The timed
    operations are cold queries toward those regions, pruned by the
    policy-mode table as ``reliroute path --potentials`` prunes them.
    """

    name = "grid12-preprocess"
    grid = 12
    dt = 0.5
    partition_k = 3
    horizon = 240
    per_region = 30
    #: Sources lie at most this many edges from the destination; at this
    #: distance the 95th-percentile budget is near the horizon.
    reach_edges = 7
    table_sources = 1

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.regions = []
        self.region_queries = {}
        self.region_sources = {}
        self.tables = {}
        self.kept = {}
        self.check_ops = set()
        self._ops = []

    def _pick_regions(self, graph, partition):
        lo, hi = graph.coords.min(axis=0), graph.coords.max(axis=0)
        touching = {}
        for r, members in enumerate(partition.regions):
            xy = graph.coords[members]
            sides = int(np.sum(xy.min(axis=0) == lo) + np.sum(xy.max(axis=0) == hi))
            touching.setdefault(sides, []).append(r)
        return [self.rng.choice(touching[s]) for s in sorted(touching)][:3]

    def setup(self, rep: int, clock) -> None:
        graph = self._graph(rep, clock)
        with clock:
            partition = network.grid_partition(graph, self.partition_k)
        if not self.regions:
            self.regions = self._pick_regions(graph, partition)
        region = self.regions[rep % len(self.regions)]
        rng = random.Random(f"{self.name}/{self.seed}/{region}")
        members = partition.regions[region]
        dist = _distance_matrix(graph)
        reach = self.reach_edges * SPACING
        near = dist[:, members][(dist[:, members] > 0) & (dist[:, members] <= reach)]
        bands = Bands(near, self.per_region)
        with clock:
            queries = [q + (region,) for q in _draw_stratified(
                graph, rng, lambda: int(rng.choice(members)), self.per_region, dist, bands,
                reach=reach, budget_ok=lambda b: b <= self.horizon,
                levels=_levels(rng, self.per_region))]
        sources = [q[0] for q in queries[: self.table_sources]]
        order = KINDS[rep % 3:] + KINDS[: rep % 3]
        tables = {}
        for kind in order:
            mode = "path" if kind == "path" else "policy"
            src = None if kind == "policy" else list(sources)
            with clock:
                tables[kind] = potentials.compute_arc_potentials(
                    graph, partition, region, self.horizon, mode=mode, sources=src
                )
        self.partition = partition
        self.region_queries[region] = queries
        self.region_sources[region] = sources
        self.tables[region] = tables

    def operations(self):
        """Queries toward every region set up so far, in set-up order; one
        seeded query per region also gets its table Bellman-checked."""
        queries = [q for r in self.regions for q in self.region_queries.get(r, [])]
        for start in range(len(self._ops), len(queries), self.per_region):
            self.check_ops.add(start + self.rng.randrange(self.per_region))
            self._ops += [self._op(k, queries[k]) for k in range(start, start + self.per_region)]
        return self._ops

    def _solve(self, source, dest, budget, mask):
        table = policy.compute_policy(self.graph, dest, budget, edge_mask=mask)
        report = pathsearch.sota_path_report(self.graph, table, source, T=budget, k=1, edge_mask=mask)
        return table, report

    def _op(self, k, query):
        graph = self.graph
        source, dest, budget, let_edges, region = query
        pruning = self.tables[region]["policy"]

        def run():
            mask = potentials.prune(graph, pruning, budget)
            table, report = self._solve(source, dest, budget, mask)
            if k in self.check_ops and k not in self.kept:
                self.kept[k] = (table, mask)
            return report, float(table.u[graph.node_index(source), budget])

        def check(result):
            report, bound = result
            if not report.paths:
                return [f"no path found ({report.status})"]
            floor = checks.path_reliability(graph, let_edges, budget)
            errors = checks.check_path(graph, source, dest, report.paths[0], budget, bound, floor)
            if k in self.kept:
                table, mask = self.kept[k]
                cells = checks.sample_cells(self.rng, graph.num_nodes, budget, BELLMAN_CELLS)
                errors += checks.check_bellman(graph, table, graph.node_index(dest), cells, mask)
            return errors

        return Op(run, check, lambda result: _search_fingerprint(result[0]))

    def global_checks(self):
        """Pruning keeps every optimum, for each table kind; realizability
        matches the budget sweep in :mod:`checks` for one sampled destination."""
        graph, errors = self.graph, []
        seconds = {"pruned": 0.0, "unpruned": 0.0}
        for region in self.regions:
            tables, sources = self.tables[region], self.region_sources[region]
            for source, dest, budget, _, _ in self.region_queries[region][:4]:
                t0 = time.perf_counter()
                _, full = self._solve(source, dest, budget, None)
                seconds["unpruned"] += time.perf_counter() - t0
                want = full.paths[0].reliability if full.paths else 0.0
                kinds = KINDS if source in sources else ("policy",)
                for kind in kinds:
                    t0 = time.perf_counter()
                    mask = potentials.prune(graph, tables[kind], budget)
                    _, pruned = self._solve(source, dest, budget, mask)
                    if kind == "policy":
                        seconds["pruned"] += time.perf_counter() - t0
                    got = pruned.paths[0].reliability if pruned.paths else 0.0
                    if abs(got - want) > checks.REL_TOL:
                        errors.append(
                            f"{kind} table, region {region}: pruned reliability {got!r} != unpruned {want!r}"
                        )
        self.reference["pruned-to-unpruned query time"] = seconds["pruned"] / seconds["unpruned"]
        region = self.rng.choice(self.regions)
        dest = graph.node_ids[self.rng.choice(list(self.partition.regions[region]))]
        table = policy.compute_policy(graph, dest, self.horizon)
        sources = self.region_sources[region]
        flags = potentials.compute_realizability(graph, table, list(sources), self.horizon, initial_budgets="any")
        errors += checks.check_realizability(
            graph, table, [graph.node_index(s) for s in sources], self.horizon, flags
        )
        return errors

    def layer_figures(self) -> dict:
        """Mean kept edges per table kind at the timed queries' budgets."""
        kept = {kind: [] for kind in KINDS}
        for source, dest, budget, _, region in (q for r in self.regions for q in self.region_queries[r]):
            for kind in KINDS:
                kept[kind].append(self.tables[region][kind].kept_count(budget))
        return {f"potentials.kept_edges_{kind}": float(np.mean(v)) for kind, v in kept.items()}


WORKLOADS = {cls.name: cls for cls in (Grid32OD, Grid12Preprocess)}

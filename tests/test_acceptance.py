"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The scaling study uses a 32x32 synthetic grid and finishes
well inside its 30-minute budget on a laptop.
"""

import random
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

import reliroute as rr

from conftest import (
    FIXTURE_PATH,
    brute_force_best_path,
    direct_policy,
    edge_by_label,
    forward_reachability_oracle,
    random_connected_graph,
    rollout_policy,
)

SEED = 20250808


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"\n[ACCEPTANCE] {name}: PASS")


# ---------------------------------------------------------------------------
# shared expensive runs


@pytest.fixture(scope="module")
def scaling_run():
    """100 instances on a 32x32 grid, timed with the block solver."""
    graph = rr.synthesize_distributions(rr.grid_topology(32), seed=SEED)
    instances = rr.generate_instances(graph, 100, seed=SEED)
    t0 = time.perf_counter()
    records = rr.run_benchmark(
        graph,
        instances,
        config=rr.BenchmarkConfig(repetitions=1, path_repetitions=3),
    )
    elapsed = time.perf_counter() - t0
    return graph, instances, records, elapsed


def test_counterexample_regression(fixture_graph):
    with criterion("counterexample-fixture regression"):
        t0 = time.perf_counter()
        g = rr.load_graph(FIXTURE_PATH)
        pol = rr.compute_policy(g, "v3", 4)
        paths = rr.sota_path(g, pol, "v1", 4, k=3)

        assert [g.edge_label(e) for e in paths[0].edges] == ["e2", "e4"]
        assert abs(paths[0].reliability - 0.65) <= 1e-12
        ranking = [p.reliability for p in paths]
        assert len(ranking) == 3
        for got, want in zip(ranking, (0.65, 0.60, 0.45)):
            assert abs(got - want) <= 1e-12

        v1 = g.node_index("v1")
        assert abs(pol.u[v1, 4] - 0.65) <= 1e-12
        assert pol.w[v1, 4] == edge_by_label(g, "e2")
        # At budget 3 the choice switches to the heavy-tailed edge; its
        # evaluation at the full budget is the 0.60 runner-up.
        assert pol.w[v1, 3] == edge_by_label(g, "e3")
        assert abs(pol.u[v1, 3] - 0.30) <= 1e-12
        e3 = g.edge_dists[edge_by_label(g, "e3")]
        v2 = g.node_index("v2")
        runner_up = sum(
            e3.mass[tau] * pol.u[v2, 4 - tau] for tau in range(1, min(4, len(e3.mass) - 1) + 1)
        )
        assert abs(runner_up - 0.60) <= 1e-12

        assert time.perf_counter() - t0 < 1.0


def test_oracle_equivalence():
    with criterion("exhaustive-oracle equivalence (200 instances)"):
        t0 = time.perf_counter()
        rng = random.Random(SEED)
        checked = 0
        while checked < 200:
            g, s, d = random_connected_graph(rng, max_nodes=10, max_extra_edges=24)
            if g.num_edges > 30:
                continue
            T = rng.randint(1, 64)
            pol = rr.compute_policy(g, d, T)
            found = rr.sota_path(g, pol, s, T)
            oracle = brute_force_best_path(g, s, d, T, max_nodes=10)
            if not found:
                assert oracle is None or oracle.reliability <= 1e-15
            else:
                assert abs(found[0].reliability - oracle.reliability) <= 1e-9
                if found[0].edges != oracle.edges:
                    # Path choice may differ only at reliability ties.
                    alt = rr.path_reliability(g, None, T, edges=found[0].edges)
                    assert abs(alt - oracle.reliability) <= 1e-9
            checked += 1
        assert time.perf_counter() - t0 < 120.0


def test_backend_equivalence():
    with criterion("block solver vs direct_policy equivalence (50 graphs)"):
        rng = random.Random(SEED + 1)
        worst = 0.0
        for _ in range(50):
            g, _, d = random_connected_graph(
                rng, max_nodes=30, max_extra_edges=60, max_delta=6, max_width=9
            )
            T = rng.randint(1, 128)
            direct = direct_policy(g, d, T)
            solved = rr.compute_policy(g, d, T)
            worst = max(worst, float(np.abs(direct.u - solved.u).max()))
        assert worst <= 1e-9


def test_admissibility_suite(scaling_run):
    with criterion("admissibility on every benchmarked instance"):
        _, _, records, _ = scaling_run
        assert records
        for rec in records:
            assert rec.status == "found", rec.error
            assert rec.max_child_key_excess <= 1e-12
            assert rec.reliability <= rec.policy_bound + 1e-9
            if rec.final_queue_max_key is not None:
                assert rec.final_queue_max_key <= rec.reliability + 1e-12


def test_pruning_soundness():
    with criterion("pruning soundness, policy and path modes (100 instances)"):
        rng = random.Random(SEED + 2)
        grids = [rr.synthesize_distributions(rr.grid_topology(6), seed=rng.randint(0, 10**6))
                 for _ in range(10)]
        ks = (2, 4, 8)
        kept_policy_total = 0
        kept_path_total = 0
        for idx in range(100):
            g = grids[idx % len(grids)]
            inst = rr.generate_instances(g, 1, seed=SEED + idx)[0]
            s, d, T = inst.source, inst.dest, inst.budget
            k = ks[idx % len(ks)]
            partition = rr.grid_partition(g, k)
            region = partition.region_of_index(g.node_index(d))
            pol = rr.compute_policy(g, d, T)
            base = rr.sota_path(g, pol, s, T)
            base_rel = base[0].reliability if base else 0.0

            policy_table = rr.compute_arc_potentials(g, partition, region, T, mode="policy")
            path_table = rr.compute_arc_potentials(
                g, partition, region, T, mode="path", sources=[s]
            )
            for table in (policy_table, path_table):
                mask = rr.prune(g, table, T)
                masked_pol = rr.compute_policy(g, d, T, edge_mask=mask)
                got = rr.sota_path(g, masked_pol, s, T, edge_mask=mask)
                got_rel = got[0].reliability if got else 0.0
                assert abs(got_rel - base_rel) <= 1e-12

            kept_policy = policy_table.kept_count(T)
            kept_path = path_table.kept_count(T)
            assert kept_path <= kept_policy
            kept_policy_total += kept_policy
            kept_path_total += kept_path
        # Path-based preprocessing must prune strictly harder in aggregate.
        assert kept_path_total < kept_policy_total


def test_realizability_exactness():
    with criterion("realizability vs forward DP + 10k rollouts"):
        rng = random.Random(SEED + 3)
        rollouts_done = 0
        for _ in range(100):
            g, s, d = random_connected_graph(rng, max_nodes=10, max_extra_edges=18)
            T = rng.randint(1, 48)
            pol = rr.compute_policy(g, d, T)
            flags = rr.compute_realizability(g, pol, s)
            oracle = forward_reachability_oracle(g, pol, s, T)
            assert np.array_equal(flags.reached, oracle.reached)
            assert np.array_equal(flags.edge_marked, oracle.edge_marked)
            for _ in range(100):
                edges, _ = rollout_policy(g, pol, s, T, rng)
                assert all(flags.edge_marked[e] for e in edges)
                rollouts_done += 1
        assert rollouts_done == 10_000


def test_scaling_properties(scaling_run):
    with criterion("desk-scale scaling study (32x32 grid, 100 instances)"):
        graph, instances, records, elapsed = scaling_run
        ok = [r for r in records if r.status == "found"]
        assert len(ok) == 100

        # (a) path queries (policy given) are cheaper than policy construction
        median_policy = statistics.median(r.policy_time for r in ok)
        median_path = statistics.median(r.path_time for r in ok)
        assert median_path < median_policy

        # (b) path-query time grows near-linearly with optimal path length
        summary = rr.summarize(records)
        assert summary["length_fit"]["r_squared"] >= 0.5

        # (c) doubling the horizon at most triples the block solver's policy time
        mid = sorted(instances, key=lambda i: i.budget)[50]
        times = {}
        for horizon in (mid.budget, 2 * mid.budget):
            reps = []
            for _ in range(3):
                t0 = time.perf_counter()
                rr.compute_policy(graph, mid.dest, horizon)
                reps.append(time.perf_counter() - t0)
            times[horizon] = statistics.median(reps)
        assert times[2 * mid.budget] <= 3.0 * times[mid.budget]

        assert elapsed < 1800.0

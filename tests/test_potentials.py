"""Realizability propagation, activation potentials, and pruning soundness."""

import dataclasses
import json
import logging
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

import reliroute as rr
from reliroute.potentials import INFINITE_POTENTIAL

from conftest import (
    FIXTURE_PATH,
    direct_policy,
    edge_by_label,
    forward_reachability_oracle,
    per_destination_potentials,
    random_connected_graph,
    random_edge_dist,
    rollout_policy,
)


def marked_labels(graph, flags):
    return sorted(graph.edge_label(e) for e in np.nonzero(flags.edge_marked)[0])


def with_self_loops_and_parallels(rng, g):
    """``g`` plus a few self-loops and edges parallel to existing ones."""
    edges = [(g.node_ids[g.edge_tails[e]], g.node_ids[g.edge_heads[e]], g.edge_dists[e])
             for e in range(g.num_edges)]
    for _ in range(rng.randint(1, 3)):
        loop_node = rng.choice(g.node_ids)
        edges.append((loop_node, loop_node, random_edge_dist(rng)))
        tail, head, _ = edges[rng.randrange(g.num_edges)]
        edges.append((tail, head, random_edge_dist(rng)))
    nodes = [(nid, *g.coords[i]) for i, nid in enumerate(g.node_ids)]
    return rr.StochasticGraph(1.0, nodes, edges)


def wide_block_graph(rng, least):
    """Random multigraph whose least ``min_bin`` is ``least``, so that
    realizability propagates blocks of ``least`` budgets.  Edge minimums run
    from ``least`` to ``least + 4``, tails up to 30 bins, and a third of the
    supports have gaps.  A chain joins 0 to n - 1, and there are self-loops
    and parallel edges.  Returns ``(graph, dest)``."""

    def dist(first):
        mass = np.zeros(first + rng.randint(1, 30))
        mass[first:] = [rng.random() + 0.01 for _ in range(len(mass) - first)]
        if rng.random() < 0.3 and len(mass) - first > 2:
            mass[rng.sample(range(first + 1, len(mass) - 1), rng.randint(1, len(mass) - first - 2))] = 0.0
        return rr.DiscreteDistribution(mass / mass.sum())

    n = rng.randint(2, 9)
    pairs = [(i, i + 1) for i in range(n - 1)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 14))]
    pairs += rng.sample(pairs, min(len(pairs), 3)) + [(rng.randrange(n),) * 2]
    edges = [(a, b, dist(rng.randint(least, least + 4))) for a, b in pairs]
    a, b = pairs[rng.randrange(len(pairs))]
    edges.append((a, b, dist(least)))
    return rr.StochasticGraph(1.0, [(i, float(i), 0.0) for i in range(n)], edges), n - 1


class TestRealizability:
    def test_fixture_exact_budget(self, fixture_graph):
        g = fixture_graph
        pol = direct_policy(g, "v3", 4)
        flags = rr.compute_realizability(g, pol, "v1")
        # Departing with exactly 4 bins, the only source decision is w(4).
        assert marked_labels(g, flags) == ["e2", "e4"]
        v2 = g.node_index("v2")
        assert np.nonzero(flags.reached[v2])[0].tolist() == [0, 1, 2, 3]

    def test_fixture_any_budget_marks_more(self, fixture_graph):
        g = fixture_graph
        pol = direct_policy(g, "v3", 4)
        flags = rr.compute_realizability(g, pol, "v1", initial_budgets="any")
        # Departures with any budget <= 4 may also follow the w(3) choice.
        assert marked_labels(g, flags) == ["e2", "e3", "e4"]
        assert np.all(flags.reached[g.node_index("v1")])

    def test_source_equals_destination(self, fixture_graph):
        g = fixture_graph
        pol = rr.compute_policy(g, "v3", 4)
        flags = rr.compute_realizability(g, pol, "v3")
        assert not flags.edge_marked.any()
        assert flags.reached[g.node_index("v3"), 4]

    def test_matches_forward_oracle_on_randoms(self):
        rng = random.Random(1234)
        cases = []
        for _ in range(30):
            g, s, d = random_connected_graph(rng, max_nodes=10, max_extra_edges=16)
            cases.append((g, s, d, rng.randint(0, 40)))
        # Self-loops and parallel edges, with one source or a list of them.
        for _ in range(10):
            g, s, d = random_connected_graph(rng, max_nodes=8)
            g = with_self_loops_and_parallels(rng, g)
            sources = s if rng.random() < 0.5 else rng.sample(g.node_ids, rng.randint(1, 3))
            cases.append((g, sources, d, rng.randint(0, 40)))
        # 200-bin kernels at a 400-bin horizon.
        np_rng = np.random.default_rng(17)
        edges = []
        for a, b in ((0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (1, 1)):
            mass = np.zeros(200)
            lo = int(np_rng.integers(1, 40))
            mass[lo:] = np_rng.random(200 - lo)
            edges.append((a, b, rr.DiscreteDistribution(mass / mass.sum())))
        nodes = [(i, float(i), 0.0) for i in range(4)]
        cases.append((rr.StochasticGraph(1.0, nodes, edges), [0, 1], 3, 400))

        for g, s, d, T in cases:
            pol = rr.compute_policy(g, d, T)
            for mode in ("exact", "any"):
                flags = rr.compute_realizability(g, pol, s, initial_budgets=mode)
                oracle = forward_reachability_oracle(g, pol, s, T, initial_budgets=mode)
                assert np.array_equal(flags.reached, oracle.reached)
                assert np.array_equal(flags.edge_marked, oracle.edge_marked)
                assert np.array_equal(flags.edge_first_budget, oracle.edge_first_budget)

    def test_matches_forward_oracle_in_wide_blocks(self):
        # Blocks of D = 3..6 budgets: T = 0, T < D, whole blocks only, a
        # ragged last block, and a random horizon, in both modes, from one
        # source or several.
        rng = random.Random(2468)
        for _ in range(40):
            least = rng.randint(3, 6)
            g, d = wide_block_graph(rng, least)
            assert g.edge_support[:, 0, 0].min() == least
            for T in (0, least - 1, 4 * least - 1, 3 * least + 1, rng.randint(least, 90)):
                pol = rr.compute_policy(g, d, T)
                sources = rng.choice(g.node_ids) if rng.random() < 0.5 else rng.sample(g.node_ids, rng.randint(1, min(3, g.num_nodes)))
                for mode in ("exact", "any"):
                    flags = rr.compute_realizability(g, pol, sources, initial_budgets=mode)
                    oracle = forward_reachability_oracle(g, pol, sources, T, initial_budgets=mode)
                    assert np.array_equal(flags.reached, oracle.reached), (least, T, mode)
                    assert np.array_equal(flags.edge_first_budget, oracle.edge_first_budget), (least, T, mode)

    def test_table_from_another_graph_rejected(self, fixture_graph):
        g, _, d = random_connected_graph(random.Random(5), min_nodes=5, max_nodes=5)
        pol = rr.compute_policy(g, d, 10)
        with pytest.raises(ValueError, match="5 node rows but the graph has 3 nodes"):
            rr.compute_realizability(fixture_graph, pol, "v1")
        renamed = rr.StochasticGraph(
            1.0, [(f"n{i}", 0.0, 0.0) for i in range(5)],
            [(f"n{g.edge_tails[e]}", f"n{g.edge_heads[e]}", g.edge_dists[e])
             for e in range(g.num_edges)],
        )
        with pytest.raises(ValueError, match="node ids differ"):
            rr.compute_realizability(renamed, pol, "n0")

    def test_rollouts_stay_on_marked_edges(self, fixture_graph):
        g = fixture_graph
        pol = rr.compute_policy(g, "v3", 4)
        flags = rr.compute_realizability(g, pol, "v1")
        rng = random.Random(7)
        for _ in range(500):
            edges, _ = rollout_policy(g, pol, "v1", 4, rng)
            assert all(flags.edge_marked[e] for e in edges)


@pytest.fixture(scope="module")
def fixture_region(fixture_graph):
    partition = rr.grid_partition(fixture_graph, 3)
    region = partition.region_of_index(fixture_graph.node_index("v3"))
    return partition, region


class TestArcPotentials:
    def test_fixture_activation_budgets(self, fixture_graph, fixture_region):
        partition, region = fixture_region
        table = rr.compute_arc_potentials(fixture_graph, partition, region, 6)
        expect = {"e4": 2, "e3": 3, "e2": 4, "e1": 5}
        for label, phi in expect.items():
            assert table.phi[edge_by_label(fixture_graph, label)] == phi

    def test_zero_horizon_all_infinite(self, fixture_graph, fixture_region):
        partition, region = fixture_region
        table = rr.compute_arc_potentials(fixture_graph, partition, region, 0)
        assert np.all(table.phi == INFINITE_POTENTIAL)

    def test_prune_fixture(self, fixture_graph, fixture_region):
        partition, region = fixture_region
        table = rr.compute_arc_potentials(fixture_graph, partition, region, 6)
        mask = rr.prune(fixture_graph, table, 4)
        kept = sorted(fixture_graph.edge_label(e) for e in np.nonzero(mask)[0])
        assert kept == ["e2", "e3", "e4"]
        assert not rr.prune(fixture_graph, table, 0).any()

    def test_prune_beyond_horizon_rejected(self, fixture_graph, fixture_region):
        partition, region = fixture_region
        table = rr.compute_arc_potentials(fixture_graph, partition, region, 6)
        with pytest.raises(ValueError, match="horizon"):
            rr.prune(fixture_graph, table, 7)

    def test_prune_rejects_table_with_another_dt(self, fixture_graph, fixture_region):
        partition, region = fixture_region
        table = rr.compute_arc_potentials(fixture_graph, partition, region, 6)
        with pytest.raises(ValueError, match="dt=0.5 but the graph has dt=1.0"):
            rr.prune(fixture_graph, dataclasses.replace(table, dt=0.5), 4)

    def test_policy_accepts_pruning_pair(self, fixture_graph, fixture_region):
        partition, region = fixture_region
        table = rr.compute_arc_potentials(fixture_graph, partition, region, 6)
        pruned = rr.compute_policy(fixture_graph, "v3", 4, edge_mask=rr.prune(fixture_graph, table, 4))
        full = rr.compute_policy(fixture_graph, "v3", 4)
        # Budget-4 pruning drops only the never-active-by-4 edge; u is intact.
        assert np.abs(pruned.u - full.u).max() <= 1e-12
        v1 = fixture_graph.node_index("v1")
        assert pruned.w[v1, 4] == edge_by_label(fixture_graph, "e2")

    def test_policy_mode_matches_loop_oracle(self):
        # phi[e] is the least budget t at which some region destination's
        # policy chooses e at a node (reached from the sources, if given).
        rng = random.Random(61)
        for case in range(24):
            g, s, _ = random_connected_graph(rng, max_nodes=8)
            if case % 3 == 0:
                g = with_self_loops_and_parallels(rng, g)
            T = rng.randint(0, 30)
            partition = rr.grid_partition(g, 2)
            for region in range(partition.region_count):
                for sources in (None, [s], rng.sample(g.node_ids, 2)):
                    expect = per_destination_potentials(g, partition, region, T, sources=sources)
                    table = rr.compute_arc_potentials(g, partition, region, T, sources=sources)
                    assert table.phi.tolist() == expect.tolist()

    @pytest.mark.parametrize("kind", ["policy", "conditioned", "path"])
    def test_one_kernel_build_per_block_layout(self, monkeypatch, kind):
        # x's only out-edge is the graph's unique least min_bin (2), so toward
        # x the blocks are 4 bins and toward y 2: two builds for the region
        # {x, y}.  All four destinations of a grid region share one.
        def dist(*bins):
            mass = np.zeros(max(bins) + 1)
            mass[list(bins)] = 1.0
            return rr.DiscreteDistribution(mass / mass.sum())

        g = rr.StochasticGraph(
            1.0,
            [(n, float(i), 0.0) for i, n in enumerate("abcxy")],
            [("x", "a", dist(2, 3)), ("a", "x", dist(*range(4, 10))), ("a", "y", dist(*range(5, 13))),
             ("b", "a", dist(4, 5, 6)), ("b", "a", dist(*range(6, 16))), ("b", "y", dist(*range(7, 21))),
             ("c", "b", dist(*range(4, 9))), ("y", "c", dist(4, 5)), ("a", "a", dist(4, 5)),
             ("c", "x", dist(4, 9)), ("y", "b", dist(*range(5, 40)))],
        )
        grid = rr.synthesize_distributions(rr.grid_topology(4), seed=5)
        cases = [
            (g, rr.RegionPartition([0, 0, 0, 1, 1]), 1, 40, 2, ["c", "b"]),
            (grid, rr.grid_partition(grid, 2), 3, 150, 1, ["n00_00"]),
        ]
        builds = []
        transform = rr.policy._transform
        monkeypatch.setattr(rr.policy, "_transform", lambda *args: builds.append(args[2:]) or transform(*args))
        for graph, partition, region, T, expect_builds, sources in cases:
            mode = "path" if kind == "path" else "policy"
            src = None if kind == "policy" else sources
            builds.clear()
            table = rr.compute_arc_potentials(graph, partition, region, T, mode=mode, sources=src)
            assert len(builds) == len(set(builds)) == expect_builds
            expect = per_destination_potentials(graph, partition, region, T, mode=mode, sources=src)
            assert table.phi.tolist() == expect.tolist()
            assert (table.phi < INFINITE_POTENTIAL).any()

    def test_path_mode_requires_sources(self, fixture_graph, fixture_region):
        partition, region = fixture_region
        with pytest.raises(ValueError, match="source"):
            rr.compute_arc_potentials(fixture_graph, partition, region, 4, mode="path")

    @pytest.mark.parametrize("mode", ["policy", "path"])
    def test_empty_source_list_rejected(self, fixture_graph, fixture_region, mode):
        # An empty list would leave every phi infinite, so prune would drop every edge.
        partition, region = fixture_region
        with pytest.raises(ValueError, match=re.escape(f"{mode}-mode potentials need one or more source nodes, got []")):
            rr.compute_arc_potentials(fixture_graph, partition, region, 4, mode=mode, sources=[])
        # Realizability from no source would report nothing reached.
        pol = rr.compute_policy(fixture_graph, "v3", 4)
        with pytest.raises(ValueError, match=re.escape("realizability needs one or more source nodes, got []")):
            rr.compute_realizability(fixture_graph, pol, [])

    def test_path_mode_fixture(self, fixture_graph, fixture_region):
        partition, region = fixture_region
        table = rr.compute_arc_potentials(
            fixture_graph, partition, region, 6, mode="path", sources=["v1"]
        )
        # Optimal paths: budget 3 -> (e3, e4); 4 -> (e2, e4); 5+ -> (e1, e4).
        assert table.phi[edge_by_label(fixture_graph, "e4")] == 3
        assert table.phi[edge_by_label(fixture_graph, "e3")] == 3
        assert table.phi[edge_by_label(fixture_graph, "e2")] == 4
        assert table.phi[edge_by_label(fixture_graph, "e1")] == 5


    def test_path_mode_keeps_paths_hopeless_at_the_search_budget(self):
        # At budget 7 the only path is s->d (0.1); s->y->d cannot arrive yet,
        # but from budget 8 on it arrives surely.
        late = np.zeros(21)
        late[[7, 20]] = [0.1, 0.9]
        hop = np.zeros(5)
        hop[4] = 1.0
        g = rr.StochasticGraph(
            1.0,
            [("s", 0.0, 0.0), ("y", 1.0, 0.0), ("d", 2.0, 0.0)],
            [("s", "d", rr.DiscreteDistribution(late)), ("s", "y", rr.DiscreteDistribution(hop)),
             ("y", "d", rr.DiscreteDistribution(hop))],
        )
        partition = rr.RegionPartition([int(nid == "d") for nid in g.node_ids])
        table = rr.compute_arc_potentials(g, partition, 1, 12, mode="path", sources=["s"])
        phi = {(a, b): table.phi[g.find_edges(a, b)[0]] for a, b in (("s", "d"), ("s", "y"), ("y", "d"))}
        assert phi == {("s", "d"): 7, ("s", "y"): 8, ("y", "d"): 8}
        mask = rr.prune(g, table, 8)
        pol = rr.compute_policy(g, "d", 8, edge_mask=mask)
        assert rr.sota_path(g, pol, "s", 8, edge_mask=mask)[0].reliability == 1.0


class TestPotentialsLogging:
    @staticmethod
    def two_node_graph():
        # One edge of minimum 2 bins: blocks of D=2.
        return rr.StochasticGraph(1.0, [("s", 0, 0), ("d", 1, 0)], [("s", "d", rr.DiscreteDistribution.point_mass(2))])

    def test_silent_without_logging_configuration(self):
        code = (
            "import reliroute as rr\n"
            f"g = rr.load_graph({str(FIXTURE_PATH)!r})\n"
            "rr.compute_arc_potentials(g, rr.grid_partition(g, 3), 2, 6, sources=['v1'])\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == done.stderr == ""

    def test_one_debug_record_per_pass(self, caplog):
        # Budgets 5..0 make blocks [4, 5], [2, 3] and [0, 1]; only the first
        # holds a state with a successor, (s, 5), which lands on (d, 3).
        g = self.two_node_graph()
        pol = rr.compute_policy(g, "d", 5)
        with caplog.at_level(logging.DEBUG, logger="reliroute"):
            rr.compute_realizability(g, pol, "s")
        [record] = [r for r in caplog.records if r.name.startswith("reliroute")]
        assert record.levelno == logging.DEBUG
        assert re.fullmatch(
            r"realizability from 's', T=5: 1 of 3 blocks of D=2 propagated, 2 states reached, \d+\.\d{4} s",
            record.getMessage(),
        )

    def test_one_debug_record_per_build(self, caplog):
        g = self.two_node_graph()
        partition = rr.RegionPartition([1, 0])
        with caplog.at_level(logging.DEBUG, logger="reliroute"):
            rr.compute_arc_potentials(g, partition, 1, 5, sources=["s"])
        records = [r for r in caplog.records if r.name == "reliroute.potentials"]
        assert [r.getMessage().split(":")[0] for r in records] == [
            "realizability from ['s'], T=5",
            "policy-mode potentials toward region 1, T=5, sources ['s']",
        ]
        assert re.fullmatch(r".*: 1 destinations, 1 kernel builds, \d+\.\d{4} s", records[1].getMessage())
        assert len([r for r in caplog.records if r.name == "reliroute.policy"]) == 1

    def test_results_identical_with_debug_on(self, caplog):
        g = rr.synthesize_distributions(rr.grid_topology(4), seed=3)
        partition = rr.grid_partition(g, 2)
        pol = rr.compute_policy(g, "n03_03", 90)

        def build():
            flags = rr.compute_realizability(g, pol, ["n00_00", "n01_02"], initial_budgets="any")
            tables = [rr.compute_arc_potentials(g, partition, 3, 90, mode=mode, sources=src)
                      for mode, src in (("policy", None), ("policy", ["n00_00"]), ("path", ["n00_00"]))]
            return [flags.reached.tobytes(), flags.edge_first_budget.tobytes()] + [t.phi.tobytes() for t in tables]

        quiet = build()
        with caplog.at_level(logging.DEBUG, logger="reliroute"):
            loud = build()
        assert len([r for r in caplog.records if r.name == "reliroute.potentials"]) == 1 + 4 + 3
        assert loud == quiet


def grid_instance(rng, k=5, T_cap=140):
    topology = rr.grid_topology(k)
    g = rr.synthesize_distributions(topology, seed=rng.randint(0, 10**6))
    inst = rr.generate_instances(g, 1, seed=rng.randint(0, 10**6))[0]
    return g, inst.source, inst.dest, min(inst.budget, T_cap)


class TestPruningSoundness:
    def test_policy_and_path_mode_preserve_values(self):
        rng = random.Random(50)
        for _ in range(6):
            g, s, d, T = grid_instance(rng, k=4)
            partition = rr.grid_partition(g, 2)
            region = partition.region_of_index(g.node_index(d))
            pol = rr.compute_policy(g, d, T)
            base = rr.sota_path(g, pol, s, T)
            base_rel = base[0].reliability if base else 0.0
            for mode, sources in (("policy", None), ("path", [s])):
                table = rr.compute_arc_potentials(
                    g, partition, region, T, mode=mode, sources=sources
                )
                mask = rr.prune(g, table, T)
                ppol = rr.compute_policy(g, d, T, edge_mask=mask)
                got = rr.sota_path(g, ppol, s, T, edge_mask=mask)
                got_rel = got[0].reliability if got else 0.0
                assert got_rel == pytest.approx(base_rel, abs=1e-12)
            # Policy values are preserved by policy-mode pruning.
            table = rr.compute_arc_potentials(g, partition, region, T, mode="policy")
            ppol = rr.compute_policy(g, d, T, edge_mask=rr.prune(g, table, T))
            assert abs(ppol.u[g.node_index(s), T] - pol.u[g.node_index(s), T]) <= 1e-12

    def test_path_mode_sound_at_every_budget(self):
        rng = random.Random(70)
        for _ in range(80):
            g, s, d = random_connected_graph(rng, max_nodes=8, max_width=3)
            T = rng.randint(1, 40)
            partition = rr.grid_partition(g, 2)
            region = partition.region_of_index(g.node_index(d))
            table = rr.compute_arc_potentials(g, partition, region, T, mode="path", sources=[s])
            pol = rr.compute_policy(g, d, T)
            for budget in range(T + 1):
                base = rr.sota_path(g, pol, s, budget)
                mask = rr.prune(g, table, budget)
                ppol = rr.compute_policy(g, d, budget, edge_mask=mask)
                got = rr.sota_path(g, ppol, s, budget, edge_mask=mask)
                assert (got[0].reliability if got else 0.0) == pytest.approx(
                    base[0].reliability if base else 0.0, abs=1e-12
                ), (budget, T)

    def test_path_mode_prunes_at_least_as_much(self):
        rng = random.Random(51)
        for _ in range(4):
            g, s, d, T = grid_instance(rng, k=4)
            partition = rr.grid_partition(g, 2)
            region = partition.region_of_index(g.node_index(d))
            pol_table = rr.compute_arc_potentials(g, partition, region, T, mode="policy")
            path_table = rr.compute_arc_potentials(
                g, partition, region, T, mode="path", sources=[s]
            )
            assert path_table.kept_count(T) <= pol_table.kept_count(T)

    def test_source_conditioned_policy_tables_prune_more(self):
        rng = random.Random(52)
        g, s, d, T = grid_instance(rng, k=4)
        partition = rr.grid_partition(g, 2)
        region = partition.region_of_index(g.node_index(d))
        free = rr.compute_arc_potentials(g, partition, region, T, mode="policy")
        conditioned = rr.compute_arc_potentials(
            g, partition, region, T, mode="policy", sources=[s]
        )
        assert conditioned.kept_count(T) <= free.kept_count(T)
        # Conditioned tables stay sound for queries from that source.
        mask = rr.prune(g, conditioned, T)
        pol = rr.compute_policy(g, d, T)
        ppol = rr.compute_policy(g, d, T, edge_mask=mask)
        base = rr.sota_path(g, pol, s, T)
        got = rr.sota_path(g, ppol, s, T, edge_mask=mask)
        assert (got[0].reliability if got else 0.0) == pytest.approx(
            base[0].reliability if base else 0.0, abs=1e-12
        )


class TestArchiveIO:
    def test_round_trip(self, fixture_graph, tmp_path):
        partition = rr.grid_partition(fixture_graph, 3)
        archive = rr.build_archive(fixture_graph, partition, 6)
        target = tmp_path / "potentials.json"
        rr.save_archive(archive, target)
        again = rr.load_archive(target)
        assert again["horizon"] == 6 and again["mode"] == "policy"
        assert np.array_equal(again["partition"].assignment, partition.assignment)
        for r, table in archive["tables"].items():
            loaded = again["tables"][r]
            assert np.array_equal(loaded.phi, table.phi)

    def test_reads_documents_with_intervals(self, fixture_graph, tmp_path):
        partition = rr.grid_partition(fixture_graph, 3)
        archive = rr.build_archive(fixture_graph, partition, 6)
        target = tmp_path / "potentials.json"
        rr.save_archive(archive, target)
        # Older writers also stored activation intervals and each table's
        # region nodes; they are ignored.
        doc = json.loads(target.read_text())
        assert all("region_nodes" not in tab for tab in doc["tables"].values())
        doc["k_intervals"] = 2
        for r, tab in doc["tables"].items():
            tab["region_nodes"] = [int(i) for i in partition.regions[int(r)]]
            tab["intervals"] = [[[p, 6]] if p is not None else [] for p in tab["phi"]]
            tab["next_lb"] = [7] * len(tab["phi"])
        target.write_text(json.dumps(doc))
        again = rr.load_archive(target)
        for r, table in archive["tables"].items():
            assert np.array_equal(again["tables"][r].phi, table.phi)

    @pytest.mark.parametrize(
        "drop, message",
        [
            (("assignment",), "potentials archive is missing a field: 'assignment'"),
            (("horizon",), "potentials archive is missing a field: 'horizon'"),
            (("tables", "2", "sources"), "potentials archive table 2 is missing a field: 'sources'"),
            (("tables", "2", "phi"), "potentials archive table 2 is missing a field: 'phi'"),
        ],
    )
    def test_missing_field_is_named(self, fixture_graph, tmp_path, drop, message):
        partition = rr.grid_partition(fixture_graph, 3)
        target = tmp_path / "potentials.json"
        rr.save_archive(rr.build_archive(fixture_graph, partition, 6, regions=[2]), target)
        doc = json.loads(target.read_text())
        parent = doc
        for key in drop[:-1]:
            parent = parent[key]
        del parent[drop[-1]]
        target.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            rr.load_archive(target)

    def test_reject_foreign_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(ValueError, match="archive"):
            rr.load_archive(bad)

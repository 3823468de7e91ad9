"""Realizability propagation, activation potentials, and pruning soundness."""

import dataclasses
import json
import logging
import os
import pickle
import random
import re
import subprocess
import sys

import numpy as np
import pytest

import reliroute as rr
from reliroute.potentials import INFINITE_POTENTIAL

from conftest import (
    COPIERS,
    FIXTURE_PATH,
    direct_policy,
    edge_by_label,
    edit_table_file,
    faint_edge_graph,
    forward_reachability_oracle,
    four_node_graph,
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
        with pytest.raises(ValueError, match="^policy table was built for another graph"):
            rr.compute_realizability(renamed, pol, "n0")

    def test_successor_that_leaves_by_another_nodes_edge_rejected(self, fixture_graph, tmp_path):
        g = fixture_graph
        target = tmp_path / "table.npz"
        rr.compute_policy(g, "v3", 5).save(target)
        v1, e1, e4 = g.node_index("v1"), edge_by_label(g, "e1"), edge_by_label(g, "e4")

        def take_e4(doc):
            assert doc["w"][v1, 5] == e1
            doc["w"][v1, 5] = e4  # an out-edge of v2

        edit_table_file(target, take_e4)
        table = rr.PolicyTable.load(target)
        table.check_graph(g)
        with pytest.raises(ValueError, match=rf"^policy table's w names an edge that does not leave node 'v1' in node row {v1}$"):
            rr.compute_realizability(g, table, ["v1"], 5)
        # Budgets below the edited one never read it.
        rr.compute_realizability(g, table, ["v1"], 4)

    def test_rollouts_stay_on_marked_edges(self, fixture_graph):
        g = fixture_graph
        pol = rr.compute_policy(g, "v3", 4)
        flags = rr.compute_realizability(g, pol, "v1")
        rng = random.Random(7)
        for _ in range(500):
            edges, _ = rollout_policy(g, pol, "v1", 4, rng)
            assert all(flags.edge_marked[e] for e in edges)


@pytest.fixture(scope="module")
def seed7_tables():
    """A policy table toward ``n05_05`` at horizon 100 and a policy-mode archive
    at horizon 200, on the 6x6 grid of seed 7; ``n05_05`` is in region 3."""
    graph = rr.synthesize_distributions(rr.grid_topology(6), seed=7)
    partition = rr.grid_partition(graph, 2)
    assert partition.region_of_index(graph.node_index("n05_05")) == 3
    return rr.compute_policy(graph, "n05_05", 100), rr.build_archive(graph, partition, 200)


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
        # The same masses and node ids, but the table's budgets count half-second bins.
        partition, region = fixture_region
        half = rr.load_graph(dict(rr.save_graph(fixture_graph), dt=0.5))
        table = rr.compute_arc_potentials(half, partition, region, 6)
        with pytest.raises(ValueError, match="^potential table was built for another graph"):
            rr.prune(fixture_graph, table, 4)

    def test_prune_rejects_table_with_another_edge_count(self, fixture_graph, fixture_region):
        partition, region = fixture_region
        table = rr.compute_arc_potentials(fixture_graph, partition, region, 6)
        with pytest.raises(ValueError, match="potential table has 3 edges but the graph has 4"):
            rr.prune(fixture_graph, dataclasses.replace(table, phi=table.phi[:3]), 4)

    def test_partition_of_another_graph_rejected(self):
        g3, g4 = (rr.synthesize_distributions(rr.grid_topology(k), seed=7) for k in (3, 4))
        partition = rr.grid_partition(g3, 2)
        message = "partition assigns 9 nodes to regions but the graph has 16"
        with pytest.raises(ValueError, match=message):
            partition.check_graph(g4)
        with pytest.raises(ValueError, match=message):
            rr.compute_arc_potentials(g4, partition, 0, 60)
        with pytest.raises(ValueError, match=message):
            rr.build_archive(g4, partition, 60)

    def test_archive_horizon_checked_without_regions(self, fixture_graph):
        partition = rr.grid_partition(fixture_graph, 3)
        with pytest.raises(ValueError, match="^horizon must be an integer, got 2.5$"):
            rr.build_archive(fixture_graph, partition, 2.5)

    def test_tables_of_another_graph_refused(self, seed7_tables):
        # Same nodes, edges and dt as the seed-7 grid, other masses.
        other = rr.synthesize_distributions(rr.grid_topology(6), dict(rr.synth.DEFAULT_MODEL, cov=2.0), seed=8)
        pol, archive = seed7_tables
        table = archive["tables"][3]
        message = "^{} table was built for another graph"
        for check in (lambda: pol.check_graph(other),
                      lambda: rr.sota_path_report(other, pol, "n00_00", 100),
                      lambda: rr.compute_realizability(other, pol, "n00_00")):
            with pytest.raises(ValueError, match=message.format("policy")):
                check()
        for check in (lambda: table.check_graph(other), lambda: rr.prune(other, table, 100)):
            with pytest.raises(ValueError, match=message.format("potential")):
                check()

    def test_tables_pass_on_copies_of_their_graph(self, seed7_tables, tmp_path):
        pol, archive = seed7_tables
        graph = rr.synthesize_distributions(rr.grid_topology(6), seed=7)
        rr.save_graph(graph, tmp_path / "net.json")
        pol.save(tmp_path / "table.npz")
        rr.save_archive(archive, tmp_path / "pot.npz")
        for copy in (rr.load_graph(tmp_path / "net.json"), pickle.loads(pickle.dumps(graph))):
            for table in (pol, rr.PolicyTable.load(tmp_path / "table.npz")):
                table.check_graph(copy)
            for tables in (archive["tables"], rr.load_archive(tmp_path / "pot.npz")["tables"]):
                tables[3].check_graph(copy)

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
        # {x, y}.  All four destinations of a grid region share one.  The
        # spectra stay with the graph, so a second table builds nothing.
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
        spectra = rr.StochasticGraph._kernel_spectra

        def counted(graph, D, R):
            held = graph._spectra.get(D)
            out = spectra(graph, D, R)
            if graph._spectra[D] is not held:
                builds.append((D, R))
            return out

        monkeypatch.setattr(rr.StochasticGraph, "_kernel_spectra", counted)
        for graph, partition, region, T, expect_builds, sources in cases:
            mode = "path" if kind == "path" else "policy"
            src = None if kind == "policy" else sources
            builds.clear()
            table = rr.compute_arc_potentials(graph, partition, region, T, mode=mode, sources=src)
            assert len(builds) == len({D for D, _ in builds}) == expect_builds, builds
            builds.clear()
            again = rr.compute_arc_potentials(graph, partition, region, T, mode=mode, sources=src)
            assert builds == [] and again.phi.tolist() == table.phi.tolist()
            expect = per_destination_potentials(graph, partition, region, T, mode=mode, sources=src)
            assert table.phi.tolist() == expect.tolist()
            assert (table.phi < INFINITE_POTENTIAL).any()

    def test_unknown_modes_are_refused_by_name(self, fixture_graph, fixture_region):
        partition, region = fixture_region
        with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
            rr.compute_arc_potentials(fixture_graph, partition, region, 4, mode="bogus")
        pol = rr.compute_policy(fixture_graph, "v3", 4)
        with pytest.raises(ValueError, match="^unknown initial-budget mode 'bogus'$"):
            rr.compute_realizability(fixture_graph, pol, "v1", initial_budgets="bogus")

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

    @pytest.mark.parametrize(
        "mode, sources",
        [("path", ["nope"]), ("policy", ["nope"]), ("path", ["v1", "nope"]), ("policy", "nope")],
        ids=["path", "conditioned", "path-second-source", "conditioned-one-id"],
    )
    def test_unknown_source_is_refused_before_any_solve(self, monkeypatch, fixture_graph, fixture_region,
                                                        mode, sources):
        partition, region = fixture_region
        solves = []
        solve = rr.potentials.compute_policy
        monkeypatch.setattr(rr.potentials, "compute_policy", lambda *args, **kw: solves.append(args) or solve(*args, **kw))
        with pytest.raises(ValueError, match="^unknown node id 'nope'$"):
            rr.compute_arc_potentials(fixture_graph, partition, region, 4, mode=mode, sources=sources)
        if mode == "path":
            with pytest.raises(ValueError, match="^unknown node id 'nope'$"):
                rr.build_archive(fixture_graph, partition, 4, mode=mode, sources=sources)
        assert solves == []

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
        pol = rr.compute_policy(g, "d", 8, edge_mask=rr.prune(g, table, 8))
        assert rr.sota_path(g, pol, "s", 8)[0].reliability == 1.0


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
        assert re.fullmatch(r".*: 1 destinations, \d+\.\d{4} s", records[1].getMessage())
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
                ppol = rr.compute_policy(g, d, T, edge_mask=rr.prune(g, table, T))
                got = rr.sota_path(g, ppol, s, T)
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
                ppol = rr.compute_policy(g, d, budget, edge_mask=rr.prune(g, table, budget))
                got = rr.sota_path(g, ppol, s, budget)
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
        # Conditioned tables keep the policy from that source at every budget.
        si = g.node_index(s)
        pol = rr.compute_policy(g, d, T)
        ppol = rr.compute_policy(g, d, T, edge_mask=rr.prune(g, conditioned, T))
        assert np.abs(ppol.u[si] - pol.u[si]).max() <= 1e-12

    def test_pruning_restricts_the_solve_not_the_search(self):
        g = four_node_graph()
        partition = rr.RegionPartition([int(nid == "d") for nid in g.node_ids])
        ranking = lambda found: [(p.nodes, p.edges, p.reliability) for p in found]
        base = ranking(rr.sota_path(g, rr.compute_policy(g, "d", 4), "s", 4, k=3))
        assert [(nodes, rel) for nodes, _, rel in base] == [
            (("s", "b", "d"), pytest.approx(0.7)), (("s", "a", "d"), pytest.approx(0.6)),
            (("s", "a", "d"), pytest.approx(0.5)),
        ]
        for mode, sources, k in (("policy", None, 3), ("path", ["s"], 1)):
            table = rr.build_archive(g, partition, 4, mode=mode, sources=sources)["tables"][1]
            mask = rr.prune(g, table, 4)
            pol = rr.compute_policy(g, "d", 4, edge_mask=mask)
            assert ranking(rr.sota_path(g, pol, "s", 4, k=k)) == base[:k]
            if mode == "policy":
                # Searching the masked graph loses s->b->d.
                assert not mask[g.find_edges("s", "b")[0]]
                assert rr.sota_path(g, pol, "s", 4, edge_mask=mask)[0].reliability == pytest.approx(0.6)
        # A table conditioned on s keeps only the policy's moves from s.
        conditioned = rr.compute_arc_potentials(g, partition, 1, 4, sources=["s"])
        pol = rr.compute_policy(g, "d", 4, edge_mask=rr.prune(g, conditioned, 4))
        assert rr.sota_path(g, pol, "s", 4)[0].reliability == pytest.approx(0.6)
        refusal = "policy-mode archives serve every source and take none, got ['s']"
        with pytest.raises(ValueError, match=re.escape(refusal)):
            rr.build_archive(g, partition, 4, mode="policy", sources=["s"])

    def test_a_successor_worth_0_is_no_successor(self):
        # Were a -> b, worth 0 and within EXACT_TOL of the best, a's successor
        # at budget 5, a -> d would never be one: the table would drop it, and
        # the pruned query would find no path where the unpruned one finds
        # a -> d at 1e-13.
        g = faint_edge_graph()
        ab, ad = g.find_edges("a", "b")[0], g.find_edges("a", "d")[0]
        faint = pytest.approx(1e-13, rel=1e-9, abs=0.0)
        for pol in (rr.compute_policy(g, "d", 5), direct_policy(g, "d", 5)):
            assert pol.u[0, 5] == faint and pol.w[0, 5] == ad
        table = rr.compute_arc_potentials(g, rr.RegionPartition([0, 0, 1]), 1, 60)
        assert (table.phi[ad], table.phi[ab]) == (1, 11)
        found = lambda mask: [(p.nodes, p.reliability) for p in rr.sota_path(
            g, rr.compute_policy(g, "d", 5, edge_mask=mask), "a", 5)]
        assert found(rr.prune(g, table, 5)) == found(None) == [(("a", "d"), faint)]

    def test_whole_graph_search_matches_unpruned_on_randoms(self):
        # Policy tables at k=3 and path tables at k=1, on the pruned policy.
        rng = random.Random(81)
        for _ in range(40):
            g, s, d = random_connected_graph(rng, max_nodes=8, max_width=3)
            T = rng.randint(1, 40)
            partition = rr.grid_partition(g, 2)
            region = partition.region_of_index(g.node_index(d))
            base = rr.sota_path(g, rr.compute_policy(g, d, T), s, T, k=3)
            for mode, sources, k in (("policy", None, 3), ("path", [s], 1)):
                table = rr.compute_arc_potentials(g, partition, region, T, mode=mode, sources=sources)
                pol = rr.compute_policy(g, d, T, edge_mask=rr.prune(g, table, T))
                got = rr.sota_path(g, pol, s, T, k=k)
                assert [p.reliability for p in got] == pytest.approx([p.reliability for p in base[:k]], abs=1e-12)


OLDER = (
    "potentials archive lists its regions, so an older reliroute wrote it "
    "and its rows need not follow the region ids; rebuild it"
)


class TestArchiveIO:
    def test_round_trip(self, fixture_graph, tmp_path):
        partition = rr.grid_partition(fixture_graph, 3)
        archive = rr.build_archive(fixture_graph, partition, 6, mode="path", sources=["v1"])
        target = tmp_path / "potentials.json"
        rr.save_archive(archive, target)
        assert list(tmp_path.iterdir()) == [target]
        again = rr.load_archive(target)
        assert again.keys() == {"partition", "tables"}
        assert {table.graph_digest for table in again["tables"].values()} == {fixture_graph.digest}
        assert np.array_equal(again["partition"].assignment, partition.assignment)
        assert again["tables"].keys() == archive["tables"].keys()
        for r, table in archive["tables"].items():
            loaded = again["tables"][r]
            assert loaded.phi.dtype == table.phi.dtype and loaded.phi.tobytes() == table.phi.tobytes()
            assert (loaded.horizon, loaded.mode, loaded.sources) == (6, "path", ("v1",))
            loaded.check_graph(fixture_graph)
            for phi in (table.phi, loaded.phi):
                with pytest.raises(ValueError, match="read-only"):
                    phi[0] = 0

    def test_loaded_rows_and_fields_are_frozen(self, fixture_graph, tmp_path):
        # A loaded table's phi is a row of the stacked array, which is read-only
        # too, and no field of a table can be reassigned.
        archive = rr.build_archive(fixture_graph, rr.grid_partition(fixture_graph, 3), 6)
        rr.save_archive(archive, tmp_path / "potentials.npz")
        table = rr.load_archive(tmp_path / "potentials.npz")["tables"][0]
        kept = table.kept_count(6)
        with pytest.raises(ValueError, match="read-only"):
            table.phi.base[:] = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.phi = np.zeros_like(table.phi)
        assert table.kept_count(6) == kept

    def test_a_table_built_from_a_view_keeps_no_writable_base(self, fixture_graph):
        # The constructor copies a view of a writable array; a loaded row,
        # whose base is read-only, stays a view.
        table = rr.compute_arc_potentials(fixture_graph, rr.grid_partition(fixture_graph, 3), 0, 6)
        base = table.phi.copy()
        built = rr.PotentialTable(6, "policy", base[:], table.graph_digest)
        base[:] = 0
        assert built.phi.tolist() == table.phi.tolist() and not built.phi.flags.writeable
        rows = np.stack([table.phi, table.phi])
        rows.setflags(write=False)
        assert rr.PotentialTable(6, "policy", rows[1], table.graph_digest).phi.base is rows

    @pytest.mark.parametrize("copier", list(COPIERS.values()), ids=list(COPIERS))
    def test_tables_pickle_and_copy_through_the_constructor(self, fixture_graph, copier):
        partition = rr.grid_partition(fixture_graph, 3)
        table = rr.compute_arc_potentials(fixture_graph, partition, 0, 6, mode="path", sources=["v1"])
        back = copier(table)
        assert (back.horizon, back.mode, back.graph_digest, back.sources) == (6, "path", fixture_graph.digest, ("v1",))
        assert back.phi.dtype == table.phi.dtype and back.phi.tobytes() == table.phi.tobytes()
        assert not back.phi.flags.writeable

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda tables: tables.pop(1), "archive has tables for regions [0, 2], not the partition's 0..2"),
            (lambda tables: tables.update({3: tables[0]}), "archive has tables for regions [0, 1, 2, 3], not the partition's 0..2"),
            (lambda tables: tables.update({"1": tables.pop(1)}), "archive has tables for regions [0, 2, '1'], not the partition's 0..2"),
            (lambda tables: tables.update({2: dataclasses.replace(tables[2], horizon=50)}),
             "archive table of region 2 disagrees with region 0's on horizon"),
            (lambda tables: tables.update({1: dataclasses.replace(tables[1], graph_digest="0" * 64, mode="path")}),
             "archive table of region 1 disagrees with region 0's on graph_digest, mode"),
            (lambda tables: tables.update({2: dataclasses.replace(tables[2], sources=("v1",))}),
             "archive table of region 2 disagrees with region 0's on sources"),
        ],
        ids=["missing-region", "extra-region", "string-region", "horizon", "digest-and-mode", "sources"],
    )
    def test_save_refuses_tables_that_disagree(self, fixture_graph, tmp_path, edit, message):
        archive = rr.build_archive(fixture_graph, rr.grid_partition(fixture_graph, 3), 6)
        target = tmp_path / "potentials.npz"
        # The header comes from the tables: a horizon key beside them is not read.
        rr.save_archive(dict(archive, horizon=50), target)
        assert {table.horizon for table in rr.load_archive(target)["tables"].values()} == {6}
        tables = dict(archive["tables"])
        edit(tables)
        with pytest.raises(ValueError, match=re.escape(message)):
            rr.save_archive(dict(archive, tables=tables), tmp_path / "bad.npz")
        assert not (tmp_path / "bad.npz").exists()

    def test_reads_documents_with_intervals(self, fixture_graph, tmp_path):
        partition = rr.grid_partition(fixture_graph, 3)
        archive = rr.build_archive(fixture_graph, partition, 6)
        target = tmp_path / "potentials.npz"
        rr.save_archive(archive, target)
        # Header fields that nothing reads, such as the activation intervals
        # and region nodes of older writers, are ignored.
        edit_table_file(target, lambda doc: doc.update(k_intervals=2, region_count=3, next_lb=[7]))
        again = rr.load_archive(target)
        for r, table in archive["tables"].items():
            assert np.array_equal(again["tables"][r].phi, table.phi)

    @pytest.mark.parametrize(
        "drop, message",
        [
            (("assignment",), "potentials archive is missing a field: 'assignment'"),
            (("horizon",), "potentials archive is missing a field: 'horizon'"),
            (("sources",), "potentials archive is missing a field: 'sources'"),
            (("phi",), "potentials archive is missing a field: 'phi'"),
            (("graph_digest",), "potentials archive is missing a field: 'graph_digest'"),
        ],
    )
    def test_missing_field_is_named(self, fixture_graph, tmp_path, drop, message):
        partition = rr.grid_partition(fixture_graph, 3)
        target = tmp_path / "potentials.npz"
        rr.save_archive(rr.build_archive(fixture_graph, partition, 6), target)

        def edit(doc):
            for key in drop:
                del doc[key]

        edit_table_file(target, edit)
        with pytest.raises(ValueError, match=f"^{message}$"):
            rr.load_archive(target)

    @pytest.mark.parametrize("assignment", [[0.0, 1.0, 2.0], [0.5, 1.7, 1.2]], ids=["whole-floats", "fractions"])
    def test_float_assignment_rejected(self, fixture_graph, tmp_path, assignment):
        target = tmp_path / "potentials.npz"
        rr.save_archive(rr.build_archive(fixture_graph, rr.grid_partition(fixture_graph, 3), 6), target)
        edit_table_file(target, lambda doc: doc.update(assignment=np.array(assignment)))
        with pytest.raises(ValueError, match="^assignment must hold integer region ids, got float64 values$"):
            rr.load_archive(target)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(horizon=4.9), "potentials archive horizon must be an integer, got 4.9"),
            (lambda doc: doc.update(horizon=-1), "potentials archive horizon must be nonnegative, got -1"),
            (lambda doc: doc.update(mode="bogus"), "potentials archive has unknown mode 'bogus'"),
            # An older reliroute listed the regions its rows hold, in any order.
            (lambda doc: doc.update(regions=[1.0]), OLDER),
            (lambda doc: doc.update(regions=[3]), OLDER),
            (lambda doc: doc.update(regions=[-1]), OLDER),
            (lambda doc: doc.update(regions=2), OLDER),
            (lambda doc: doc.update(regions=[0, 1, 2]), OLDER),
            (lambda doc: doc.update(regions=[2, 2], phi=doc["phi"][[2, 2]]), OLDER),
            (lambda doc: doc.update(phi=doc["phi"][[0, 1, 2, 2]]), "got int64 values of shape (4, 4)"),
            (lambda doc: doc.update(sources=["v1"]), "potentials archive is policy-mode but lists sources ['v1']"),
            (lambda doc: doc.update(mode="path"),
             "potentials archive is path-mode and needs a nonempty list of sources, got None"),
            (lambda doc: doc.update(mode="path", sources="v1"),
             "potentials archive is path-mode and needs a nonempty list of sources, got 'v1'"),
            (lambda doc: doc.update(phi=np.where(doc["phi"] == 2, 2.7, doc["phi"])),
             "got float64 values of shape (3, 4)"),
            (lambda doc: doc.update(phi=doc["phi"] == 2), "got bool values of shape (3, 4)"),
            (lambda doc: doc.update(phi=doc["phi"][0]), "got int64 values of shape (4,)"),
            (lambda doc: doc.update(phi=np.where(doc["phi"] == 5, 7, doc["phi"])), "got int64 values of shape (3, 4)"),
            (lambda doc: doc.update(phi=doc["phi"] - 3), "got int64 values of shape (3, 4)"),
        ],
        ids=["fractional-horizon", "negative-horizon", "unknown-mode", "float-region", "region-out-of-range",
             "negative-region", "regions-not-a-list", "every-region-listed", "repeated-region", "repeated-row",
             "policy-with-sources", "path-without-sources", "sources-not-a-list", "float-phi",
             "bool-phi", "one-dimensional-phi", "phi-past-horizon", "negative-phi"],
    )
    def test_load_validates_header_values(self, fixture_graph, tmp_path, edit, message):
        target = tmp_path / "potentials.npz"
        rr.save_archive(rr.build_archive(fixture_graph, rr.grid_partition(fixture_graph, 3), 6), target)
        edit_table_file(target, edit)
        with pytest.raises(ValueError, match=re.escape(message)):
            rr.load_archive(target)

    def test_reject_foreign_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(ValueError, match="bad.json is not a potentials archive"):
            rr.load_archive(bad)

    @pytest.mark.parametrize("kind", ["json-text", "graph-document", "policy-table", "truncated", "pre-digest"])
    def test_load_refuses_other_files(self, fixture_graph, tmp_path, kind):
        target = tmp_path / "potentials.json"
        archive = rr.build_archive(fixture_graph, rr.grid_partition(fixture_graph, 3), 6)
        if kind == "json-text":
            target.write_text(json.dumps({"format": "reliroute-potentials", "version": 1}))
        elif kind == "graph-document":
            rr.save_graph(fixture_graph, target)
        elif kind == "policy-table":
            rr.compute_policy(fixture_graph, "v3", 6).save(target)
        elif kind == "truncated":
            rr.save_archive(archive, target)
            target.write_bytes(target.read_bytes()[:-40])
        else:
            # The versioned JSON document archives were before they recorded a graph digest.
            phi = [None if p == INFINITE_POTENTIAL else int(p) for p in archive["tables"][2].phi]
            target.write_text(json.dumps({
                "format": "reliroute-potentials", "version": 1, "region_count": 3, "horizon": 6, "dt": 1.0,
                "mode": "policy", "assignment": archive["partition"].assignment.tolist(),
                "tables": {"2": {"phi": phi, "sources": None}},
            }))
        refusal = f"^{re.escape(str(target))} is not a potentials archive written by this version of reliroute$"
        with pytest.raises(ValueError, match=refusal):
            rr.load_archive(target)

"""Guided path search, the direct evaluator, and the exhaustive oracle."""

import random
import re

import numpy as np
import pytest

import reliroute as rr
from reliroute.errors import SearchBudgetExceeded

from conftest import brute_force_best_path, brute_force_paths, direct_policy, edge_by_label, random_connected_graph


@pytest.fixture(scope="module")
def fixture_policy(fixture_graph):
    return direct_policy(fixture_graph, "v3", 4)


class TestFixtureSearch:
    def test_optimal_path_uses_locally_dominated_edge(self, fixture_graph, fixture_policy):
        # For budgets 1..3 the middle edge is dominated, yet it carries the
        # most reliable full path at budget 4 (subpath reasoning fails here).
        paths = rr.sota_path(fixture_graph, fixture_policy, "v1", 4)
        assert [fixture_graph.edge_label(e) for e in paths[0].edges] == ["e2", "e4"]
        assert paths[0].nodes == ("v1", "v2", "v3")
        assert paths[0].reliability == pytest.approx(0.65, abs=1e-12)

    def test_three_best_ranking(self, fixture_graph, fixture_policy):
        paths = rr.sota_path(fixture_graph, fixture_policy, "v1", 4, k=3)
        labels = [[fixture_graph.edge_label(e) for e in p.edges] for p in paths]
        assert labels == [["e2", "e4"], ["e3", "e4"], ["e1", "e4"]]
        assert [p.reliability for p in paths] == pytest.approx([0.65, 0.60, 0.45], abs=1e-12)

    def test_source_equals_destination(self, fixture_graph, fixture_policy):
        paths = rr.sota_path(fixture_graph, fixture_policy, "v3", 4)
        assert paths[0].nodes == ("v3",)
        assert paths[0].edges == ()
        assert paths[0].reliability == 1.0

    def test_zero_probability_budget_returns_empty(self, fixture_graph):
        pol = rr.compute_policy(fixture_graph, "v3", 2)
        report = rr.sota_path_report(fixture_graph, pol, "v1", 2)
        assert report.paths == []
        assert report.status == "no_feasible_path"

    def test_unreachable_is_distinguished(self, fixture_graph):
        pol = rr.compute_policy(fixture_graph, "v1", 6)
        report = rr.sota_path_report(fixture_graph, pol, "v3", 6)
        assert report.paths == []
        assert report.status == "unreachable"

    def test_termination_certificate(self, fixture_graph, fixture_policy):
        report = rr.sota_path_report(fixture_graph, fixture_policy, "v1", 4)
        best = report.paths[0].reliability
        assert report.final_queue_max_key is not None
        assert report.final_queue_max_key <= best + 1e-12
        assert report.max_child_key_excess <= 1e-12
        assert best <= report.policy_bound + 1e-9


@pytest.mark.parametrize("k", [1, 3])
def test_a_table_past_the_budget_searches_alike(fixture_graph, k):
    # Prefixes are kept to the budget's bins, whatever the table's horizon.
    grid = rr.synthesize_distributions(rr.grid_topology(6), seed=7)
    for g, source, dest, T in ((fixture_graph, "v1", "v3", 4), (grid, "n00_00", "n05_05", 120)):
        outcomes = []
        for horizon in (T, 2 * T):
            report = rr.sota_path_report(g, rr.compute_policy(g, dest, horizon), source, T, k=k)
            outcomes.append(([(p.nodes, p.edges, p.reliability) for p in report.paths],
                             report.status, report.popped, report.pushed, report.queue_peak))
        assert outcomes[0] == outcomes[1]
        assert len(outcomes[0][0]) == k


class TestPathReliability:
    def test_fixture_values(self, fixture_graph):
        g = fixture_graph
        e1, e3, e4 = (edge_by_label(g, lbl) for lbl in ("e1", "e3", "e4"))
        assert rr.path_reliability(g, None, 4, edges=[e1, e4]) == pytest.approx(0.45)
        assert rr.path_reliability(g, None, 4, edges=[e3, e4]) == pytest.approx(0.60)

    def test_single_edge_full_horizon_gives_total_mass(self, fixture_graph):
        g = fixture_graph
        assert rr.path_reliability(g, ["v2", "v3"], 50) == pytest.approx(1.0)

    def test_node_path_requires_unique_edges(self, fixture_graph):
        with pytest.raises(ValueError, match="parallel"):
            rr.path_reliability(fixture_graph, ["v1", "v2"], 4)
        assert rr.path_reliability(fixture_graph, ["v2", "v3"], 2) == pytest.approx(0.5)

    def test_broken_path_rejected(self, fixture_graph):
        with pytest.raises(ValueError, match="^empty path$"):
            rr.path_reliability(fixture_graph, [], 4)
        with pytest.raises(ValueError, match="no edge"):
            rr.path_reliability(fixture_graph, ["v3", "v1"], 4)
        e4 = edge_by_label(fixture_graph, "e4")
        bad = [e4, edge_by_label(fixture_graph, "e1")]
        with pytest.raises(ValueError, match="consecutive"):
            rr.path_reliability(fixture_graph, None, 4, edges=bad)
        # Edge indices are integers in 0 .. E-1, refused by name before the
        # consecutiveness check; a cap is checked even on an empty path.
        for edges, message in [
            ([-1], "edge index must be nonnegative, got -1"),
            ([1.7, e4], "edge index must be an integer, got 1.7"),
            ([True, e4], "edge index must be an integer, got True"),
            ([4, e4], "edge index 4 exceeds the last edge 3"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                rr.path_reliability(fixture_graph, None, 6, edges=edges)
        with pytest.raises(ValueError, match="^edge index 4 exceeds the last edge 3$"):
            rr.path_distribution(fixture_graph, [4])
        with pytest.raises(ValueError, match="^cap must be an integer, got 2.5$"):
            rr.path_distribution(fixture_graph, [], cap=2.5)


def chained_convolve(graph, edges, cap):
    """The path's distribution as one ``convolve`` per edge, from bin 0."""
    dist = rr.DiscreteDistribution.point_mass(0, dt=graph.dt)
    for e in edges:
        dist = rr.convolve(dist, graph.edge_dists[e], cap=cap)
    return dist


def test_path_distribution_is_the_chained_convolve():
    # LET paths of two grids, and random walks over a grid whose edges carry
    # truncated tails and over a node with two looping edges, each with no
    # cap and with a cap that may cut every bin of a partial path (its masses
    # then go empty).  Caps past 128 bins reach numpy's pairwise sums.
    rng = random.Random(31)
    grids = [rr.synthesize_distributions(rr.grid_topology(8), seed=3),
             rr.synthesize_distributions(rr.grid_topology(6, dt=0.5), seed=4)]
    paths = []
    for g in grids:
        for _ in range(12):
            s, d = rng.sample(g.node_ids, 2)
            paths.append((g, list(rr.let_path(g, s, d).edges)))
    g = grids[0]
    cut = rr.StochasticGraph(g.dt, [(n, 0.0, 0.0) for n in g.node_ids], [
        (g.node_ids[g.edge_tails[e]], g.node_ids[g.edge_heads[e]],
         rr.convolve(g.edge_dists[e], rr.DiscreteDistribution.point_mass(0), cap=int(g.edge_dists[e].min_bin) + 2))
        for e in range(g.num_edges)])
    # Kernels with gaps, so that a cap can leave a partial result ending in
    # zeros, which convolve trims before the next edge and before its total.
    gaps = rr.StochasticGraph(1.0, [(0, 0.0, 0.0)], [
        (0, 0, rr.DiscreteDistribution.from_pairs([(2, 0.3), (9, 0.2), (40, 0.5)])),
        (0, 0, rr.DiscreteDistribution.from_pairs([(1, 0.25), (3, 0.25), (17, 0.125), (70, 0.375)])),
    ])
    for graph, walks in ((cut, 12), (gaps, 200)):
        for _ in range(walks):
            walk, node = [], rng.randrange(graph.num_nodes)
            for _ in range(rng.randint(0, 9)):
                walk.append(rng.choice(graph.out_edges[node]))
                node = int(graph.edge_heads[walk[-1]])
            paths.append((graph, walk))
    for graph, edges in paths:
        for cap in (None, rng.randint(1, 240)):
            want, got = chained_convolve(graph, edges, cap), rr.path_distribution(graph, edges, cap=cap)
            assert got.mass.tobytes() == want.mass.tobytes(), (edges, cap)
            assert (got.truncated_tail, got.total_mass, got.dt) == (want.truncated_tail, want.total_mass, want.dt)


class TestBruteForce:
    def test_fixture_best(self, fixture_graph):
        best = brute_force_best_path(fixture_graph, "v1", "v3", 4)
        assert [fixture_graph.edge_label(e) for e in best.edges] == ["e2", "e4"]
        assert best.reliability == pytest.approx(0.65, abs=1e-12)

    def test_disconnected_pair(self, fixture_graph):
        assert brute_force_best_path(fixture_graph, "v3", "v1", 4) is None

    def test_size_guard(self):
        rng = random.Random(0)
        g, s, d = random_connected_graph(rng, max_nodes=14, min_nodes=13)
        with pytest.raises(ValueError, match="brute force"):
            brute_force_best_path(g, s, d, 10, max_nodes=12)

    def test_matches_guided_search_on_randoms(self):
        rng = random.Random(2718)
        for _ in range(40):
            g, s, d = random_connected_graph(rng, max_nodes=8, max_extra_edges=10)
            T = rng.randint(1, 40)
            pol = rr.compute_policy(g, d, T)
            found = rr.sota_path(g, pol, s, T)
            oracle = brute_force_best_path(g, s, d, T, max_nodes=8)
            if not found:
                assert oracle is None or oracle.reliability <= 1e-15
                continue
            assert found[0].reliability == pytest.approx(oracle.reliability, abs=1e-9)
            if found[0].edges != oracle.edges:
                other = rr.path_reliability(g, None, T, edges=found[0].edges)
                assert other == pytest.approx(oracle.reliability, abs=1e-9)

    def test_k_ranking_matches_enumeration(self, fixture_graph, fixture_policy):
        ranked = brute_force_paths(fixture_graph, "v1", "v3", 4)
        searched = rr.sota_path(fixture_graph, fixture_policy, "v1", 4, k=3)
        assert [p.reliability for p in ranked] == pytest.approx(
            [p.reliability for p in searched], abs=1e-12
        )


class TestSearchProperties:
    def test_admissibility_and_loop_freedom_on_randoms(self):
        rng = random.Random(515)
        for _ in range(25):
            g, s, d = random_connected_graph(rng, max_nodes=10, max_extra_edges=16)
            T = rng.randint(1, 50)
            pol = rr.compute_policy(g, d, T)
            report = rr.sota_path_report(g, pol, s, T, k=3)
            assert report.max_child_key_excess <= 1e-12
            for p in report.paths:
                assert len(set(p.nodes)) == len(p.nodes)
                assert p.reliability <= pol.u[g.node_index(s), T] + 1e-9
                assert p.reliability == pytest.approx(
                    rr.path_reliability(g, None, T, edges=p.edges), abs=1e-12
                )
            if report.paths and report.final_queue_max_key is not None:
                assert report.final_queue_max_key <= report.paths[-1].key_at_pop + 1e-12
            rels = [p.reliability for p in report.paths]
            assert all(b <= a + 1e-12 for a, b in zip(rels, rels[1:]))

    def test_queue_limit_enforced(self):
        rng = random.Random(6)
        g, s, d = random_connected_graph(rng, max_nodes=10, max_extra_edges=24)
        pol = rr.compute_policy(g, d, 40)
        if pol.u[g.node_index(s), 40] > 0:
            with pytest.raises(SearchBudgetExceeded):
                rr.sota_path(g, pol, s, 40, queue_limit=2)

    def test_budget_above_policy_horizon_rejected(self, fixture_graph, fixture_policy):
        with pytest.raises(ValueError, match="horizon"):
            rr.sota_path(fixture_graph, fixture_policy, "v1", 9)

    def test_budget_below_policy_horizon(self):
        # A table solved past the budget answers it like one solved to it
        # (the direct sums make the two tables agree exactly up to the budget).
        rng = random.Random(31)
        for _ in range(15):
            g, s, d = random_connected_graph(rng, max_nodes=8)
            T = rng.randint(1, 40)
            long_pol = direct_policy(g, d, T + rng.randint(1, 30))
            pol = direct_policy(g, d, T)
            assert rr.sota_path(g, long_pol, s, T, k=3) == rr.sota_path(g, pol, s, T, k=3)

    def test_table_from_another_graph_rejected(self):
        g4, g5 = (rr.synthesize_distributions(rr.grid_topology(k), seed=1) for k in (4, 5))
        pol = rr.compute_policy(g5, "n03_03", 60)
        with pytest.raises(ValueError, match="25 node rows but the graph has 16 nodes"):
            rr.sota_path(g4, pol, "n00_00", 60)

    def test_table_with_another_dt_rejected(self):
        # Same node ids, but the table's budgets count half-second bins.
        half, unit = (rr.synthesize_distributions(rr.grid_topology(4, dt=dt), seed=1) for dt in (0.5, 1.0))
        pol = rr.compute_policy(half, "n03_03", 40)
        with pytest.raises(ValueError, match="^policy table was built for another graph"):
            rr.sota_path_report(unit, pol, "n00_00", 40)
        with pytest.raises(ValueError, match="^policy table was built for another graph"):
            rr.compute_realizability(unit, pol, "n00_00")

    def test_pruned_search_with_mask(self, fixture_graph):
        g = fixture_graph
        mask = np.ones(g.num_edges, dtype=bool)
        mask[edge_by_label(g, "e2")] = False
        pol = rr.compute_policy(g, "v3", 4, edge_mask=mask)
        paths = rr.sota_path(g, pol, "v1", 4, edge_mask=mask)
        assert [g.edge_label(e) for e in paths[0].edges] == ["e3", "e4"]

    @pytest.mark.parametrize("length", [2, 9])
    def test_mask_of_another_length_rejected(self, fixture_graph, fixture_policy, length):
        mask = np.ones(length, dtype=bool)
        message = f"edge mask has shape \\({length},\\) but the graph has 4 edges"
        with pytest.raises(ValueError, match=message):
            rr.sota_path_report(fixture_graph, fixture_policy, "v1", 4, edge_mask=mask)
        with pytest.raises(ValueError, match=message):
            rr.compute_policy(fixture_graph, "v3", 4, edge_mask=mask)

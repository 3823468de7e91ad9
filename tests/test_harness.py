"""Instance generation, LET baselines, and the benchmark runner."""

import csv
import dataclasses
import math

import pytest

import reliroute as rr

from conftest import edge_by_label, four_node_graph


class TestLetPath:
    def test_fixture_means_pick_middle_edge(self, fixture_graph):
        g = fixture_graph
        means = {lbl: g.edge_dists[edge_by_label(g, lbl)].mean() for lbl in ("e1", "e2", "e3", "e4")}
        assert means == pytest.approx({"e1": 2.1, "e2": 1.8, "e3": 2.2, "e4": 2.5})
        lp = rr.let_path(g, "v1", "v3")
        assert [g.edge_label(e) for e in lp.edges] == ["e2", "e4"]
        assert lp.expected_seconds == pytest.approx(4.3)

    def test_source_equals_destination(self, fixture_graph):
        lp = rr.let_path(fixture_graph, "v2", "v2")
        assert lp.nodes == ("v2",) and lp.edges == () and lp.expected_seconds == 0.0

    def test_single_edge_graph(self):
        dist = rr.DiscreteDistribution.from_pairs([[3, 1.0]])
        g = rr.StochasticGraph(1.0, [("a", 0, 0), ("b", 1, 0)], [("a", "b", dist, "only")])
        lp = rr.let_path(g, "a", "b")
        assert [g.edge_label(e) for e in lp.edges] == ["only"]

    def test_unreachable(self, fixture_graph):
        assert rr.let_path(fixture_graph, "v3", "v1") is None

    def test_truncated_edge_fails_only_when_means_are_needed(self):
        cut = rr.DiscreteDistribution([0.0, 0.7], truncated_tail=0.3)
        g = rr.StochasticGraph(1.0, [("a", 0, 0), ("b", 1, 0)], [("a", "b", cut)])
        # Building the graph, solving and searching need no means.
        table = rr.compute_policy(g, "b", 3)
        assert [p.edges for p in rr.sota_path(g, table, "a", T=3)] == [(0,)]
        assert rr.path_reliability(g, ["a", "b"], 3) == pytest.approx(0.7)
        with pytest.raises(ValueError, match="truncated"):
            rr.let_path(g, "a", "b")
        with pytest.raises(ValueError, match="truncated"):
            rr.generate_instances(g, 1, seed=0)

    def test_exact_ties_go_to_the_smaller_predecessor(self):
        # s -> a -> d and s -> b -> d both take 3 s on average, but b is
        # settled first (1 s against 2 s).  The tie goes to the smaller
        # predecessor a; between a's two parallel edges of equal mean, to the
        # smaller edge index.
        def at(k):
            return rr.DiscreteDistribution.point_mass(k)

        two_bins = rr.DiscreteDistribution([0.0, 0.5, 0.0, 0.5])  # mean 2 s
        nodes = [(n, i, 0) for i, n in enumerate("abds")]
        edges = [("s", "b", at(1), "sb"), ("b", "d", at(2), "bd"), ("s", "a", two_bins, "sa"),
                 ("a", "d", at(1), "ad1"), ("a", "d", at(1), "ad2")]
        g = rr.StochasticGraph(1.0, nodes, edges)
        lp = rr.let_path(g, "s", "d")
        assert lp.nodes == ("s", "a", "d")
        assert [g.edge_label(e) for e in lp.edges] == ["sa", "ad1"]
        assert lp.expected_seconds == 3.0
        # Without the tie, the cheaper route wins whichever node is smaller.
        edges[1] = ("b", "d", rr.DiscreteDistribution([0.0, 0.5, 0.5]), "bd")  # mean 1.5 s
        lp = rr.let_path(rr.StochasticGraph(1.0, nodes, edges), "s", "d")
        assert lp.nodes == ("s", "b", "d") and lp.expected_seconds == 2.5


class TestGenerateInstances:
    def test_fixture_budget_window(self, fixture_graph):
        instances = rr.generate_instances(fixture_graph, 60, seed=99)
        long_trips = [i for i in instances if (i.source, i.dest) == ("v1", "v3")]
        assert long_trips, "expected some v1->v3 draws"
        for inst in long_trips:
            assert inst.p5 == 3 and inst.p95 == 6
            assert 3 <= inst.budget <= 6
            assert inst.let_nodes == ("v1", "v2", "v3")

    def test_budgets_respect_percentile_window(self, fixture_graph):
        for inst in rr.generate_instances(fixture_graph, 40, seed=5):
            assert inst.p5 <= inst.budget <= inst.p95

    def test_reproducible_bit_for_bit(self, fixture_graph):
        a = rr.generate_instances(fixture_graph, 25, seed=31415)
        b = rr.generate_instances(fixture_graph, 25, seed=31415)
        assert a == b
        c = rr.generate_instances(fixture_graph, 25, seed=31416)
        assert a != c

    def test_zero_instances_rejected(self, fixture_graph):
        with pytest.raises(ValueError):
            rr.generate_instances(fixture_graph, 0, seed=1)

    def test_tiny_graph_rejected(self):
        g = rr.StochasticGraph(1.0, [("a", 0, 0)], [])
        with pytest.raises(ValueError, match="two nodes"):
            rr.generate_instances(g, 1, seed=1)

    def test_disconnected_graph_rejected(self):
        g = rr.StochasticGraph(1.0, [("a", 0, 0), ("b", 1, 0)], [])
        with pytest.raises(ValueError, match="connected"):
            rr.generate_instances(g, 2, seed=1)


class TestRunBenchmark:
    def test_fixture_instance_record(self, fixture_graph):
        inst = rr.ProblemInstance(
            source="v1", dest="v3", budget=4, seed=0,
            let_nodes=("v1", "v2", "v3"), let_edges=(1, 3), p5=3, p95=6,
        )
        config = rr.BenchmarkConfig(repetitions=1)
        records = rr.run_benchmark(fixture_graph, [inst], config=config)
        rec = records[0]
        assert rec.status == "found"
        assert rec.reliability == pytest.approx(0.65, abs=1e-12)
        assert rec.path_edge_count == 2
        assert rec.policy_time >= 0.0 and rec.path_time >= 0.0
        assert rec.popped <= rec.pushed
        assert rec.reliability == pytest.approx(
            rr.path_reliability(fixture_graph, None, 4, edges=rec.path_edges), abs=1e-12
        )
        assert rec.reliability <= rec.policy_bound + 1e-9
        assert rec.policy_bound == rr.compute_policy(fixture_graph, "v3", 4).u[0, 4]

    def test_empty_instance_list(self, fixture_graph):
        assert rr.run_benchmark(fixture_graph, [], config=rr.BenchmarkConfig()) == []

    def test_failures_recorded_not_fatal(self, fixture_graph):
        bad = rr.ProblemInstance(
            source="v1", dest="missing", budget=4, seed=0,
            let_nodes=(), let_edges=(), p5=0, p95=0,
        )
        records = rr.run_benchmark(fixture_graph, [bad], config=rr.BenchmarkConfig(repetitions=1))
        assert records[0].status == "error"
        assert "unknown node" in records[0].error
        assert rr.summarize(records) == {"instances": 1, "completed": 0}
        # With pruning on, the bad instance fails alone; a good one sharing
        # the run still gets its table.
        good = dataclasses.replace(bad, dest="v3")
        for mode in ("policy", "path"):
            config = rr.BenchmarkConfig(repetitions=1, pruning=mode, grid_k=3)
            bad_rec, good_rec = rr.run_benchmark(fixture_graph, [bad, good], config=config)
            assert bad_rec.status == "error" and "unknown node" in bad_rec.error
            assert good_rec.status == "found" and good_rec.pruned_reliability == good_rec.reliability
            summary = rr.summarize([bad_rec, good_rec])
            assert (summary["instances"], summary["completed"]) == (2, 1)

    def test_pruned_runs_match_unpruned(self):
        g = rr.synthesize_distributions(rr.grid_topology(4), seed=21)
        instances = rr.generate_instances(g, 4, seed=8)
        for mode in ("policy", "path"):
            config = rr.BenchmarkConfig(repetitions=1, pruning=mode, grid_k=2)
            for rec in rr.run_benchmark(g, instances, config=config):
                assert rec.status == "found"
                assert not math.isnan(rec.pruned_reliability)
                assert rec.pruned_reliability == pytest.approx(rec.reliability, abs=1e-12)
                assert 0 < rec.pruned_kept_edges <= g.num_edges

    @pytest.mark.parametrize("mode", ["policy", "path"])
    def test_pruned_runs_search_the_whole_graph(self, mode):
        # On the 2x2 grid d shares a region with a. A policy table prunes s->b
        # from the solve, so a search of the pruned graph would return 0.6.
        inst = rr.ProblemInstance(source="s", dest="d", budget=4, seed=0, let_nodes=(), let_edges=(), p5=0, p95=0)
        config = rr.BenchmarkConfig(repetitions=1, pruning=mode, grid_k=2)
        [rec] = rr.run_benchmark(four_node_graph(), [inst], config=config)
        assert rec.path_nodes == ("s", "b", "d")
        assert rec.pruned_reliability == rec.reliability == pytest.approx(0.7)

    @pytest.mark.parametrize("mode", ["policy", "path"])
    def test_pruned_runs_build_each_table_once(self, monkeypatch, mode):
        g = rr.synthesize_distributions(rr.grid_topology(4), seed=21)
        partition = rr.grid_partition(g, 2)
        trips = [
            ("n00_00", "n03_03", 70), ("n01_01", "n02_02", 60), ("n00_00", "n02_03", 95),
            ("n00_03", "n03_02", 45), ("n00_03", "n03_03", 80), ("n03_03", "n00_00", 90),
        ]
        instances = [
            rr.ProblemInstance(source=s, dest=d, budget=b, seed=0,
                               let_nodes=(), let_edges=(), p5=0, p95=0)
            for s, d, b in trips
        ]

        def key(inst):
            region = partition.region_of_index(g.node_index(inst.dest))
            return region, ((inst.source,) if mode == "path" else None)

        horizons = {}
        for inst in instances:
            horizons[key(inst)] = max(horizons.get(key(inst), 0), inst.budget)
        assert len(horizons) == (4 if mode == "path" else 2)

        builds = []
        build = rr.harness.compute_arc_potentials

        def counting(graph, part, region, T, mode, sources):
            builds.append(((region, sources), T))
            return build(graph, part, region, T, mode=mode, sources=sources)

        monkeypatch.setattr(rr.harness, "compute_arc_potentials", counting)
        config = rr.BenchmarkConfig(repetitions=1, pruning=mode, grid_k=2)
        records = rr.run_benchmark(g, instances, config=config)
        assert sorted(builds, key=repr) == sorted(horizons.items(), key=repr)

        for inst, rec in zip(instances, records):
            assert rec.status == "found", rec.error
            region, sources = key(inst)
            table = rr.compute_arc_potentials(g, partition, region, inst.budget, mode=mode, sources=sources)
            mask = rr.prune(g, table, inst.budget)
            pol = rr.compute_policy(g, inst.dest, inst.budget, edge_mask=mask)
            best = rr.sota_path(g, pol, inst.source, inst.budget)
            assert rec.pruned_kept_edges == int(mask.sum())
            assert rec.pruned_reliability == best[0].reliability

    @pytest.mark.parametrize("mode", ["policy", "path"])
    def test_pruning_without_grid_rejected(self, fixture_graph, mode):
        instances = rr.generate_instances(fixture_graph, 1, seed=2)
        with pytest.raises(ValueError, match=f"pruning '{mode}' needs grid_k"):
            rr.run_benchmark(fixture_graph, instances, config=rr.BenchmarkConfig(pruning=mode))

    @pytest.mark.parametrize(
        "config, message",
        [
            (rr.BenchmarkConfig(pruning="bogus", grid_k=2), "pruning 'bogus' is not one of"),
            (rr.BenchmarkConfig(grid_k=2), "grid_k 2 needs pruning"),
        ],
        ids=["pruning", "grid-without-pruning"],
    )
    def test_unknown_config_value_rejected(self, fixture_graph, config, message):
        instances = rr.generate_instances(fixture_graph, 2, seed=1)
        with pytest.raises(ValueError, match=message):
            rr.run_benchmark(fixture_graph, instances, config=config)

    def test_csv_and_plot_outputs(self, fixture_graph, tmp_path):
        instances = rr.generate_instances(fixture_graph, 3, seed=2)
        records = rr.run_benchmark(
            fixture_graph, instances, config=rr.BenchmarkConfig(repetitions=1),
            out_dir=tmp_path,
        )
        with open(tmp_path / "records.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert rows[0]["source"] == str(records[0].source)
        assert float(rows[0]["reliability"]) == pytest.approx(records[0].reliability)
        with open(tmp_path / "plots" / "budget_vs_time.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["budget", "policy_time", "path_time"]
        assert (tmp_path / "plots" / "length_vs_time.csv").exists()
        assert (tmp_path / "plots" / "plots.gp").exists()

    def test_summary_fields(self, fixture_graph):
        instances = rr.generate_instances(fixture_graph, 5, seed=4)
        records = rr.run_benchmark(fixture_graph, instances, config=rr.BenchmarkConfig(repetitions=1))
        summary = rr.summarize(records)
        assert summary["completed"] == 5
        assert summary["median_policy_time"] >= 0.0
        assert summary["median_path_time"] >= 0.0

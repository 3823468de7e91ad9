"""Policy solver: DP values, the direct-sum oracle, invariants."""

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
from reliroute.policy import NO_EDGE

from conftest import (
    FIXTURE_PATH,
    brute_force_paths,
    direct_policy,
    edge_by_label,
    edge_evaluation,
    edit_table_file,
    random_connected_graph,
    reference_policy,
)


class TestPolicyValues:
    def test_fixture_hand_dp(self, fixture_graph):
        g = fixture_graph
        pol = direct_policy(g, "v3", 4)
        v1, v2, v3 = (g.node_index(v) for v in ("v1", "v2", "v3"))
        e4 = g.edge_dists[edge_by_label(g, "e4")]
        # Intermediate node: u equals the running CDF of the last edge.
        assert pol.u[v2].tolist() == pytest.approx([e4.cdf(t) for t in range(5)], abs=1e-15)
        assert pol.u[v1, 3] == pytest.approx(0.30, abs=1e-12)
        assert pol.w[v1, 3] == edge_by_label(g, "e3")
        assert pol.u[v1, 4] == pytest.approx(0.65, abs=1e-12)
        assert pol.w[v1, 4] == edge_by_label(g, "e2")
        # The runner-up edge evaluation at the full budget.
        assert edge_evaluation(g, pol.u, edge_by_label(g, "e3"), 4) == pytest.approx(0.60)
        assert np.all(pol.u[v3] == 1.0)

    def test_fixture_extended_horizon(self, fixture_graph):
        g = fixture_graph
        pol = direct_policy(g, "v3", 6)
        v1 = g.node_index("v1")
        assert pol.u[v1, 5] == pytest.approx(0.95, abs=1e-12)
        assert pol.w[v1, 5] == edge_by_label(g, "e1")
        assert pol.u[v1, 6] == pytest.approx(1.0, abs=1e-12)

    def test_destination_row_is_one(self):
        rng = random.Random(8)
        for _ in range(5):
            g, _, d = random_connected_graph(rng, max_nodes=8)
            pol = rr.compute_policy(g, d, rng.randint(0, 30))
            assert np.all(pol.u[g.node_index(d)] == 1.0)
            assert np.all(pol.w[g.node_index(d)] == NO_EDGE)

    def test_matches_reference_oracle(self):
        rng = random.Random(99)
        for _ in range(15):
            g, _, d = random_connected_graph(rng, max_nodes=9, max_extra_edges=14)
            T = rng.randint(0, 30)
            ref_u, ref_w = reference_policy(g, d, T)
            tables = [direct_policy(g, d, T), rr.compute_policy(g, d, T)]
            assert np.array_equal(tables[0].w, tables[1].w)
            for pol in tables:
                assert np.abs(pol.u - ref_u).max() <= 1e-12
                # The oracle breaks exact ties only, so its winner can differ
                # at near-ties; the chosen edge must still attain u.
                for i in range(g.num_nodes):
                    for t in range(T + 1):
                        e = int(pol.w[i, t])
                        if e != rr.NO_EDGE and e != int(ref_w[i, t]):
                            attained = edge_evaluation(g, ref_u, e, t)
                            assert abs(attained - ref_u[i, t]) <= 1e-12

    def test_solver_matches_direct_sums(self):
        rng = random.Random(4)
        for _ in range(10):
            g, _, d = random_connected_graph(rng, max_nodes=12, max_extra_edges=18)
            T = rng.randint(0, 48)
            direct = direct_policy(g, d, T)
            pol = rr.compute_policy(g, d, T)
            assert np.abs(direct.u - pol.u).max() <= 1e-9
            assert np.array_equal(direct.w, pol.w)

    def test_monotone_in_budget(self):
        rng = random.Random(13)
        for _ in range(8):
            g, _, d = random_connected_graph(rng, max_nodes=10)
            pol = rr.compute_policy(g, d, rng.randint(1, 40))
            assert np.all(np.diff(pol.u, axis=1) >= 0.0)
            assert np.all(pol.u >= 0.0) and np.all(pol.u <= 1.0)

    def test_consistency_spot_check(self):
        rng = random.Random(77)
        g, _, d = random_connected_graph(rng, max_nodes=10, max_extra_edges=16)
        T = 40
        pol = rr.compute_policy(g, d, T)
        di = g.node_index(d)
        for _ in range(1000):
            i = rng.randrange(g.num_nodes)
            t = rng.randint(0, T)
            if i == di:
                continue
            evals = [edge_evaluation(g, pol.u, e, t) for e in g.out_edges[i]]
            expected = max(evals, default=0.0)
            assert abs(pol.u[i, t] - min(expected, 1.0)) <= 1e-12
            if pol.w[i, t] != NO_EDGE:
                chosen = edge_evaluation(g, pol.u, int(pol.w[i, t]), t)
                assert abs(pol.u[i, t] - chosen) <= 1e-12

    def test_policy_dominates_every_path(self):
        rng = random.Random(31)
        for _ in range(10):
            g, s, d = random_connected_graph(rng, max_nodes=7, max_extra_edges=8)
            T = rng.randint(1, 25)
            pol = rr.compute_policy(g, d, T)
            bound = pol.u[g.node_index(s), T]
            for path in brute_force_paths(g, s, d, T, max_nodes=7):
                assert path.reliability <= bound + 1e-9

    def test_tie_break_smallest_and_stable(self):
        # Two structurally identical parallel edges: the first declared wins.
        dist = rr.DiscreteDistribution.from_pairs([[1, 1.0]])
        g = rr.StochasticGraph(
            1.0,
            [(0, 0.0, 0.0), (1, 1.0, 0.0)],
            [(0, 1, dist, "first"), (0, 1, dist, "second")],
        )
        runs = [rr.compute_policy(g, 1, 6), direct_policy(g, 1, 6), rr.compute_policy(g, 1, 6)]
        for pol in runs:
            assert g.edge_label(int(pol.w[0, 3])) == "first"
            assert np.array_equal(pol.w, runs[0].w)

    def test_edge_mask_restricts_choices(self, fixture_graph):
        g = fixture_graph
        mask = np.ones(g.num_edges, dtype=bool)
        mask[edge_by_label(g, "e2")] = False
        pol = rr.compute_policy(g, "v3", 4, edge_mask=mask)
        v1 = g.node_index("v1")
        assert pol.u[v1, 4] == pytest.approx(0.60)  # best without e2
        assert pol.w[v1, 4] == edge_by_label(g, "e3")

    def test_missing_destination(self, fixture_graph):
        with pytest.raises(ValueError, match="unknown node"):
            rr.compute_policy(fixture_graph, "nope", 4)


class TestPolicyTableIO:
    @pytest.mark.parametrize("suffix", [".npz", ".bin", ".json"])
    def test_round_trip(self, fixture_graph, tmp_path, suffix):
        # Any name holds a compressed npz, under exactly that name.
        pol = rr.compute_policy(fixture_graph, "v3", 5)
        target = tmp_path / f"table{suffix}"
        pol.save(target)
        assert list(tmp_path.iterdir()) == [target]
        again = rr.PolicyTable.load(target)
        assert again.dest == "v3"
        assert again.horizon == 5 and again.graph_digest == fixture_graph.digest
        assert again.u.dtype == pol.u.dtype and again.u.tobytes() == pol.u.tobytes()
        assert again.w.dtype == pol.w.dtype and again.w.tobytes() == pol.w.tobytes()
        again.check_graph(fixture_graph)

    def test_load_ignores_update_order_field(self, fixture_graph, tmp_path):
        # Tables written before the solver had a single traversal order carry
        # an "order" entry.
        pol = rr.compute_policy(fixture_graph, "v3", 5)
        target = tmp_path / "table.npz"
        pol.save(target)
        edit_table_file(target, lambda doc: doc.update(order="dijkstra-blocks"))
        again = rr.PolicyTable.load(target)
        assert np.array_equal(again.u, pol.u)
        assert np.array_equal(again.w, pol.w)

    def test_load_ignores_backend_field(self, fixture_graph, tmp_path):
        # Tables written before the table stopped recording its convolution
        # backend carry a "backend" entry.
        pol = rr.compute_policy(fixture_graph, "v3", 5)
        target = tmp_path / "table.npz"
        pol.save(target)

        def add_backend(doc):
            assert "backend" not in doc
            doc["backend"] = "zdc"

        edit_table_file(target, add_backend)
        again = rr.PolicyTable.load(target)
        assert np.array_equal(again.u, pol.u)
        assert np.array_equal(again.w, pol.w)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(w=doc["w"][:-1]), r"u has shape \(3, 6\) and its w \(2, 6\)"),
            (lambda doc: doc.update(horizon=4), r"one column per budget 0..4"),
            (lambda doc: doc.pop("destination"), r"missing a field: 'destination'"),
            (lambda doc: doc.pop("graph_digest"), r"^policy table is missing a field: 'graph_digest'$"),
            (lambda doc: doc.update(w=doc["w"].astype(float)), r"of float64 and float64; .* w of integers$"),
        ],
        ids=["row-counts-differ", "wrong-horizon", "no-destination", "no-digest", "float-successors"],
    )
    def test_load_rejects_malformed_documents(self, fixture_graph, tmp_path, edit, message):
        target = tmp_path / "table.npz"
        rr.compute_policy(fixture_graph, "v3", 5).save(target)
        edit_table_file(target, edit)
        with pytest.raises(ValueError, match=message):
            rr.PolicyTable.load(target)

    # The fixture's table toward v3 at T=5: rows v1, v2, v3 (the destination),
    # u[v1] = [0, 0, 0, .3, .65, .95] and u[v2] = [0, 0, .5, 1, 1, 1], with w
    # an edge exactly where u > 0.  Each edit sets doc[name][index] = value.
    @pytest.mark.parametrize(
        "name, index, value, message",
        [
            ("u", (0, 5), 7.5, r"u is not a probability in \[0, 1\] in node row 0"),
            ("u", (0, 2), -0.1, r"u is not a probability in \[0, 1\] in node row 0"),
            ("u", (1, 3), np.nan, r"u is not a probability in \[0, 1\] in node row 1"),
            ("u", (0, 4), 0.2, r"u decreases along budgets in node row 0"),
            ("w", (1, 0), -2, r"w is below NO_EDGE \(-1\) in node row 1"),
            ("u", (2, 0), 0.5, r"u is 1 at budget 0 in 0 rows; only the destination's row is"),
            ("u", 1, 1.0, r"u is 1 at budget 0 in 2 rows; only the destination's row is"),
            ("w", (2, 3), 3, r"destination row is not all ones in u and NO_EDGE in w in node row 2"),
            ("u", 1, 0.0, r"w does not match u \(NO_EDGE where u > 0, or an edge where u is 0\) in node row 1"),
            ("w", (0, 5), -1, r"w does not match u \(NO_EDGE where u > 0, or an edge where u is 0\) in node row 0"),
        ],
        ids=["u-above-one", "u-negative", "u-nan", "u-decreases", "w-below-no-edge", "no-destination-row",
             "two-destination-rows", "destination-takes-an-edge", "zeroed-row-keeps-its-edges",
             "no-edge-where-u-positive"],
    )
    def test_load_refuses_contents_no_solve_produces(self, fixture_graph, tmp_path, name, index, value, message):
        target = tmp_path / "table.npz"
        rr.compute_policy(fixture_graph, "v3", 5).save(target)
        edit_table_file(target, lambda doc: doc[name].__setitem__(index, value))
        with pytest.raises(ValueError, match=f"^policy table's {message}$"):
            rr.PolicyTable.load(target)

    def test_check_graph_refuses_an_edge_past_the_last(self, fixture_graph, tmp_path):
        target = tmp_path / "table.npz"
        rr.compute_policy(fixture_graph, "v3", 5).save(target)
        edit_table_file(target, lambda doc: doc["w"].__setitem__((0, 5), fixture_graph.num_edges))
        table = rr.PolicyTable.load(target)
        with pytest.raises(ValueError, match=r"^policy table's w names edge 4 but the graph has 4 edges$"):
            table.check_graph(fixture_graph)

    @pytest.mark.parametrize(
        "horizon, message",
        [
            (4.7, "policy table horizon must be an integer, got 4.7"),
            (5.0, "policy table horizon must be an integer, got 5.0"),
            (True, "policy table horizon must be an integer, got True"),
            ("5", "policy table horizon must be an integer, got '5'"),
            (-1, "policy table horizon must be nonnegative, got -1"),
        ],
    )
    def test_load_validates_the_horizon(self, fixture_graph, tmp_path, horizon, message):
        target = tmp_path / "table.npz"
        rr.compute_policy(fixture_graph, "v3", 5).save(target)
        edit_table_file(target, lambda doc: doc.update(horizon=horizon))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            rr.PolicyTable.load(target)

    @pytest.mark.parametrize("kind", ["json-text", "graph-document", "potentials-archive", "truncated", "pre-digest"])
    def test_load_refuses_other_files(self, fixture_graph, tmp_path, kind):
        target = tmp_path / "table.npz"
        pol = rr.compute_policy(fixture_graph, "v3", 5)
        if kind == "json-text":
            # The JSON form tables once had.
            target.write_text(json.dumps({"destination": "v3", "horizon": 5, "u": pol.u.tolist(), "w": pol.w.tolist()}))
        elif kind == "graph-document":
            rr.save_graph(fixture_graph, target)
        elif kind == "potentials-archive":
            rr.save_archive(rr.build_archive(fixture_graph, rr.grid_partition(fixture_graph, 2), 5), target)
        elif kind == "truncated":
            pol.save(target)
            target.write_bytes(target.read_bytes()[:-40])
        else:
            # The header tables had before they recorded their kind and graph digest.
            def predigest(doc):
                del doc["kind"], doc["graph_digest"]
                doc.update(dt=1.0, nodes=list(fixture_graph.node_ids))

            pol.save(target)
            edit_table_file(target, predigest)
        refusal = f"^{re.escape(str(target))} is not a policy table written by this version of reliroute$"
        with pytest.raises(ValueError, match=refusal):
            rr.PolicyTable.load(target)


class TestSolveLogging:
    def test_silent_without_logging_configuration(self):
        # Records at any level stop at the package's NullHandler, so logging's
        # last-resort handler never writes them to stderr.
        code = (
            "import logging, reliroute as rr\n"
            f"g = rr.load_graph({str(FIXTURE_PATH)!r})\n"
            "rr.compute_policy(g, 'v3', 4)\n"
            "logging.getLogger('reliroute.policy').warning('not shown')\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == done.stderr == ""

    def test_one_debug_record_per_solve(self, caplog):
        # One edge of minimum 2 bins: D = 2, blocks 0..2, and the edge can be
        # nonzero from budget 2, so it takes part in blocks 1 and 2 only.
        g = rr.StochasticGraph(1.0, [("s", 0, 0), ("d", 1, 0)], [("s", "d", rr.DiscreteDistribution.point_mass(2))])
        with caplog.at_level(logging.DEBUG, logger="reliroute"):
            rr.compute_policy(g, "d", 5)
        [record] = [r for r in caplog.records if r.name.startswith("reliroute")]
        assert record.levelno == logging.DEBUG
        assert re.fullmatch(
            r"policy toward 'd', T=5: 3 blocks of D=2, R=1 partitions, 2 of 3 edge-blocks active, \d+\.\d{4} s",
            record.getMessage(),
        )

    def test_tables_identical_with_debug_on(self, caplog):
        g = rr.synthesize_distributions(rr.grid_topology(6), seed=3)
        quiet = rr.compute_policy(g, "n05_05", 120)
        with caplog.at_level(logging.DEBUG, logger="reliroute"):
            loud = rr.compute_policy(g, "n05_05", 120)
        assert len(caplog.records) == 1
        assert loud.u.tobytes() == quiet.u.tobytes()
        assert loud.w.tobytes() == quiet.w.tobytes()



@pytest.fixture(scope="module")
def budget_calls(fixture_graph):
    """Each public entry point that takes a budget or horizon, as ``T -> call``."""
    g = fixture_graph
    pol = rr.compute_policy(g, "v3", 4)
    partition = rr.grid_partition(g, 3)
    region = partition.region_of_index(g.node_index("v3"))
    table = rr.compute_arc_potentials(g, partition, region, 4)
    edges = [edge_by_label(g, "e2"), edge_by_label(g, "e4")]
    return {
        "compute_policy": lambda T: rr.compute_policy(g, "v3", T),
        "sota_path_report": lambda T: rr.sota_path_report(g, pol, "v1", T=T),
        "path_reliability": lambda T: rr.path_reliability(g, None, T, edges=edges),
        "compute_realizability": lambda T: rr.compute_realizability(g, pol, "v1", T),
        "compute_arc_potentials": lambda T: rr.compute_arc_potentials(g, partition, region, T),
        "PotentialTable.edge_mask": lambda T: table.edge_mask(T),
    }


BUDGET_ENTRY_POINTS = [
    "compute_policy",
    "sota_path_report",
    "path_reliability",
    "compute_realizability",
    "compute_arc_potentials",
    "PotentialTable.edge_mask",
]


class TestBudgetCheck:
    @pytest.mark.parametrize("entry", BUDGET_ENTRY_POINTS)
    @pytest.mark.parametrize("value", [3.7, 3.0, True, "3"], ids=repr)
    def test_non_integer_budget_rejected(self, budget_calls, entry, value):
        with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {value!r}")):
            budget_calls[entry](value)

    @pytest.mark.parametrize("entry", BUDGET_ENTRY_POINTS)
    def test_negative_budget_rejected(self, budget_calls, entry):
        name = "horizon" if entry in ("compute_policy", "compute_realizability", "compute_arc_potentials") else "budget"
        with pytest.raises(ValueError, match=f"^{name} must be nonnegative, got -1$"):
            budget_calls[entry](-1)

    @pytest.mark.parametrize("entry", BUDGET_ENTRY_POINTS)
    def test_numpy_integer_budget_accepted(self, budget_calls, entry):
        budget_calls[entry](np.int64(3))

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("sota_path_report", "budget 5 exceeds the policy horizon 4"),
            ("compute_realizability", "horizon 5 exceeds the policy horizon 4"),
            ("PotentialTable.edge_mask", "budget 5 exceeds the preprocessed horizon 4"),
        ],
    )
    def test_budget_above_horizon_rejected(self, budget_calls, entry, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            budget_calls[entry](5)


@pytest.fixture(scope="module")
def count_calls(fixture_graph):
    """Each public entry point that takes a count or a region id, as
    ``(name in the message, least value, value -> call)``."""
    g = fixture_graph
    pol = rr.compute_policy(g, "v3", 4)
    partition = rr.grid_partition(g, 3)
    instances = rr.generate_instances(g, 1, seed=2)
    d = rr.DiscreteDistribution.point_mass(1)
    return {
        "sota_path_report.k": ("k", 1, lambda v: rr.sota_path_report(g, pol, "v1", T=4, k=v)),
        "generate_instances.n": ("instance count", 1, lambda v: rr.generate_instances(g, v)),
        "grid_partition.k": ("grid dimension", 1, lambda v: rr.grid_partition(g, v)),
        "grid_topology.k": ("grid dimension", 2, lambda v: rr.grid_topology(v)),
        "convolve.cap": ("cap", 1, lambda v: rr.convolve(d, d, cap=v)),
        "compute_arc_potentials.region": ("region", 0, lambda v: rr.compute_arc_potentials(g, partition, v, 4)),
        "BenchmarkConfig.repetitions": (
            "repetitions", 1, lambda v: rr.run_benchmark(g, instances, rr.BenchmarkConfig(repetitions=v))),
        "BenchmarkConfig.path_repetitions": (
            "path_repetitions", 1, lambda v: rr.run_benchmark(g, instances, rr.BenchmarkConfig(path_repetitions=v))),
    }


COUNT_ENTRY_POINTS = [
    "sota_path_report.k",
    "generate_instances.n",
    "grid_partition.k",
    "grid_topology.k",
    "convolve.cap",
    "compute_arc_potentials.region",
    "BenchmarkConfig.repetitions",
    "BenchmarkConfig.path_repetitions",
]


class TestCountCheck:
    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
    @pytest.mark.parametrize("value", [2.5, True, "3"], ids=repr)
    def test_non_integer_rejected(self, count_calls, entry, value):
        name, _, call = count_calls[entry]
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            call(value)

    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
    def test_below_least_rejected(self, count_calls, entry):
        name, least, call = count_calls[entry]
        shape = "nonnegative" if least == 0 else f"at least {least}"
        with pytest.raises(ValueError, match=f"^{name} must be {shape}, got {least - 1}$"):
            call(least - 1)

    def test_region_past_the_last_rejected(self, fixture_graph):
        partition = rr.grid_partition(fixture_graph, 3)
        n = partition.region_count
        with pytest.raises(ValueError, match=f"^region {n} exceeds the last region id {n - 1}$"):
            rr.compute_arc_potentials(fixture_graph, partition, n, 4)

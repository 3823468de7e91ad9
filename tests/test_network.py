"""Graph model, file ingestion/validation, and grid partitioning."""

import hashlib
import json
import pickle

import numpy as np
import pytest

import reliroute as rr
from reliroute.errors import GraphValidationError

from conftest import FIXTURE_PATH, edge_by_label

#: SHA-256 of the 32x32 acceptance grid's edge masses (see ``_mass_digest``).
ACCEPTANCE_MASS_SHA256 = "f8acb69ddcda6081b51aace57eefe727bb2b50a8b0454ac36f9b72deec5e45c3"

GRIDS = {
    "acceptance-32": lambda: rr.synthesize_distributions(rr.grid_topology(32), seed=20250808),
    "12-dt0.5": lambda: rr.synthesize_distributions(rr.grid_topology(12, dt=0.5), seed=20250808),
    "16-seed7": lambda: rr.synthesize_distributions(rr.grid_topology(16), seed=7),
}


@pytest.fixture(scope="module")
def grids():
    return {name: build() for name, build in GRIDS.items()}


def _mass_digest(graph):
    # Each edge in index order: its stored length, then its masses, little-endian.
    sha = hashlib.sha256()
    for d in graph.edge_dists:
        sha.update(np.int64(len(d.mass)).astype("<i8").tobytes())
        sha.update(np.asarray(d.mass, dtype="<f8").tobytes())
    return sha.hexdigest()


def _assert_same_pmfs(a, b):
    assert a.num_edges == b.num_edges
    for x, y in zip(a.edge_dists, b.edge_dists):
        assert x.mass.tobytes() == y.mass.tobytes()
        assert x.truncated_tail == y.truncated_tail


def _pairs_form(doc):
    """The same document with every dense literal rewritten as ``pmf`` pairs."""
    edges = []
    for e in doc["edges"]:
        first, mass = e["dist"]["first_bin"], e["dist"]["mass"]
        edges.append(dict(e, dist={"pmf": [[first + j, p] for j, p in enumerate(mass) if p]}))
    return dict(doc, edges=edges)


def _two_node_doc(literal):
    return {
        "dt": 1.0,
        "nodes": [{"id": "a", "x": 0, "y": 0}, {"id": "b", "x": 1, "y": 0}],
        "edges": [
            {"from": "a", "to": "b", "dist": {"first_bin": 1, "mass": [1.0]}},
            {"id": "bad", "from": "a", "to": "b", "dist": literal},
        ],
    }


class TestLoadGraph:
    def test_fixture_shape(self, fixture_graph):
        g = fixture_graph
        assert g.num_nodes == 3
        assert g.num_edges == 4
        assert g.node_ids == ("v1", "v2", "v3")
        assert [g.edge_label(e) for e in range(4)] == ["e1", "e2", "e3", "e4"]

    def test_fixture_adjacency_consistency(self, fixture_graph):
        g = fixture_graph
        for i in range(g.num_nodes):
            for e in g.out_edges[i]:
                assert g.edge_tails[e] == i
        assert sum(len(g.out_edges[i]) for i in range(g.num_nodes)) == g.num_edges

    def test_parallel_edges_are_distinct(self, fixture_graph):
        g = fixture_graph
        parallel = g.find_edges("v1", "v2")
        assert len(parallel) == 3
        assert len({g.edge_label(e) for e in parallel}) == 3

    def test_empty_node_list_rejected(self):
        with pytest.raises(GraphValidationError, match="no nodes"):
            rr.load_graph({"dt": 1.0, "nodes": [], "edges": []})
        with pytest.raises(GraphValidationError, match="no nodes"):
            rr.load_graph({"dt": 1.0, "nodes": None, "edges": []})

    def test_malformed_node_named_by_position(self):
        nodes = [{"id": "a", "x": 0, "y": 0}, {"id": "b", "x": 1}]
        with pytest.raises(GraphValidationError, match="node #1: 'y'"):
            rr.load_graph({"dt": 1.0, "nodes": nodes, "edges": []})
        with pytest.raises(GraphValidationError, match="node #1: 'y'"):
            rr.StochasticGraph(1.0, nodes, [])

    def test_mass_at_bin_zero_rejected(self):
        doc = {
            "dt": 1.0,
            "nodes": [{"id": "a", "x": 0, "y": 0}, {"id": "b", "x": 1, "y": 0}],
            "edges": [{"from": "a", "to": "b", "dist": {"pmf": [[0, 0.5], [1, 0.5]]}}],
        }
        with pytest.raises(GraphValidationError, match="minimum travel time"):
            rr.load_graph(doc)

    def test_validation_names_offending_edge(self):
        doc = {
            "dt": 1.0,
            "nodes": [{"id": "a", "x": 0, "y": 0}, {"id": "b", "x": 1, "y": 0}],
            "edges": [
                {"from": "a", "to": "b", "dist": {"pmf": [[1, 1.0]]}},
                {"id": "bad", "from": "a", "to": "b", "dist": {"pmf": [[0, 1.0]]}},
            ],
        }
        with pytest.raises(GraphValidationError, match="bad"):
            rr.load_graph(doc)

    def test_distribution_dt_must_match(self):
        doc = {
            "dt": 1.0,
            "nodes": [{"id": "a", "x": 0, "y": 0}, {"id": "b", "x": 1, "y": 0}],
            "edges": [{"from": "a", "to": "b", "dist": {"dt": 2.0, "pmf": [[1, 1.0]]}}],
        }
        with pytest.raises(GraphValidationError, match="time step"):
            rr.load_graph(doc)

    def test_unknown_endpoint_rejected(self):
        doc = {
            "dt": 1.0,
            "nodes": [{"id": "a", "x": 0, "y": 0}],
            "edges": [{"from": "a", "to": "zz", "dist": {"pmf": [[1, 1.0]]}}],
        }
        with pytest.raises(GraphValidationError, match="endpoint"):
            rr.load_graph(doc)

    def test_duplicate_node_ids_rejected(self):
        doc = {"dt": 1.0, "nodes": [{"id": "a", "x": 0, "y": 0}] * 2, "edges": []}
        with pytest.raises(GraphValidationError, match="duplicate"):
            rr.load_graph(doc)

    def test_parse_error(self, tmp_path):
        target = tmp_path / "g.json"
        target.write_text("{not json")
        with pytest.raises(GraphValidationError, match="JSON"):
            rr.load_graph(target)

    def test_str_and_path_sources_load_alike(self, fixture_graph, tmp_path):
        target = tmp_path / "d{x}" / "g.json"
        target.parent.mkdir()
        rr.save_graph(fixture_graph, target)
        from_str = rr.load_graph(str(target))
        from_path = rr.load_graph(target)
        assert from_str.node_ids == from_path.node_ids == fixture_graph.node_ids
        for a, b in zip(from_str.edge_dists, from_path.edge_dists):
            assert np.array_equal(a.mass, b.mass)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("edges", None, "'edges' field must be a list, not NoneType"),
            ("nodes", 5, "'nodes' field must be a list, not int"),
            ("dt", None, "'dt' field is not a number"),
            ("dt", "x", "'dt' field is not a number"),
        ],
    )
    def test_malformed_top_level_field_named(self, field, value, message):
        doc = {"dt": 1.0, "nodes": [{"id": "a", "x": 0, "y": 0}], "edges": []}
        doc[field] = value
        with pytest.raises(GraphValidationError, match=message):
            rr.load_graph(doc)

    @pytest.mark.parametrize(
        "literal",
        [{"pmf": [[1, float("nan")], [2, 1.0]]}, {"first_bin": 1, "mass": [float("nan"), 1.0]}],
        ids=["pairs", "dense"],
    )
    def test_non_finite_probability_names_edge(self, literal):
        with pytest.raises(GraphValidationError, match="edge 'bad': probability mass must be finite"):
            rr.load_graph(_two_node_doc(literal))

    @pytest.mark.parametrize(
        "literal, message",
        [
            ({"first_bin": -1, "mass": [1.0]}, "'first_bin' must be a nonnegative integer, got -1"),
            ({"first_bin": 1.5, "mass": [1.0]}, "'first_bin' must be a nonnegative integer, got 1.5"),
            ({"first_bin": True, "mass": [1.0]}, "'first_bin' must be a nonnegative integer, got True"),
            ({"mass": [1.0]}, "'first_bin' must be a nonnegative integer, got None"),
            ({"first_bin": 1, "mass": "x"}, "'mass' must be a nonempty list of probabilities, got 'x'"),
            ({"first_bin": 1, "mass": {}}, "'mass' must be a nonempty list of probabilities, got {}"),
            ({"first_bin": 1, "mass": []}, r"'mass' must be a nonempty list of probabilities, got \[\]"),
            ({"first_bin": 1, "mass": [1.5, -0.5]}, "negative probability"),
            ({"first_bin": 1, "mass": [1.0], "pmf": [[1, 1.0]]}, "histogram literal requires either a 'mass' list or a 'pmf' list"),
        ],
        ids=["negative-first-bin", "fractional-first-bin", "boolean-first-bin", "missing-first-bin",
             "string-mass", "object-mass", "empty-mass", "negative-entry", "both-forms"],
    )
    def test_malformed_dense_literal_names_edge(self, literal, message):
        with pytest.raises(GraphValidationError, match=f"edge 'bad': {message}"):
            rr.load_graph(_two_node_doc(literal))

    def test_unknown_node_lookup(self, fixture_graph):
        with pytest.raises(ValueError, match="unknown node"):
            fixture_graph.node_index("v9")

class TestSaveRoundTrip:
    def test_pmf_values_round_trip_bit_identically(self, fixture_graph, tmp_path):
        target = tmp_path / "graph.json"
        rr.save_graph(fixture_graph, target)
        again = rr.load_graph(target)
        assert again.node_ids == fixture_graph.node_ids
        assert again.num_edges == fixture_graph.num_edges
        for a, b in zip(again.edge_dists, fixture_graph.edge_dists):
            assert np.array_equal(a.mass, b.mass)

    def test_round_trip_preserves_labels_and_coords(self, fixture_graph):
        doc = rr.save_graph(fixture_graph)
        again = rr.load_graph(doc)
        assert [again.edge_label(e) for e in range(4)] == ["e1", "e2", "e3", "e4"]
        assert np.array_equal(again.coords, fixture_graph.coords)

    def test_synthetic_graph_round_trip(self):
        g = rr.synthesize_distributions(rr.grid_topology(3), seed=4)
        again = rr.load_graph(rr.save_graph(g))
        for a, b in zip(again.edge_dists, g.edge_dists):
            assert np.array_equal(a.mass, b.mass)

    def test_truncated_edge_round_trips(self, tmp_path):
        cut = rr.DiscreteDistribution([0.0, 0.5, 0.3], truncated_tail=0.2)
        g = rr.StochasticGraph(1.0, [("a", 0, 0), ("b", 1, 0)], [("a", "b", cut)])
        target = tmp_path / "cut.json"
        assert rr.save_graph(g, target)["edges"][0]["dist"]["truncated_tail"] == 0.2
        _assert_same_pmfs(rr.load_graph(target), g)

    def test_graph_pickles(self):
        # Graphs can be shared with other processes: distributions pickle by
        # value and come back immutable.
        cut = rr.DiscreteDistribution([0.0, 0.5, 0.3], truncated_tail=0.2)
        g = rr.StochasticGraph(1.0, [("a", 0, 0), ("b", 1, 0)], [("a", "b", cut, "ab")])
        again = pickle.loads(pickle.dumps(g))
        assert again.node_ids == g.node_ids and again.edge_label(0) == "ab"
        _assert_same_pmfs(again, g)
        with pytest.raises(ValueError):
            again.edge_dists[0].mass[1] = 0.9

    def test_acceptance_grid_masses_pinned(self, grids):
        assert _mass_digest(grids["acceptance-32"]) == ACCEPTANCE_MASS_SHA256

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_grid_round_trips_through_file(self, grids, name, tmp_path):
        target = tmp_path / "graph.json"
        rr.save_graph(grids[name], target)
        again = rr.load_graph(target)
        assert again.dt == grids[name].dt
        _assert_same_pmfs(again, grids[name])

    def test_pairs_form_loads_like_dense_form(self, fixture_graph, grids):
        fixture_doc = json.loads(FIXTURE_PATH.read_text())
        assert all("pmf" in e["dist"] for e in fixture_doc["edges"])
        dense = rr.save_graph(fixture_graph)
        assert all("mass" in e["dist"] for e in dense["edges"])
        _assert_same_pmfs(rr.load_graph(dense), rr.load_graph(fixture_doc))

        grid = grids["12-dt0.5"]
        _assert_same_pmfs(rr.load_graph(_pairs_form(rr.save_graph(grid))), grid)

def test_edge_support_runs_cover_exactly_the_nonzero_bins(fixture_graph):
    rng = np.random.default_rng(11)
    edges = []
    for _ in range(60):
        mass = rng.random(int(rng.integers(2, 30)))
        if rng.random() < 0.5:
            mass *= rng.random(len(mass)) < 0.6  # gaps
        mass[0] = 0.0
        mass[-1] += 0.1
        edges.append((0, 1, rr.DiscreteDistribution(mass / mass.sum())))
    g = rr.StochasticGraph(1.0, [(0, 0.0, 0.0), (1, 1.0, 0.0)], edges)
    # The fixture's e3 has mass at bins 1 and 4 only.
    for graph in (g, fixture_graph):
        support = graph.edge_support
        assert support.dtype == np.int32
        for e, dist in enumerate(graph.edge_dists):
            covered = set()
            for first, last in support[e]:
                covered |= set(range(first, last + 1))
            assert covered == set(np.flatnonzero(dist.mass))
            assert support[e, 0, 0] == dist.min_bin
            assert support[e, :, 1].max() + 1 == dist.support_end
    assert fixture_graph.edge_support[edge_by_label(fixture_graph, "e3")].tolist() == [[1, 1], [4, 4]]


class TestGridPartition:
    def test_single_region(self, fixture_graph):
        part = rr.grid_partition(fixture_graph, 1)
        assert part.region_count == 1
        assert np.all(part.assignment == 0)

    def test_unit_square_corners(self):
        g = rr.StochasticGraph(
            1.0,
            [("a", 0.0, 0.0), ("b", 1.0, 0.0), ("c", 0.0, 1.0), ("d", 1.0, 1.0)],
            [("a", "b", rr.DiscreteDistribution.from_pairs([[1, 1.0]]))],
        )
        part = rr.grid_partition(g, 2)
        assert part.region_count == 4
        assert all(len(r) == 1 for r in part.regions)

    def test_total_and_compact_on_random_graph(self):
        rng = np.random.default_rng(12)
        nodes = [(i, float(x), float(y)) for i, (x, y) in enumerate(rng.random((100, 2)))]
        dist = rr.DiscreteDistribution.from_pairs([[1, 1.0]])
        g = rr.StochasticGraph(1.0, nodes, [(0, 1, dist)])
        part = rr.grid_partition(g, 4)
        assert len(part.assignment) == 100
        assert set(part.assignment) == set(range(part.region_count))
        again = rr.grid_partition(g, 4)
        assert np.array_equal(part.assignment, again.assignment)

    def test_degenerate_geometry(self):
        nodes = [(i, 0.0, float(i)) for i in range(5)]
        dist = rr.DiscreteDistribution.from_pairs([[1, 1.0]])
        g = rr.StochasticGraph(1.0, nodes, [(0, 1, dist)])
        part = rr.grid_partition(g, 3)
        assert len(part.assignment) == 5
        assert part.region_count <= 3

    def test_k_validation(self, fixture_graph):
        with pytest.raises(ValueError):
            rr.grid_partition(fixture_graph, 0)

"""Graph model, file ingestion/validation, and grid partitioning."""

import base64
import hashlib
import json
import re

import numpy as np
import pytest

import reliroute as rr
from reliroute.errors import GraphValidationError

from conftest import COPIERS, FIXTURE_PATH, dense_list_form, edge_by_label, literal_mass

#: SHA-256 of the 32x32 acceptance grid's edge masses (see ``_mass_digest``).
ACCEPTANCE_MASS_SHA256 = "f8acb69ddcda6081b51aace57eefe727bb2b50a8b0454ac36f9b72deec5e45c3"

#: Graph digests from before the graphs kept their masses in one store; the
#: store hashes the same bytes, so it must give the same digests.
PINNED_DIGESTS = {
    "acceptance-32": "bf99ab94c6653f90a57f4c35de20abcae9ce40bf344f2b96c86d22ee5225d8fb",
    "12-dt0.5": "03ff5f1c38920ab578f443c7b7e5be4f417f06853bb841432e4c707c9310abab",
    "appendix-a": "fffdc4abcb43f758fe72b19d4307744825b19ea97ab8724c9186bf665180bb2b",
}

#: SHA-256 of ``json.dumps(save_graph(...))`` of the 6x6 grid of seed 7, from the same time.
SAVED_GRID6_SHA256 = "a2f063323cea49451bb09c6709361f5fdaf99588492b15ba53a5536a9ac974ab"

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


#: Start of the error for a histogram literal with no masses key or several.
ONE_HISTOGRAM_KEY = "histogram literal needs exactly one of 'mass_f64', 'mass', 'pmf'"


def _f64(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _pairs_form(doc):
    """The same document with every dense literal rewritten as ``pmf`` pairs."""
    edges = []
    for e in doc["edges"]:
        first, mass = e["dist"]["first_bin"], literal_mass(e["dist"])
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

    def test_mixed_node_ids_numbered_in_one_order(self):
        # Numbers, then strings, then every other id by its repr; a boolean
        # sorts with the others, not with the numbers it equals.
        doc = json.loads('{"dt": 1, "nodes": [{"id": true, "x": 0, "y": 0}, {"id": null, "x": 1, "y": 0},'
                         ' {"id": "a", "x": 2, "y": 0}, {"id": 2, "x": 3, "y": 0}], "edges": []}')
        assert rr.load_graph(doc).node_ids == (2, "a", None, True)
        assert rr.load_graph(dict(doc, nodes=doc["nodes"][:3])).node_ids == ("a", None, True)

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
        # Python counts True as equal to 1; the refusal names the later id and both positions.
        doc = json.loads('{"dt": 1, "nodes": [{"id": 1, "x": 0, "y": 0}, {"id": "b", "x": 0, "y": 0},'
                         ' {"id": true, "x": 1, "y": 0}], "edges": []}')
        with pytest.raises(GraphValidationError, match="^node #2: node id True duplicates the id of node #0$"):
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
            ("dt", 0, "time step must be positive, got 0.0"),
            ("dt", float("nan"), "time step must be positive, got nan"),
            ("dt", float("inf"), "time step must be finite, got inf"),
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
            ({"first_bin": -1, "mass": [1.0]}, "'first_bin' must be nonnegative, got -1"),
            ({"first_bin": 1.5, "mass": [1.0]}, "'first_bin' must be an integer, got 1.5"),
            ({"first_bin": True, "mass": [1.0]}, "'first_bin' must be an integer, got True"),
            ({"mass": [1.0]}, "'first_bin' must be an integer, got None"),
            ({"first_bin": 1, "mass": "x"}, "'mass' must be a nonempty list of probabilities, got 'x'"),
            ({"first_bin": 1, "mass": {}}, "'mass' must be a nonempty list of probabilities, got {}"),
            ({"first_bin": 1, "mass": []}, r"'mass' must be a nonempty list of probabilities, got \[\]"),
            ({"first_bin": 1, "mass": [1.5, -0.5]}, "negative probability"),
            ({"first_bin": 1, "mass": [1.0], "pmf": [[1, 1.0]]}, f"{ONE_HISTOGRAM_KEY}; found 'mass' and 'pmf'"),
            ({"first_bin": 1, "mass_f64": "AAAA*AAAAPA/"}, "'mass_f64' is not valid base64"),
            ({"first_bin": 1, "mass_f64": "AAAAAAAA8D+é"}, "'mass_f64' is not valid base64"),
            ({"first_bin": 1, "mass_f64": _f64([1.0])[:8]}, "'mass_f64' must be base64 of one or more float64 values"),
            ({"first_bin": 1, "mass_f64": ""}, "'mass_f64' must be base64 of one or more float64 values, got ''"),
            ({"first_bin": 1, "mass_f64": 1.0}, "'mass_f64' must be base64 of one or more float64 values, got 1.0"),
            ({"first_bin": 1, "mass_f64": _f64([float("nan"), 1.0])}, "probability mass must be finite"),
            ({"first_bin": 1, "mass_f64": _f64([1.5, -0.5])}, "negative probability"),
            ({"first_bin": 1, "mass_f64": _f64([1.0]), "mass": [1.0]}, f"{ONE_HISTOGRAM_KEY}; found 'mass_f64' and 'mass'"),
            ({"first_bin": 1, "mass_f64": _f64([1.0]), "pmf": [[1, 1.0]]}, f"{ONE_HISTOGRAM_KEY}; found 'mass_f64' and 'pmf'"),
            ({"model": "histogram", "first_bin": 1}, f"{ONE_HISTOGRAM_KEY}; found none"),
            ([[1, 1.0]], "distribution literal must be an object, got list"),
        ],
        ids=["negative-first-bin", "fractional-first-bin", "boolean-first-bin", "missing-first-bin",
             "string-mass", "object-mass", "empty-mass", "negative-entry", "both-forms",
             "f64-bad-base64", "f64-non-ascii", "f64-ragged-bytes", "f64-empty", "f64-not-a-string",
             "f64-nan", "f64-negative-entry", "mass-and-mass-f64", "mass-f64-and-pmf",
             "no-masses", "not-an-object"],
    )
    def test_malformed_dense_literal_names_edge(self, literal, message):
        with pytest.raises(GraphValidationError, match=f"edge 'bad': {message}"):
            rr.load_graph(_two_node_doc(literal))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "graph document must be a JSON object"),
            ('{"dt": 1, "nodes": []}', "graph document is missing the 'edges' field"),
            ('{"dt": 1, "nodes": [{"id": "a", "x": NaN, "y": 0}], "edges": []}',
             "node coordinates must be finite numbers"),
        ],
        ids=["json-list", "no-edges", "nan-coordinate"],
    )
    def test_malformed_document_file_refused_by_name(self, tmp_path, text, message):
        target = tmp_path / "graph.json"
        target.write_text(text)
        with pytest.raises(GraphValidationError, match=f"^{re.escape(message)}$"):
            rr.load_graph(target)

    @pytest.mark.parametrize(
        "dt, x, dist, message",
        [
            (0, 0.0, None, "time step must be positive, got 0"),
            (float("nan"), 0.0, None, "time step must be positive, got nan"),
            (float("inf"), 0.0, None, "time step must be finite, got inf"),
            (1.0, float("nan"), None, "node coordinates must be finite numbers"),
            (1.0, 0.0, "pmf", "edge #0 ('a'->'b'): distribution missing or of wrong type"),
            (1.0, 0.0, rr.DiscreteDistribution([0.0, 1.0], dt=2.0),
             "edge #0 ('a'->'b'): distribution dt 2.0 differs from graph dt 1.0"),
        ],
        ids=["zero-dt", "nan-dt", "infinite-dt", "nan-coordinate", "not-a-distribution", "another-dt"],
    )
    def test_constructor_refusals_named(self, dt, x, dist, message):
        edges = [] if dist is None else [("a", "b", dist)]
        with pytest.raises(GraphValidationError, match=f"^{re.escape(message)}$"):
            rr.StochasticGraph(dt, [("a", x, 0.0), ("b", 1.0, 0.0)], edges)

    def test_unknown_node_lookup(self, fixture_graph):
        with pytest.raises(ValueError, match="unknown node"):
            fixture_graph.node_index("v9")

    @pytest.mark.parametrize("node_id", [[1], {}, {"a": 1}], ids=["list", "empty-object", "object"])
    def test_unhashable_node_id_named_by_position(self, node_id):
        nodes = [{"id": "a", "x": 0, "y": 0}, {"id": node_id, "x": 1, "y": 0}]
        kind = type(node_id).__name__
        with pytest.raises(GraphValidationError, match=f"^node #1: unhashable type: '{kind}'$"):
            rr.load_graph({"dt": 1.0, "nodes": nodes, "edges": []})
        with pytest.raises(GraphValidationError, match=f"^node #1: unhashable type: '{kind}'$"):
            rr.StochasticGraph(1.0, nodes, [])

    @pytest.mark.parametrize("end", ["from", "to"])
    def test_unhashable_endpoint_named_by_edge(self, end):
        edge = {"id": "bad", "from": "a", "to": "b", "dist": {"pmf": [[1, 1.0]]}}
        edge[end] = [edge[end]]
        doc = {"dt": 1.0, "nodes": [{"id": "a", "x": 0, "y": 0}, {"id": "b", "x": 1, "y": 0}], "edges": [edge]}
        with pytest.raises(GraphValidationError, match=r"^edge 'bad' \(.*\): endpoint is not a declared node$"):
            rr.load_graph(doc)

    @pytest.mark.parametrize("node_id", [[1], {}, ["v1"]])
    def test_unhashable_lookup_is_an_unknown_node(self, fixture_graph, node_id):
        assert not fixture_graph.has_node(node_id)
        with pytest.raises(ValueError, match="^unknown node id "):
            fixture_graph.node_index(node_id)

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

    def test_graph_pickles(self, fixture_graph):
        # Graphs can be shared with other processes: pickles and copies go
        # through the constructor, so they come back checked and immutable,
        # with a digest computed from their own edges.
        cut = rr.DiscreteDistribution([0.0, 0.5, 0.3], truncated_tail=0.2)
        whole = rr.DiscreteDistribution.point_mass(2)
        small = rr.StochasticGraph(
            1.0, [("b", 1, 0), ("a", 0, 0), (3, 2, 1)], [("b", "a", whole), ("a", "b", cut, "ab"), ("a", "b", whole)]
        )
        for g in (small, fixture_graph):
            # The cached properties are computed before copying.  A truncated edge has no mean.
            cached = ["digest", "edge_support"] + (["edge_means"] if g is fixture_graph else [])
            for prop in cached:
                getattr(g, prop)
            labels = [g.edge_label(e) for e in range(g.num_edges)]
            for name, copier in COPIERS.items():
                again = copier(g)
                assert "digest" not in vars(again), name
                assert again.node_ids == g.node_ids
                assert [again.edge_label(e) for e in range(g.num_edges)] == labels
                _assert_same_pmfs(again, g)
                assert again.digest == g.digest
                assert np.array_equal(again.coords, g.coords) and np.array_equal(again.edge_tails, g.edge_tails)
                arrays = [again.coords, again.edge_tails, again.edge_heads, again.edge_dists[0].mass]
                arrays += [getattr(again, prop) for prop in cached[1:]]
                assert not any(array.flags.writeable for array in arrays), name

    def test_acceptance_grid_masses_pinned(self, grids, tmp_path):
        grid = grids["acceptance-32"]
        assert _mass_digest(grid) == ACCEPTANCE_MASS_SHA256
        rr.save_graph(grid, tmp_path / "graph.json")
        assert _mass_digest(rr.load_graph(tmp_path / "graph.json")) == ACCEPTANCE_MASS_SHA256

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_grid_round_trips_through_file(self, grids, name, tmp_path):
        target = tmp_path / "graph.json"
        rr.save_graph(grids[name], target)
        again = rr.load_graph(target)
        assert again.dt == grids[name].dt
        _assert_same_pmfs(again, grids[name])

    def test_pairs_form_loads_like_dense_form(self, fixture_graph):
        fixture_doc = json.loads(FIXTURE_PATH.read_text())
        assert all("pmf" in e["dist"] for e in fixture_doc["edges"])
        saved = rr.save_graph(fixture_graph)
        for dense in (saved, dense_list_form(saved)):
            _assert_same_pmfs(rr.load_graph(dense), rr.load_graph(fixture_doc))

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_every_literal_form_loads_alike(self, grids, name):
        # save_graph writes mass_f64 only; documents in the older dense-list
        # and pairs forms, read back from JSON text, load to the same bytes.
        doc = rr.save_graph(grids[name])
        assert all("mass_f64" in e["dist"] and "mass" not in e["dist"] for e in doc["edges"])
        for form in (doc, dense_list_form(doc), _pairs_form(doc)):
            again = rr.load_graph(json.loads(json.dumps(form)))
            _assert_same_pmfs(again, grids[name])
            assert again.digest == grids[name].digest

def _dist_bytes(graph):
    return [(d.mass.tobytes(), d.min_bin, d.truncated_tail, d.total_mass) for d in graph.edge_dists]


class TestMassStore:
    def test_digests_pinned(self, grids, fixture_graph):
        assert grids["acceptance-32"].digest == PINNED_DIGESTS["acceptance-32"]
        assert grids["12-dt0.5"].digest == PINNED_DIGESTS["12-dt0.5"]
        assert fixture_graph.digest == PINNED_DIGESTS["appendix-a"]

    def test_saved_document_pinned(self):
        g = rr.synthesize_distributions(rr.grid_topology(6), seed=7)
        assert hashlib.sha256(json.dumps(rr.save_graph(g)).encode()).hexdigest() == SAVED_GRID6_SHA256

    @pytest.mark.parametrize("name", sorted(GRIDS) + ["appendix-a", "truncated"])
    def test_reload_gives_equal_distributions(self, grids, fixture_graph, name):
        cut = rr.DiscreteDistribution([0.0, 0.5, 0.0, 0.3], truncated_tail=0.2)
        g = {"appendix-a": fixture_graph,
             "truncated": rr.StochasticGraph(1.0, [("a", 0, 0), ("b", 1, 0)], [("a", "b", cut)])}.get(name)
        g = grids[name] if g is None else g
        again = rr.load_graph(rr.save_graph(g))
        assert _dist_bytes(again) == _dist_bytes(g)
        assert again.digest == g.digest

    def test_distributions_are_built_on_first_use_only(self, grids):
        # Loading, hashing, solving, searching and saving read the store, and
        # never build edge_dists.
        g = rr.load_graph(rr.save_graph(grids["16-seed7"]))
        dest = g.node_ids[-1]
        pol = rr.compute_policy(g, dest, 300)
        rr.sota_path(g, pol, g.node_ids[0], 300)
        rr.path_reliability(g, rr.let_path(g, g.node_ids[0], dest).nodes, 300)
        rr.save_graph(g)
        assert g.digest == grids["16-seed7"].digest
        assert "edge_dists" not in vars(g)
        assert len(g.edge_dists) == g.num_edges and "edge_dists" in vars(g)

    def test_masses_are_refused_before_endpoints(self):
        # Literals are checked before the graph: the sum at edge 5 is reported,
        # not the undeclared endpoint at edge 0, with the constructor's repr of the sum.
        whole = {"first_bin": 1, "mass": [1.0]}
        edges = [{"from": "a", "to": "zz", "dist": {"pmf": [[1, 1.0]]}}] + [{"from": "a", "to": "b", "dist": whole}] * 4
        edges.append({"from": "a", "to": "b", "dist": {"first_bin": 2, "mass_f64": _f64([0.3, 0.3, 0.3])}})
        doc = {"dt": 1.0, "nodes": [{"id": "a", "x": 0, "y": 0}, {"id": "b", "x": 1, "y": 0}], "edges": edges}
        message = "edge #5: probability mass sums to 0.8999999999999999; expected 1 within 1e-09 (including any truncated tail)"
        with pytest.raises(GraphValidationError, match=f"^{re.escape(message)}$"):
            rr.load_graph(doc)
        with pytest.raises(GraphValidationError, match="^edge #0 .*: endpoint is not a declared node$"):
            rr.load_graph(dict(doc, edges=edges[:5]))

    def test_first_bad_edge_is_reported_whatever_its_fault(self):
        # Bad masses are found in a batch after every literal parses, yet an
        # earlier edge's bad masses still come before a later literal that does
        # not parse, and an earlier literal that does not parse before later bad masses.
        nodes = [{"id": "a", "x": 0, "y": 0}, {"id": "b", "x": 1, "y": 0}]
        good = {"from": "a", "to": "b", "dist": {"first_bin": 1, "mass": [1.0]}}
        short = {"from": "a", "to": "b", "dist": {"first_bin": 1, "mass": [0.5]}}
        broken = {"from": "a", "to": "b", "dist": {"first_bin": 1, "mass_f64": "AA*A"}}
        for edges, message in [
            ([good, short, good, broken], "^edge #1: probability mass sums to 0.5;"),
            ([good, broken, good, short], "^edge #1: 'mass_f64' is not valid base64"),
            ([good, dict(short, dist={"pmf": [[1, 0.5]]}), broken], "^edge #1: probability mass sums to 0.5;"),
            ([good, dict(good, dist={"first_bin": 1, "mass": [1.0], "truncated_tail": -0.5}), short],
             "^edge #1: truncated_tail must be finite and nonnegative, got -0.5$"),
            ([short, dict(good, dist={"first_bin": 1, "mass": [float("nan"), 1.0]})], "^edge #0: probability mass sums to 0.5;"),
        ]:
            with pytest.raises(GraphValidationError, match=message):
                rr.load_graph({"dt": 1.0, "nodes": nodes, "edges": edges})

    @pytest.mark.parametrize("bins", [3, 1000])
    def test_sums_near_the_tolerance_are_decided_per_edge(self, bins):
        # Masses that sum to within a few ulps of 1 +- NORMALIZATION_TOL: the
        # graph keeps exactly the edges the constructor keeps, and refuses the
        # first of the others with the constructor's message.
        rng = np.random.default_rng(bins)
        nodes = [{"id": "a", "x": 0, "y": 0}, {"id": "b", "x": 1, "y": 0}]
        for side in (1.0, -1.0):
            for step in range(-6, 7):
                mass = rng.random(bins)
                mass *= (1.0 + side * (rr.NORMALIZATION_TOL + step * 2.0 ** -52)) / mass.sum()
                row = np.concatenate([[0.0], mass])
                doc = {"dt": 1.0, "nodes": nodes, "edges": [{"from": "a", "to": "b", "dist": {"first_bin": 1, "mass_f64": _f64(mass)}}]}
                try:
                    want = rr.DiscreteDistribution(row).mass.tobytes()
                except ValueError as exc:
                    with pytest.raises(GraphValidationError, match=f"^edge #0: {re.escape(str(exc))}$"):
                        rr.load_graph(doc)
                else:
                    assert rr.load_graph(doc).edge_dists[0].mass.tobytes() == want


class TestFrozen:
    def test_graph_refuses_assignment(self, fixture_graph):
        g = rr.load_graph(FIXTURE_PATH)
        for name, value in [("dt", 2.0), ("edge_tails", np.zeros(4, dtype=np.int64)), ("digest", "0" * 64), ("out_edges", ())]:
            with pytest.raises(AttributeError, match="^StochasticGraph is immutable$"):
                setattr(g, name, value)
        with pytest.raises(AttributeError, match="^StochasticGraph is immutable$"):
            del g.dt
        # The cached properties still compute, from the unchanged graph.
        assert g.dt == 1.0 and g.digest == fixture_graph.digest
        assert g.edge_support.tolist() == fixture_graph.edge_support.tolist()
        assert g.edge_means.tolist() == fixture_graph.edge_means.tolist()
        assert not any(a.flags.writeable for a in (g.edge_tails, g.edge_heads, g.coords, g._store))

    def test_partition_refuses_assignment(self, fixture_graph):
        part = rr.grid_partition(fixture_graph, 3)
        for name, value in [("assignment", np.zeros(3, dtype=np.int64)), ("region_count", 1), ("regions", ())]:
            with pytest.raises(AttributeError, match="^RegionPartition is immutable$"):
                setattr(part, name, value)
        assert part.region_count == 3 and part.assignment.tolist() == [0, 1, 2]
        assert not any(members.flags.writeable for members in part.regions)
        # The partition copies the assignment, so the caller's array, or a
        # view's base, cannot change it.
        given = np.array([0, 1, 1])
        part = rr.RegionPartition(given[:])
        given[0] = 1
        assert part.assignment.tolist() == [0, 1, 1] and given.flags.writeable


class TestKernelSpectra:
    def test_each_partition_is_the_rfft_of_its_bins(self, grids):
        g = grids["12-dt0.5"]
        D = int(g.edge_support[:, 0, 0].min())
        spectra = g._kernel_spectra(D, 4)
        assert spectra.shape == (4, g.num_edges, D + 1) and not spectra.flags.writeable
        for e in range(0, g.num_edges, 7):
            mass = np.zeros(5 * D)
            head = g.edge_dists[e].mass[: 5 * D]
            mass[: len(head)] = head
            for i in range(4):
                want = np.fft.rfft(mass[(4 - i) * D : (5 - i) * D], 2 * D)
                assert spectra[i, e].tobytes() == want.tobytes(), (e, i)

    def test_kept_per_block_width_for_the_largest_horizon_asked(self):
        g = rr.synthesize_distributions(rr.grid_topology(4), seed=1)
        wide = g._kernel_spectra(3, 6)
        held = g._spectra[3]
        # Fewer partitions read the last rows and build nothing.
        assert g._kernel_spectra(3, 2).tobytes() == wide[4:].tobytes() and g._spectra[3] is held
        assert g._kernel_spectra(3, 0).shape == (0, g.num_edges, 4)
        # More partitions rebuild; a partition's transform does not change.
        wider = g._kernel_spectra(3, 9)
        assert g._spectra[3] is not held and wider[3:].tobytes() == wide.tobytes()
        g._kernel_spectra(5, 2)
        assert sorted(g._spectra) == [3, 5]

    def test_tables_alike_from_a_fresh_graph_and_a_cache_built_for_more(self):
        build = lambda: rr.synthesize_distributions(rr.grid_topology(8), seed=4)
        fresh, used = build(), build()
        rr.compute_policy(used, "n07_07", 400)
        rr.compute_policy(used, "n00_00", 400, edge_mask=np.arange(used.num_edges) % 5 > 0)
        for dest, T in [("n07_07", 60), ("n03_05", 200), ("n00_00", 400)]:
            a, b = rr.compute_policy(fresh, dest, T), rr.compute_policy(used, dest, T)
            assert a.u.tobytes() == b.u.tobytes() and a.w.tobytes() == b.w.tobytes()

    @pytest.mark.parametrize("copier", list(COPIERS.values()), ids=list(COPIERS))
    def test_spectra_are_not_pickled(self, fixture_graph, copier):
        g = rr.load_graph(FIXTURE_PATH)
        rr.compute_policy(g, "v3", 20)
        assert g._spectra
        assert copier(g)._spectra == {}


class TestDigest:
    def test_changes_with_seed_cov_and_dt(self):
        def grid6(seed=7, cov=1.0, dt=1.0):
            model = dict(rr.synth.DEFAULT_MODEL, cov=cov)
            return rr.synthesize_distributions(rr.grid_topology(6, dt=dt), model, seed=seed)

        digests = [g.digest for g in (grid6(), grid6(seed=8), grid6(cov=2.0), grid6(dt=0.5))]
        assert len(set(digests)) == 4
        assert grid6().digest == digests[0]

    def test_changes_with_the_order_of_parallel_edges(self):
        fast, slow = rr.DiscreteDistribution.point_mass(1), rr.DiscreteDistribution.point_mass(2)
        nodes = [("a", 0, 0), ("b", 1, 0)]
        one = rr.StochasticGraph(1.0, nodes, [("a", "b", fast), ("a", "b", slow)])
        other = rr.StochasticGraph(1.0, nodes, [("a", "b", slow), ("a", "b", fast)])
        assert one.digest != other.digest

    def test_ignores_coordinates_and_labels(self, fixture_graph):
        doc = rr.save_graph(fixture_graph)
        for node in doc["nodes"]:
            node["x"] += 5.0
        for edge in doc["edges"]:
            edge["id"] = "renamed-" + edge["id"]
        assert rr.load_graph(doc).digest == fixture_graph.digest


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

    @pytest.mark.parametrize(
        "assignment, kind",
        [([0.5, 1.7, 1.2], "float64"), ([True, False], "bool"), (np.array([0.0, 1.0]), "float64")],
        ids=["fractions", "booleans", "float-array"],
    )
    def test_assignment_must_hold_integers(self, assignment, kind):
        with pytest.raises(ValueError, match=f"^assignment must hold integer region ids, got {kind} values$"):
            rr.RegionPartition(assignment)

    @pytest.mark.parametrize(
        "assignment, message",
        [([[0]], "assignment must be a nonempty 1-D array"), ([], "assignment must be a nonempty 1-D array"),
         ([0, 2], "region ids must be exactly 0..r-1 with every id used")],
        ids=["two-dimensional", "empty", "unused-id"],
    )
    def test_assignment_shape_and_ids_checked(self, assignment, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            rr.RegionPartition(assignment)

    def test_integer_assignments_accepted(self):
        for assignment in ([1, 0, 1], np.array([1, 0, 1], dtype=np.int32), np.array([1, 0, 1], dtype=np.uint8)):
            part = rr.RegionPartition(assignment)
            assert part.assignment.dtype == np.int64 and part.assignment.tolist() == [1, 0, 1]

    def test_k_validation(self, fixture_graph):
        with pytest.raises(ValueError):
            rr.grid_partition(fixture_graph, 0)

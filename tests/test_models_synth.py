"""Parametric travel-time models and synthetic network generation."""

import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import reliroute as rr
from reliroute import synth
from reliroute.errors import GraphValidationError
from reliroute.models import (
    TAIL_EPS,
    free_flow_bins,
    gaussian_mixture_pmf,
    resolve_distribution_literal,
    shifted_gamma_masses,
    shifted_gamma_pmfs,
)

from conftest import shifted_gamma_oracle


#: Start of the error for a mixture component whose mean or std is not finite.
NON_FINITE_MIXTURE = "mixture component means and stds must be finite, got"


def simple_topology(length=100.0, speed=10.0, dt=1.0):
    return {
        "dt": dt,
        "nodes": [{"id": "a", "x": 0, "y": 0}, {"id": "b", "x": 1, "y": 0}],
        "edges": [{"from": "a", "to": "b", "length": length, "speed_limit": speed}],
    }


class TestModels:
    def test_free_flow_rounds_up(self):
        assert free_flow_bins(10.0, 1.0) == 10
        assert free_flow_bins(10.2, 1.0) == 11
        assert free_flow_bins(3.0, 1.5) == 2

    def test_free_flow_below_one_bin(self):
        with pytest.raises(ValueError, match="decrease dt"):
            free_flow_bins(0.4, 1.0)

    @pytest.mark.parametrize(
        "free_flow, dt, message",
        [
            (0, 1.0, "free-flow time must be positive, got 0"),
            (math.inf, 1.0, "free-flow time must be finite, got inf"),
            (math.nan, 1.0, "free-flow time must be positive, got nan"),
            (10.0, 0.0, "time step must be positive, got 0.0"),
            (10.0, math.inf, "time step must be finite, got inf"),
            (10.0, math.nan, "time step must be positive, got nan"),
        ],
    )
    def test_free_flow_refusals_named(self, free_flow, dt, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            free_flow_bins(free_flow, dt)

    @pytest.mark.parametrize(
        "mean_delay, cov, message, min_bin",
        [
            (math.inf, 1.0, "mean delay must be finite, got inf", 4),
            (math.nan, 1.0, "mean delay must be finite, got nan", 4),
            (1.0, math.inf, "coefficient of variation must be finite, got inf", 4),
            (1.0, math.nan, "coefficient of variation must be finite, got nan", 4),
            (2.0, 1.0, "minimum bin must be an integer, got 1.5", 1.5),
            (2.0, 1.0, "minimum bin must be an integer, got True", True),
            (2.0, 1.0, "minimum bin must be an integer, got '3'", "3"),
        ],
    )
    def test_gamma_refuses_non_finite_values(self, mean_delay, cov, message, min_bin):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            shifted_gamma_pmfs([min_bin], [mean_delay], cov)[0]

    def test_gamma_moment_check(self):
        # Analytic mean is free-flow (10 bins) + mean delay (5 s).
        for cov in (0.3, 1.0, 2.0):
            d = shifted_gamma_pmfs([10], [5.0], cov, dt=1.0)[0]
            assert d.min_bin == 10
            assert d.mean() == pytest.approx(15.0, abs=0.5)
            assert d.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_gamma_degenerate_is_point_mass(self):
        d = shifted_gamma_pmfs([7], [0.0], 1.0)[0]
        assert d.min_bin == 7 and d.mass[7:].tolist() == [1.0]
        d = shifted_gamma_pmfs([7], [3.0], 0.0)[0]
        assert d.min_bin == 10 and d.mass[10:].tolist() == [1.0]

    def test_gamma_cutoff_quantile_equals_scipy_stats(self, monkeypatch):
        # The support cutoff uses special.gammaincinv in place of
        # stats.gamma.ppf; both must give the same float, so the PMFs are
        # unchanged.  Check a seeded sample and every (shape, scale) pair the
        # 32x32 acceptance grid draws.
        stats = pytest.importorskip("scipy.stats")
        calls = []

        def recording(min_bins, mean_delays, cov, dt=1.0):
            calls.extend((mean_delay, cov) for mean_delay in mean_delays)
            return shifted_gamma_masses(min_bins, mean_delays, cov, dt=dt)

        monkeypatch.setattr(synth, "shifted_gamma_masses", recording)
        rr.synthesize_distributions(rr.grid_topology(32), seed=20250808)
        assert len(calls) == 3968
        mean_delay, cov = np.array(calls).T
        rng = np.random.default_rng(11)
        shape = np.concatenate([rng.uniform(0.05, 50.0, 20000), 1.0 / (cov * cov)])
        scale = np.concatenate([rng.uniform(0.01, 500.0, 20000), mean_delay * cov * cov])
        ours = special.gammaincinv(shape, 1.0 - TAIL_EPS) * scale
        assert np.array_equal(ours, stats.gamma.ppf(1.0 - TAIL_EPS, shape, scale=scale))

    @pytest.mark.parametrize("cov", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("dt", [1.0, 0.25, 0.3])
    def test_batch_gives_each_edge_its_own_pmf(self, cov, dt):
        # Point masses (zero delay, or cov 0) and gamma delays of several
        # lengths in one shuffled batch: each edge gets the PMF the per-edge
        # oracle and the one-edge call give it, bit for bit.
        rng = random.Random(5)
        pairs = [(rng.randint(1, 30), rng.choice([0.0, 0.0, rng.uniform(0.01, 60.0)])) for _ in range(60)]
        pairs += [(1, 1e-9), (3, 0.0), (2, 500.0)]
        rng.shuffle(pairs)
        min_bins, mean_delays = zip(*pairs)
        batch = shifted_gamma_pmfs(min_bins, mean_delays, cov, dt=dt)
        assert len(batch) == len(pairs)
        for (min_bin, mean_delay), got in zip(pairs, batch):
            assert_same_pmf(got, shifted_gamma_oracle(min_bin, mean_delay, cov, dt=dt))
            assert_same_pmf(got, shifted_gamma_pmfs([min_bin], [mean_delay], cov, dt=dt)[0])

    def test_batch_validates_in_order(self):
        assert shifted_gamma_pmfs([], [], 1.0) == []
        with pytest.raises(ValueError, match="mean delay must be nonnegative, got -1.0"):
            shifted_gamma_pmfs([4, 0, 4], [-1.0, 2.0, 1.0], 1.0)
        with pytest.raises(ValueError, match="at bin 1 or later"):
            shifted_gamma_pmfs([4, 0], [1.0, -2.0], 1.0)
        with pytest.raises(ValueError, match="coefficient of variation"):
            shifted_gamma_pmfs([4], [1.0], -0.5)
        with pytest.raises(ValueError, match="got 2 minimum bins but 1 mean delays"):
            shifted_gamma_pmfs([4, 5], [1.0], 1.0)

    def test_gaussian_mixture_respects_floor(self):
        d = gaussian_mixture_pmf(
            [{"weight": 0.5, "mean": 4.0, "std": 3.0}, {"weight": 0.5, "mean": 9.0, "std": 1.0}],
            dt=1.0,
            min_seconds=2.0,
        )
        assert d.min_bin >= 2
        assert d.total_mass == pytest.approx(1.0, abs=1e-12)
        assert d.mean() == pytest.approx(0.5 * 4.0 + 0.5 * 9.0, abs=1.5)

    def test_mixture_weight_validation(self):
        with pytest.raises(ValueError):
            gaussian_mixture_pmf([{"weight": 0.7, "mean": 5, "std": 1}])

    @pytest.mark.parametrize(
        "components, message",
        [([], "mixture must have at least one component"),
         ([{"weight": 1.0, "mean": 5.0, "std": 0.0}], "mixture component std must be positive"),
         ([{"weight": math.nan, "mean": 5.0, "std": 1.0}], "mixture weights must be nonnegative and sum to 1"),
         ([{"weight": 1.0, "mean": math.inf, "std": 1.0}], f"{NON_FINITE_MIXTURE} [inf] and [1.0]"),
         ([{"weight": 1.0, "mean": 5.0, "std": math.nan}], f"{NON_FINITE_MIXTURE} [5.0] and [nan]")],
        ids=["no-components", "zero-std", "nan-weight", "infinite-mean", "nan-std"],
    )
    def test_mixture_refusals_named(self, components, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gaussian_mixture_pmf(components)

    def test_literal_forms(self):
        pmf = resolve_distribution_literal({"pmf": [[2, 1.0]]}, 1.0)
        assert pmf.mass.tolist() == [0.0, 0.0, 1.0]
        dense = resolve_distribution_literal({"first_bin": 2, "mass": [0.5, 0.0, 0.5]}, 1.0)
        assert dense.mass.tolist() == [0.0, 0.0, 0.5, 0.0, 0.5] and dense.truncated_tail == 0.0
        packed = resolve_distribution_literal(
            {"first_bin": 2, "mass_f64": "AAAAAAAA4D8AAAAAAAAAAAAAAAAAAOA/"}, 1.0
        )
        assert packed.mass.tobytes() == dense.mass.tobytes() and packed.truncated_tail == 0.0
        cut = resolve_distribution_literal(
            {"model": "histogram", "first_bin": 1, "mass": [0.7], "truncated_tail": 0.3}, 1.0
        )
        assert cut.mass.tolist() == [0.0, 0.7] and cut.truncated_tail == 0.3
        gamma = resolve_distribution_literal(
            {"model": "shifted-gamma", "shift": 4.0, "mean_delay": 2.0, "cov": 0.8}, 1.0
        )
        assert gamma.min_bin == 4
        mix = resolve_distribution_literal(
            {"model": "discretized-gaussian-mixture",
             "components": [{"weight": 1.0, "mean": 6.0, "std": 1.0}]},
            1.0,
        )
        assert mix.min_bin >= 1

    def test_literal_dt_mismatch(self):
        with pytest.raises(ValueError, match="time step"):
            resolve_distribution_literal({"dt": 2.0, "pmf": [[1, 1.0]]}, 1.0)

    def test_unknown_literal(self):
        with pytest.raises(ValueError, match="unknown"):
            resolve_distribution_literal({"model": "weibull"}, 1.0)


def assert_same_pmf(got, want):
    # Bit for bit: equal floats are not enough where a sign of zero differs.
    assert got.dt == want.dt and got.min_bin == want.min_bin
    assert got.mass.tobytes() == want.mass.tobytes()
    assert got.truncated_tail == want.truncated_tail


def oracle_dists(topology, model, seed):
    """Each edge's PMF by the per-edge oracle, keyed by its end nodes, from
    the mean delays ``synthesize_distributions`` documents and its seeded
    draws in edge order."""
    rng = random.Random(seed)
    dt = float(topology.get("dt", 1.0))
    out = {}
    for e in topology["edges"]:
        free_flow = e["length"] / e["speed_limit"]
        min_bin = free_flow_bins(free_flow, dt)
        mean_delay = model.get("mean_delay")
        if mean_delay is None:
            mean_delay = model.get("delay_factor", 0.5) * free_flow
        if model.get("randomize", True):
            mean_delay *= rng.uniform(0.5, 1.5)
        out[e["from"], e["to"]] = shifted_gamma_oracle(min_bin, float(mean_delay), model.get("cov", 1.0), dt=dt)
    return out


class TestSynthesize:
    @pytest.mark.parametrize(
        "k, dt, model",
        [
            (32, 1.0, None),
            (12, 0.5, None),
            (16, 0.25, None),
            (8, 1.0, {"name": "shifted-gamma", "cov": 0.5}),
            (8, 0.5, {"name": "shifted-gamma", "cov": 2.0}),
            (8, 1.0, {"name": "shifted-gamma", "randomize": False}),
            (8, 1.0, {"name": "shifted-gamma", "mean_delay": 7.5, "cov": 0.8}),
            (8, 1.0, {"delay_factor": 0.0}),
        ],
        ids=["grid32", "grid12-dt0.5", "grid16-dt0.25", "cov0.5", "cov2", "fixed-factor",
             "fixed-mean-delay", "deterministic"],
    )
    def test_matches_per_edge_oracle(self, k, dt, model):
        topology = rr.grid_topology(k, dt=dt)
        g = rr.synthesize_distributions(topology, model, seed=20250808)
        want = oracle_dists(topology, dict(synth.DEFAULT_MODEL if model is None else model), 20250808)
        assert g.num_edges == len(want)
        for e, dist in enumerate(g.edge_dists):
            assert_same_pmf(dist, want[g.node_ids[g.edge_tails[e]], g.node_ids[g.edge_heads[e]]])

    def test_edges_are_checked_in_order(self):
        # A bad model value is reported before any edge, so before a bad
        # length further on; the edges are then checked in turn.
        topology = simple_topology()
        topology["edges"].append(dict(topology["edges"][0], length=-1.0))
        with pytest.raises(ValueError, match="mean delay must be nonnegative"):
            rr.synthesize_distributions(topology, {"name": "shifted-gamma", "delay_factor": -1.0}, seed=0)
        with pytest.raises(ValueError, match="coefficient of variation"):
            rr.synthesize_distributions(topology, {"name": "shifted-gamma", "cov": -1.0}, seed=0)
        with pytest.raises(ValueError, match="unknown generator 'weibull'"):
            rr.synthesize_distributions(topology, {"name": "weibull"}, seed=0)
        with pytest.raises(ValueError, match="unknown generator 'deterministic'"):
            rr.synthesize_distributions(topology, {"name": "deterministic"}, seed=0)
        with pytest.raises(GraphValidationError, match="length"):
            rr.synthesize_distributions(topology, {"delay_factor": 0.0}, seed=0)
        # Before a bad length on edge 0 too.
        with pytest.raises(ValueError, match=re.escape("mean delay must be nonnegative, got -1.0")):
            rr.synthesize_distributions(simple_topology(length=-1.0), {"delay_factor": -1.0}, seed=0)

    def test_zero_variance_point_mass(self):
        g = rr.synthesize_distributions(simple_topology(), {"delay_factor": 0.0}, seed=0)
        d = g.edge_dists[0]
        assert d.min_bin == 10 and d.mass[10:].tolist() == [1.0]

    def test_gamma_mean_matches_analytic(self):
        g = rr.synthesize_distributions(
            simple_topology(),
            {"name": "shifted-gamma", "mean_delay": 5.0, "cov": 1.0, "randomize": False},
            seed=0,
        )
        d = g.edge_dists[0]
        assert d.min_bin == 10
        assert d.mean() == pytest.approx(15.0, abs=0.5)

    def test_equal_seeds_identical_graphs(self):
        topo = rr.grid_topology(4)
        a = rr.synthesize_distributions(topo, seed=123)
        b = rr.synthesize_distributions(topo, seed=123)
        assert a.node_ids == b.node_ids
        for da, db in zip(a.edge_dists, b.edge_dists):
            assert np.array_equal(da.mass, db.mass)

    def test_different_seeds_differ(self):
        topo = rr.grid_topology(4)
        a = rr.synthesize_distributions(topo, seed=1)
        b = rr.synthesize_distributions(topo, seed=2)
        assert any(
            not np.array_equal(da.mass, db.mass)
            for da, db in zip(a.edge_dists, b.edge_dists)
        )

    def test_free_flow_below_bin_reports_dt_fix(self):
        with pytest.raises(GraphValidationError, match="decrease dt"):
            rr.synthesize_distributions(simple_topology(length=5.0, speed=10.0), seed=0)

    def test_nonpositive_attributes_rejected(self):
        with pytest.raises(GraphValidationError, match="length"):
            rr.synthesize_distributions(simple_topology(length=-1.0), seed=0)
        with pytest.raises(GraphValidationError, match="speed"):
            rr.synthesize_distributions(simple_topology(speed=0.0), seed=0)

    def test_grid_topology_shape(self):
        topo = rr.grid_topology(3)
        assert len(topo["nodes"]) == 9
        assert len(topo["edges"]) == 2 * (2 * 3 * 2)  # 12 undirected street segments
        g = rr.synthesize_distributions(topo, seed=0)
        assert g.num_nodes == 9 and g.num_edges == 24


def _assert_import_leaves_out(module):
    src = str(Path(rr.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import reliroute, sys; assert {module!r} not in sys.modules, '{module} was imported'"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_import_does_not_load_scipy_stats():
    # scipy.stats takes longer to import than the rest of the package.
    _assert_import_leaves_out("scipy.stats")


def test_import_does_not_load_scipy_special():
    # scipy.special is imported on the first synthesis, not with the package.
    _assert_import_leaves_out("scipy.special")

"""The streaming (``zdc``) policy backend vs. the direct backend and the oracle."""

import random

import numpy as np
import pytest

import reliroute as rr

from conftest import reference_policy


def single_edge_graph(dist):
    return rr.StochasticGraph(1.0, [("s", 0, 0), ("d", 1, 0)], [("s", "d", dist)])


def long_kernel(rng):
    """A kernel whose core (first to last bin with mass) spans 33-80 bins."""
    delta = rng.randint(1, 6)
    width = rng.randint(33, 80)
    mass = np.zeros(delta + width)
    mass[delta:] = [rng.random() + 0.01 for _ in range(width)]
    mass /= mass.sum()
    return rr.DiscreteDistribution(mass)


def test_shift_by_one_kernel():
    g = single_edge_graph(rr.DiscreteDistribution.point_mass(1))
    pol = rr.compute_policy(g, "d", 4)
    assert pol.u_of(g, "s").tolist() == [0.0, 1.0, 1.0, 1.0, 1.0]


def test_all_ones_input_yields_running_cdf():
    # The destination row is all ones, so the source row is the edge's CDF.
    e4 = rr.DiscreteDistribution.from_pairs([[2, 0.5], [3, 0.5]])
    g = single_edge_graph(e4)
    pol = rr.compute_policy(g, "d", 5)
    assert pol.u_of(g, "s").tolist() == pytest.approx([0.0, 0.0, 0.5, 1.0, 1.0, 1.0])


def test_matches_direct_convolution_on_random_pairs():
    # Cores longer than the FFT crossover (32 bins) and horizons of 128 or
    # more reach both the direct and the FFT levels of the streaming
    # convolver.  Graphs may carry self-loops and parallel edges.
    rng = random.Random(20240817)
    for _ in range(6):
        n = rng.randint(2, 6)
        nodes = [(i, float(i), 0.0) for i in range(n)]
        pairs = [(i, i + 1) for i in range(n - 1)]
        pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
        g = rr.StochasticGraph(1.0, nodes, [(a, b, long_kernel(rng)) for a, b in pairs])
        d = n - 1
        T = rng.randint(128, 200)
        ref_u, _ = reference_policy(g, d, T)
        direct = rr.compute_policy(g, d, T, backend="direct")
        zdc = rr.compute_policy(g, d, T, backend="zdc")
        assert np.abs(zdc.u - direct.u).max() <= 1e-12
        assert np.abs(zdc.u - ref_u).max() <= 1e-12

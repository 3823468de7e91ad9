"""The block policy solver vs. the direct-sum and reference oracles."""

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reliroute as rr

from conftest import direct_policy, edge_evaluation, reference_policy


def single_edge_graph(dist):
    return rr.StochasticGraph(1.0, [("s", 0, 0), ("d", 1, 0)], [("s", "d", dist)])


def kernel(rng, deltas, widths):
    """A kernel with its first mass at a bin drawn from ``deltas`` and a core
    (first to last bin with mass) as wide as a draw from ``widths``."""
    delta = rng.randint(*deltas)
    width = rng.randint(*widths)
    mass = np.zeros(delta + width)
    mass[delta:] = [rng.random() + 0.01 for _ in range(width)]
    return rr.DiscreteDistribution(mass / mass.sum())


def random_graph(rng, n, make_kernel):
    """A chain 0 -> 1 -> ... -> n-1 plus random extra edges, self-loops and
    parallel edges allowed."""
    nodes = [(i, float(i), 0.0) for i in range(n)]
    pairs = [(i, i + 1) for i in range(n - 1)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
    return rr.StochasticGraph(1.0, nodes, [(a, b, make_kernel()) for a, b in pairs])


def masked_subgraph(g, mask):
    """``g`` with only the edges ``mask`` keeps (edge indices change)."""
    nodes = [(nid, 0.0, 0.0) for nid in g.node_ids]
    edges = [(g.node_ids[g.edge_tails[e]], g.node_ids[g.edge_heads[e]], g.edge_dists[e])
             for e in np.flatnonzero(mask)]
    return rr.StochasticGraph(g.dt, nodes, edges)


def assert_solver_matches_oracles(g, d, T, mask=None):
    ref_u, _ = reference_policy(g if mask is None else masked_subgraph(g, mask), d, T)
    direct = direct_policy(g, d, T, edge_mask=mask)
    pol = rr.compute_policy(g, d, T, edge_mask=mask)
    assert np.abs(pol.u - direct.u).max() <= 1e-12
    assert np.abs(pol.u - ref_u).max() <= 1e-12
    assert np.array_equal(pol.w, direct.w)
    others = np.arange(g.num_nodes) != g.node_index(d)
    assert np.array_equal(pol.w[others] == rr.NO_EDGE, pol.u[others] == 0.0)
    assert np.all(np.diff(pol.u, axis=1) >= 0.0)


def least_min_bin(g):
    return min(dist.min_bin for dist in g.edge_dists)


def test_shift_by_one_kernel():
    g = single_edge_graph(rr.DiscreteDistribution.point_mass(1))
    pol = rr.compute_policy(g, "d", 4)
    assert pol.u[g.node_index("s")].tolist() == [0.0, 1.0, 1.0, 1.0, 1.0]


def test_all_ones_input_yields_running_cdf():
    # The destination row is all ones, so the source row is the edge's CDF.
    e4 = rr.DiscreteDistribution.from_pairs([[2, 0.5], [3, 0.5]])
    g = single_edge_graph(e4)
    pol = rr.compute_policy(g, "d", 5)
    assert pol.u[g.node_index("s")].tolist() == pytest.approx([0.0, 0.0, 0.5, 1.0, 1.0, 1.0])


def test_matches_direct_convolution_on_random_pairs():
    # Cores of 33-80 bins against blocks of 1-6 bins split every kernel into
    # many partitions, and horizons of 128 or more fill the ring of window
    # spectra and wrap around it.
    rng = random.Random(20240817)
    for _ in range(6):
        n = rng.randint(2, 6)
        g = random_graph(rng, n, lambda: kernel(rng, (1, 6), (33, 80)))
        assert_solver_matches_oracles(g, n - 1, rng.randint(128, 200))


def test_mixed_minimum_travel_times_and_ragged_horizons():
    # Minimum travel times of 2-12 bins: the block is the least of them, most
    # kernels start partitions later, and the horizon ends inside a block.
    rng = random.Random(7)
    for _ in range(8):
        n = rng.randint(2, 6)
        g = random_graph(rng, n, lambda: kernel(rng, (2, 12), (1, 20)))
        D = least_min_bin(g)
        T = rng.randint(3, 12) * D + rng.randint(1, D - 1)
        assert T % D
        assert_solver_matches_oracles(g, n - 1, T)


@pytest.mark.parametrize("offset", [None, -1, 0])
def test_horizon_at_most_one_block(offset):
    # T = 0, T = D - 1 (nothing can arrive) and T = D (one bin can).
    rng = random.Random(11)
    for _ in range(4):
        n = rng.randint(2, 5)
        g = random_graph(rng, n, lambda: kernel(rng, (4, 9), (1, 12)))
        T = 0 if offset is None else least_min_bin(g) + offset
        assert_solver_matches_oracles(g, n - 1, T)


def test_kernels_longer_than_the_horizon():
    rng = random.Random(12)
    for _ in range(6):
        n = rng.randint(2, 5)
        g = random_graph(rng, n, lambda: kernel(rng, (1, 8), (60, 100)))
        assert_solver_matches_oracles(g, n - 1, rng.randint(10, 50))


def test_unit_block_with_long_kernels():
    # One edge reaches the destination in a single bin, so blocks are one
    # bin long while every other kernel spans dozens of partitions.
    rng = random.Random(13)
    for _ in range(4):
        n = rng.randint(2, 5)
        g = random_graph(rng, n, lambda: kernel(rng, (2, 6), (33, 80)))
        edges = [(g.node_ids[g.edge_tails[e]], g.node_ids[g.edge_heads[e]], g.edge_dists[e])
                 for e in range(g.num_edges)]
        edges.append((n - 2, n - 1, rr.DiscreteDistribution.point_mass(1)))
        g = rr.StochasticGraph(1.0, [(i, float(i), 0.0) for i in range(n)], edges)
        assert least_min_bin(g) == 1
        assert_solver_matches_oracles(g, n - 1, rng.randint(60, 120))


@pytest.mark.parametrize("seed, deltas, widths", [(21, (1, 6), (33, 80)), (22, (2, 12), (1, 20)), (23, (1, 8), (60, 100))])
def test_masked_solves_match_the_oracles(seed, deltas, widths):
    # A random mask drops about a third of the edges, the chain's included,
    # so some nodes lose every route and blocks start at the least kept
    # minimum travel time.
    rng = random.Random(seed)
    for _ in range(5):
        n = rng.randint(3, 7)
        g = random_graph(rng, n, lambda: kernel(rng, deltas, widths))
        mask = np.array([rng.random() < 0.7 for _ in range(g.num_edges)])
        assert_solver_matches_oracles(g, n - 1, rng.randint(30, 120), mask)


def wavefront_graph():
    """Tail groups that become active early, late and never.

    ``m -> d`` sets D = 2 and makes ``m`` positive from budget 2.  ``a``'s
    only edge, to ``m``, has its first mass 15 blocks above D, so ``a``
    joins the sweep at budget 32 and needs ``m``'s windows from block 1 on.
    ``b``'s edges, in edge order, are ``b -> d`` (nonzero from 9) and a
    parallel pair ``b -> m`` nonzero from 22 and from 4: by activation the
    last comes first, but once all three are near 1 the tie goes to
    ``b -> d``, the smallest.  ``f`` joins at budget 72, and ``g`` never,
    because ``h`` has no way out.
    """

    def spread(first, last):
        mass = np.zeros(last + 1)
        mass[first:] = np.linspace(1.0, 2.0, last + 1 - first)
        return rr.DiscreteDistribution(mass / mass.sum())

    nodes = [(v, 0.0, 0.0) for v in "abdfghm"]
    edges = [
        ("m", "d", spread(2, 5)),
        ("b", "d", spread(9, 14)),
        ("a", "m", spread(30, 36)),
        ("b", "m", spread(20, 22)),
        ("b", "m", spread(2, 3)),
        ("f", "a", spread(40, 41)),
        ("g", "h", spread(2, 2)),
    ]
    return rr.StochasticGraph(1.0, nodes, edges)


@pytest.mark.parametrize("T", [1, 25, 60, 90])
@pytest.mark.parametrize("drop", [None, ("b", "m", 2), ("m", "d", 2)], ids=["all", "no-early-b", "no-m-d"])
def test_wavefront_edge_cases(T, drop):
    # T = 1 is below D; at 25 ``a`` has not joined, at 60 ``f`` has not, and
    # at 90 every group but ``g`` has.  Dropping ``b``'s only early edge makes
    # the group join at 9; dropping ``m -> d`` cuts ``a`` and ``b -> m`` off.
    g = wavefront_graph()
    mask = None
    if drop is not None:
        mask = np.array([
            (g.node_ids[g.edge_tails[e]], g.node_ids[g.edge_heads[e]], g.edge_dists[e].min_bin) != drop
            for e in range(g.num_edges)
        ])
        assert mask.sum() == g.num_edges - 1
    assert_solver_matches_oracles(g, "d", T, mask)
    if T >= 60 and drop is None:
        pol = rr.compute_policy(g, "d", T)
        b, first_b_edge = g.node_index("b"), g.out_edges[g.node_index("b")][0]
        assert np.all(pol.w[b, 14:] == first_b_edge)  # the tie among b's edges
        assert pol.u[g.node_index("a"), 32] > 0.0 == pol.u[g.node_index("a"), 31]
        assert not pol.u[g.node_index("g")].any()


def test_probabilities_below_rounding():
    # A first bin of mass 1e-20, followed by a gap, gives probabilities far
    # below FFT rounding of the larger terms in the same block; they must
    # stay positive, with a successor, exactly where the direct sums are.
    rng = random.Random(14)

    def tiny_first_bin():
        delta, gap, width = rng.randint(3, 8), rng.randint(1, 5), rng.randint(5, 40)
        mass = np.zeros(delta + gap + width)
        mass[delta + gap :] = [rng.random() + 0.01 for _ in range(width)]
        mass[delta] = 1e-20 * mass.sum()
        return rr.DiscreteDistribution(mass / mass.sum())

    for _ in range(10):
        n = rng.randint(2, 6)
        g = random_graph(rng, n, tiny_first_bin)
        assert_solver_matches_oracles(g, n - 1, rng.randint(40, 120))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 5))
    pairs = [(i, i + 1) for i in range(n - 1)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    edges = []
    for a, b in pairs:
        delta = draw(st.integers(1, 4))
        core = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12))
        mass = np.concatenate([np.zeros(delta), core])
        edges.append((a, b, rr.DiscreteDistribution(mass / mass.sum())))
    return rr.StochasticGraph(1.0, [(i, float(i), 0.0) for i in range(n)], edges), n - 1


@settings(max_examples=60, derandomize=True, deadline=None)
@given(graph=small_graphs(), T=st.integers(0, 40))
def test_property_block_engine_matches_direct_and_oracle(graph, T):
    # Minimum travel times of one bin, self-loops and parallel edges all occur.
    g, d = graph
    assert_solver_matches_oracles(g, d, T)


def test_successor_contract_over_a_region():
    # Every destination of one region of a 16x16 grid.  Synthetic kernels fold
    # their tail into the last bin at 1e-12, so gaps below the best edge near
    # u = 1 sit at EXACT_TOL itself, where no threshold rule is immune to
    # rounding.  Outside a 1e-13 band around it the solver and the direct
    # sums must pick the same edge, and that edge must be the smallest positive
    # one within EXACT_TOL of the best.  Where they differ, the smaller pick
    # lies in the band.
    g = rr.synthesize_distributions(rr.grid_topology(16), seed=7)
    T, band = 300, 1e-13
    rng = np.random.default_rng(5)

    def values(u, i, t):
        return [edge_evaluation(g, u, int(e), t) for e in g.out_edges[i]]

    def in_band(vals):
        return any(abs(max(vals) - v - rr.EXACT_TOL) <= band for v in vals)

    banded = []
    for d in rr.grid_partition(g, 4).regions[5]:
        direct = direct_policy(g, g.node_ids[d], T)
        pol = rr.compute_policy(g, g.node_ids[d], T)
        for i, t in zip(*np.nonzero(direct.w != pol.w)):
            vals = dict(zip(g.out_edges[i], values(direct.u, i, t)))
            gap = max(vals.values()) - vals[min(direct.w[i, t], pol.w[i, t])]
            assert abs(gap - rr.EXACT_TOL) <= band, (d, i, t, gap)
            banded.append(gap)
        others = np.setdiff1d(np.arange(g.num_nodes), [d])
        for i, t in zip(rng.choice(others, 300), rng.integers(1, T + 1, 300)):
            vals = values(direct.u, i, t)
            if in_band(vals):
                continue
            best = max(vals)
            near = [e for e, v in zip(g.out_edges[i], vals) if v > 0.0 and v >= best - rr.EXACT_TOL]
            expected = near[0] if near else rr.NO_EDGE
            assert direct.w[i, t] == pol.w[i, t] == expected, (d, i, t)
    print(f"{len(banded)} successor cells differ, all in the band: {banded}")


# ---------------------------------------------------------------------------
# the pipelined sweep: a block's far sums inline or on the helper thread

#: ``_HANDOFF_PRODUCTS`` settings that hand every block's far sums off, or none.
HANDOFF = {"always": 0, "never": sys.maxsize}


def solve_with_handoff(handoff, g, d, T, mask=None):
    """The solve with every block's far sums handed off, or none, and the
    blocks whose far sums ran on another thread."""
    far_sums, helped = rr.policy._far_sums, []

    def spy(b, *args):
        if threading.current_thread() is not threading.main_thread():
            helped.append(b)
        return far_sums(b, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rr.policy, "_HANDOFF_PRODUCTS", HANDOFF[handoff])
        patch.setattr(rr.policy, "_far_sums", spy)
        return rr.compute_policy(g, d, T, edge_mask=mask), helped


def assert_handoff_changes_nothing(g, d, T, mask=None):
    """Tables with and without the handoff are identical, bit for bit, and
    match the oracles; with it, every block after the first active one has
    its far sums summed on the helper."""
    always, helped = solve_with_handoff("always", g, d, T, mask)
    never, unhelped = solve_with_handoff("never", g, d, T, mask)
    assert unhelped == []
    assert always.u.tobytes() == never.u.tobytes() and always.w.tobytes() == never.w.tobytes()
    assert_solver_matches_oracles(g, d, T, mask)
    return helped


@settings(max_examples=40, derandomize=True, deadline=None)
@given(graph=small_graphs(), T=st.integers(0, 40))
def test_property_handoff_changes_no_table(graph, T):
    g, d = graph
    assert_handoff_changes_nothing(g, d, T)


@pytest.mark.parametrize(
    "deltas, widths, horizon",
    [((1, 6), (33, 80), (128, 200)), ((2, 12), (1, 20), (40, 150)), ((1, 8), (60, 100), (10, 50))],
    ids=["ring-wraps", "mixed-blocks", "kernels-past-the-horizon"],
)
def test_handoff_changes_no_table(deltas, widths, horizon):
    # Long rings wrap many times, so blocks with s = b mod R = 0 close their
    # second run with partition 1; kernels past the horizon keep R at the
    # block count less one, so the ring never wraps.  Masked solves too.
    rng = random.Random(41)
    helped = 0
    for _ in range(4):
        n = rng.randint(3, 6)
        g = random_graph(rng, n, lambda: kernel(rng, deltas, widths))
        T = rng.randint(*horizon)
        mask = np.array([rng.random() < 0.7 for _ in range(g.num_edges)])
        for m in (None, mask):
            helped += len(assert_handoff_changes_nothing(g, n - 1, T, m))
    assert helped


def test_handoff_with_one_partition_and_an_edge_past_the_horizon():
    # Every kernel within 2D bins gives R = 1: no far partitions, only the
    # newest window.  An edge whose least travel time exceeds the horizon
    # reads only the zero margin, and its length sets R to the block count
    # less one.
    edges = [
        (0, 1, rr.DiscreteDistribution([0, 0, 0.5, 0.5])),
        (1, 3, rr.DiscreteDistribution.point_mass(2)),
        (2, 3, rr.DiscreteDistribution([0, 0, 0.25, 0.75])),
        (0, 3, rr.DiscreteDistribution.point_mass(3)),
    ]
    nodes = [(i, float(i), 0.0) for i in range(4)]
    for extra, R in [([], 1), ([(0, 2, rr.DiscreteDistribution.point_mass(90))], 20)]:
        g = rr.StochasticGraph(1.0, nodes, edges + extra)
        assert rr.policy._EdgeArrays(g, 3, 40, None).R == R
        assert assert_handoff_changes_nothing(g, 3, 40) == list(range(2, 41 // 2 + 1))


def test_handoff_where_the_last_block_closes_the_ring():
    # A kernel of 60 bins against D = 3 and T = 30: R = 10 partitions, and
    # the last block is b = R, where s = 0 before the ring ever wraps.
    mass = np.zeros(61)
    mass[3:] = np.linspace(1.0, 2.0, 58)
    g = rr.StochasticGraph(1.0, [(i, float(i), 0.0) for i in range(3)], [
        (0, 1, rr.DiscreteDistribution(mass / mass.sum())),
        (1, 2, rr.DiscreteDistribution.point_mass(3)),
        (0, 2, rr.DiscreteDistribution(mass / mass.sum())),
    ])
    assert rr.policy._EdgeArrays(g, 2, 30, None).R == 10
    assert assert_handoff_changes_nothing(g, 2, 30) == list(range(2, 11))


def test_a_worker_exception_reaches_the_caller(monkeypatch):
    g = rr.synthesize_distributions(rr.grid_topology(4), seed=2)
    monkeypatch.setattr(rr.policy, "_HANDOFF_PRODUCTS", 0)
    far_sums = rr.policy._far_sums

    def fail_on_helper(b, *args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError(f"far sums of block {b} failed")
        return far_sums(b, *args)

    monkeypatch.setattr(rr.policy, "_far_sums", fail_on_helper)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="^far sums of block 2 failed$"):
        rr.compute_policy(g, "n03_03", 80)
    assert threading.active_count() == threads


@pytest.mark.parametrize("handoff", list(HANDOFF))
def test_no_thread_outlives_a_solve(monkeypatch, handoff):
    g = rr.synthesize_distributions(rr.grid_topology(6), seed=3)
    monkeypatch.setattr(rr.policy, "_HANDOFF_PRODUCTS", HANDOFF[handoff])
    threads = threading.active_count()
    rr.compute_policy(g, "n05_05", 150)
    assert threading.active_count() == threads


@pytest.mark.parametrize("handoff", list(HANDOFF))
def test_solves_from_a_thread_pool_equal_serial_ones(monkeypatch, handoff):
    # More threads than cores share one fresh graph, so they race to build
    # its spectra, and with every block handed off each solve's sweep and
    # helper race for its classes; a short switch interval varies the
    # interleaving.
    monkeypatch.setattr(rr.policy, "_HANDOFF_PRODUCTS", HANDOFF[handoff])
    build = lambda: rr.synthesize_distributions(rr.grid_topology(6), seed=5)
    g, shared = build(), build()
    queries = [(d, T) for d in ("n05_05", "n00_00", "n02_03", "n04_01") for T in (60, 150)]
    serial = [rr.compute_policy(g, d, T) for d, T in queries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            pooled = list(pool.map(lambda q: rr.compute_policy(shared, *q), queries, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, pooled):
        assert a.u.tobytes() == b.u.tobytes() and a.w.tobytes() == b.w.tobytes()


@pytest.mark.parametrize("ufunc", [np.maximum, np.minimum], ids=["maximum", "minimum"])
def test_group_reduce_is_reduceat(ufunc):
    # Groups of 1 to 40 rows, the first few of them active.
    rng = np.random.default_rng(3)
    sizes = rng.integers(1, 41, size=30)
    rows = np.repeat(np.arange(len(sizes)), sizes)
    nodes = [(i, float(i), 0.0) for i in range(len(sizes) + 1)]
    edges = [(int(t), len(sizes), rr.DiscreteDistribution.point_mass(1)) for t in rows]
    arrays = rr.policy._EdgeArrays(rr.StochasticGraph(1.0, nodes, edges), len(sizes), 5, None)
    assert sorted(np.diff(np.append(arrays.group_starts, len(rows))).tolist()) == sorted(sizes.tolist())
    for groups in (1, 7, len(sizes)):
        n = arrays.group_ends[groups - 1]
        x = rng.integers(0, 9, size=(n, 3)) if ufunc is np.minimum else rng.random((n, 3))
        want = ufunc.reduceat(x, arrays.group_starts[:groups], axis=0)
        assert np.array_equal(rr.policy._group_reduce(ufunc, x, arrays, groups), want)
